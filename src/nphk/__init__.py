"""Newton-polygon invariants, singularity data and sharp convolution exponents.

The symbolic layer (polyring, newton, classify, exponent) is exact rational
arithmetic end to end; the numerical layer (oscint) verifies the predicted
oscillatory-integral decay rates at desk scale.
"""

from .polyring import (
    INFINITE_ORDER,
    BivariatePolynomial,
    LinearMap2,
    ParseError,
    UnivariatePolynomial,
    apply_linear,
    apply_shear,
    parse_polynomial,
)
from .newton import (
    Face,
    FaceNotIncident,
    NewtonPolygon,
    NotCriticalAtOrigin,
    build_polygon,
    face_part,
    taylor_support,
)
from .classify import (
    DNormalForm,
    HeightReport,
    NormalizationFailed,
    SingularityKind,
    TruncationTooSmall,
    UnsupportedKindError,
    circle_vanishing_order,
    classify_singularity,
    d_normal_form,
    height,
    height_report,
    linear_height,
    multiplicity_mfrak,
    rank_at_origin,
)
from .exponent import (
    BoundednessAnchor,
    ExponentProfile,
    interpolation_envelope,
    knapp_exponent,
    knapp_exponent_nla,
    kp_point,
    kp_profile,
    sugimoto_inf_threshold,
    sugimoto_q_threshold,
    verify_nla_identity,
)

__version__ = "0.1.0"

# The numerical layer needs numpy, which the exact commands never load: its
# names resolve on first use (PEP 562).
_OSCINT_NAMES = (
    "AmplitudeSpec",
    "BudgetExceeded",
    "DecayFit",
    "QuadratureNotConverged",
    "RandolScan",
    "dyadic_grid",
    "eval_oscillatory",
    "fit_decay",
    "fit_decay_from_samples",
    "randol_lq_scan",
)


def __getattr__(name):
    if name in _OSCINT_NAMES:
        from . import oscint

        return getattr(oscint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OSCINT_NAMES})
