"""Exact sharp exponents k_p and the boundedness thresholds behind them.

Everything here is linear in u = 1/p - 1/2, so k_p is a piecewise-linear
function of u on [0, 1/2] with rational joints.  One type,
``PiecewiseLinear``, holds every such curve as its canonical joints: x
strictly increasing, collinear joints dropped, so two curves on the same
interval are equal exactly when their joints are.  ``kp_profile`` returns
k_p as an ``ExponentProfile``, the same curve read at a given p.

Linearly adapted classes have the single line (6 - 2/h) u.  D types with
2m+1 < n (n possibly infinite) take the maximum of two lines,

    (5 - 1/(2m+1)) u      and      (6 - (2m+2)/n) u + (2m+1)/(2n) - 1/2,

which cross at u = (2m+1)/(4m+4) regardless of n; infinite n sets the 1/n
terms to zero exactly.  The same crossover point is where the interpolation
envelope through the three boundedness anchors changes segment, and
``verify_nla_identity`` checks that the envelope and the profile agree at
every joint of either, which for piecewise-linear functions is equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple, Union

from .classify import D_TYPE, SingularityKind, UnsupportedKindError, height
from .polyring import INFINITE_ORDER

RationalLike = Union[int, Fraction]


def _u_of_p(p: RationalLike) -> Fraction:
    p = Fraction(p)
    if not (1 <= p <= 2):
        raise ValueError(f"p={p} outside [1, 2]")
    return Fraction(1) / p - Fraction(1, 2)


def _recip(n) -> Fraction:
    """1/n with the infinite-order sentinel mapping to exactly zero."""
    if n == INFINITE_ORDER:
        return Fraction(0)
    return Fraction(1, n)


def _check_nla_domain(m, n) -> None:
    """D(m, n) off the linearly adapted range: integer m >= 2, integer n > 2m+1 or infinite."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m={m!r} must be an integer >= 2")
    if n != INFINITE_ORDER and (not isinstance(n, int) or n <= 2 * m + 1):
        raise ValueError(f"n={n!r} must be infinite or an integer above 2m+1={2 * m + 1}")


def _is_nla_d(kind: SingularityKind) -> bool:
    if kind.tag != D_TYPE:
        return False
    if kind.m == INFINITE_ORDER:
        return False
    if kind.n == INFINITE_ORDER:
        return True
    return 2 * kind.m + 1 < kind.n


def _nla_lines(m: int, n) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """(slope, intercept) pairs of the two competing lines in u."""
    first = (Fraction(5) - Fraction(1, 2 * m + 1), Fraction(0))
    second = (
        Fraction(6) - (2 * m + 2) * _recip(n),
        Fraction(2 * m + 1, 2) * _recip(n) - Fraction(1, 2),
    )
    return first, second


class Segment(NamedTuple):
    """One affine piece y = slope*x + intercept on [x_lo, x_hi]."""

    slope: Fraction
    intercept: Fraction
    x_lo: Fraction
    x_hi: Fraction


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function through its (x, y) joints.

    Needs at least two joints with x strictly increasing.  Values are coerced
    to Fraction and joints collinear with their neighbours are dropped, so the
    stored joints are canonical; ``segments`` holds one affine piece per pair
    of consecutive joints.
    """

    points: Tuple[Tuple[Fraction, Fraction], ...]
    segments: Tuple[Segment, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = [(Fraction(x), Fraction(y)) for x, y in self.points]
        if len(pts) < 2:
            raise ValueError(f"need at least two joints, got {len(pts)}")
        joints = pts[:1]
        segs: List[Segment] = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise ValueError("joint x values must be strictly increasing")
            slope = (y1 - y0) / (x1 - x0)
            if segs and segs[-1].slope == slope:  # (x0, y0) is collinear: extend the piece
                segs[-1] = segs[-1]._replace(x_hi=x1)
                joints[-1] = (x1, y1)
            else:
                segs.append(Segment(slope, y0 - slope * x0, x0, x1))
                joints.append((x1, y1))
        object.__setattr__(self, "points", tuple(joints))
        object.__setattr__(self, "segments", tuple(segs))

    def value(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        segs = self.segments
        if not (segs[0].x_lo <= x <= segs[-1].x_hi):
            raise ValueError(f"x={x} outside [{segs[0].x_lo}, {segs[-1].x_hi}]")
        seg = next(s for s in segs if x <= s.x_hi)
        return seg.slope * x + seg.intercept


class ExponentProfile(PiecewiseLinear):
    """k_p as a convex piecewise-linear function of u = 1/p - 1/2 on [0, 1/2]."""

    def value_at_p(self, p: RationalLike) -> Fraction:
        return self.value(_u_of_p(p))


@dataclass(frozen=True)
class BoundednessAnchor:
    """One interpolation anchor: the operator is bounded for k above ``k`` at 1/p = inv_p."""

    inv_p: Fraction
    k: Fraction
    source: str  # "Sugi1" | "Sugi2" | "trivial-L2"


def kp_profile(kind: SingularityKind) -> ExponentProfile:
    """The full piecewise-linear profile of k_p over u in [0, 1/2]."""
    if not kind.is_supported:
        raise UnsupportedKindError(f"k_p undefined for kind {kind.tag}")
    half = Fraction(1, 2)
    if not _is_nla_d(kind):
        slope = Fraction(6) - Fraction(2) / height(kind)
        return ExponentProfile(((0, 0), (half, slope * half)))
    (s1, c1), (s2, c2) = _nla_lines(kind.m, kind.n)
    u_star = (c1 - c2) / (s2 - s1)  # equals (2m+1)/(4m+4), independent of n
    return ExponentProfile(((0, c1), (u_star, s1 * u_star + c1), (half, s2 * half + c2)))


def kp_point(kind: SingularityKind, p: RationalLike) -> Fraction:
    """Exact k_p for a supported class at a rational p in [1, 2]."""
    return kp_profile(kind).value_at_p(p)


def sugimoto_q_threshold(nu: int, gamma: RationalLike, q: RationalLike) -> BoundednessAnchor:
    """Boundedness anchor from an L^q-in-s decay rate gamma of the oscillatory integral.

    The operator is L^p -> L^p' bounded at p = 2q/(2q-1) once k exceeds
    nu - gamma - 1/q.
    """
    q = Fraction(q)
    if q < 2:
        raise ValueError(f"q={q} below 2")
    gamma = Fraction(gamma)
    inv_p = Fraction(2 * q - 1, 1) / (2 * q)
    k = Fraction(nu) - gamma - Fraction(1) / q
    return BoundednessAnchor(inv_p=inv_p, k=k, source="Sugi1")


def sugimoto_inf_threshold(nu: int, gamma: RationalLike, p: RationalLike) -> Fraction:
    """Boundedness threshold from a uniform-in-s decay rate gamma: (2nu-2gamma)(1/p-1/2)."""
    gamma = Fraction(gamma)
    u = _u_of_p(p)
    return (2 * Fraction(nu) - 2 * gamma) * u


def interpolation_envelope(anchors: Sequence[BoundednessAnchor]) -> PiecewiseLinear:
    """Lower convex envelope of the anchor points, as a function of 1/p.

    Interpolating between two boundedness anchors gives boundedness on the
    connecting segment, so the achievable region is bounded by this envelope.
    """
    if len(anchors) < 2:
        raise ValueError("need at least two anchors")
    pts = sorted((Fraction(a.inv_p), Fraction(a.k)) for a in anchors)
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError(f"duplicate inv_p = {x0}")
    hull: List[Tuple[Fraction, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return PiecewiseLinear(tuple(hull))


def _nla_anchors(m: int, n) -> List[BoundednessAnchor]:
    """The three anchors the interpolation uses for a D(m, n) with 2m+1 < n."""
    a_trivial = BoundednessAnchor(Fraction(1, 2), Fraction(0), "trivial-L2")
    gamma = Fraction(1, 2) + Fraction(1, m + 1)
    b_randol = sugimoto_q_threshold(3, gamma, 2 * m + 2)
    c_endpoint = BoundednessAnchor(Fraction(1), Fraction(5, 2) - Fraction(1, 2) * _recip(n), "Sugi1")
    return [a_trivial, b_randol, c_endpoint]


def verify_nla_identity(m: int, n) -> bool:
    """Exact check that the two-line k_p formula is the anchor interpolation envelope.

    For 2m+1 < n <= infinity, the envelope through (1/2, 0), the
    q = 2m+2 anchor at 1/p = (4m+3)/(4m+4), and (1, 5/2 - 1/(2n)), shifted
    to u = 1/p - 1/2, must agree with the k_p profile at every joint of
    either curve, and its one breakpoint must sit at the line crossover
    u = (2m+1)/(4m+4).
    """
    _check_nla_domain(m, n)
    profile = kp_profile(SingularityKind.d_type(m, n))
    half = Fraction(1, 2)
    env_in_inv_p = interpolation_envelope(_nla_anchors(m, n))
    env = PiecewiseLinear(tuple((x - half, y) for x, y in env_in_inv_p.points))
    if [x for x, _ in env.points] != [0, Fraction(2 * m + 1, 4 * m + 4), half]:
        return False
    joints = {x for x, _ in env.points} | {x for x, _ in profile.points}
    return all(env.value(u) == profile.value(u) for u in joints)


def knapp_exponent(kappa: Tuple[RationalLike, RationalLike], p: RationalLike, k: RationalLike) -> Fraction:
    """Growth rate of the concentrated test sequence for principal weight kappa.

    Positive values witness unboundedness of the operator at order k.
    """
    k1, k2 = Fraction(kappa[0]), Fraction(kappa[1])
    if k1 < 0 or k2 < 0:
        raise ValueError("weights must be nonnegative")
    u = _u_of_p(p)
    return 2 * (Fraction(3) - k1 - k2) * u - Fraction(k)


def knapp_exponent_nla(m: int, n, p: RationalLike, k: RationalLike) -> Fraction:
    """Growth rate of the branch-concentrated test sequence for D(m, n), 2m+1 < n.

    It is the second k_p line at u = 1/p - 1/2, less k.
    """
    _check_nla_domain(m, n)
    _, (slope, intercept) = _nla_lines(m, n)
    return slope * _u_of_p(p) + intercept - Fraction(k)
