"""Numerical verification of oscillatory-integral decay rates.

Evaluates I(lambda, s) = integral of exp(i*lambda*(phi(x) + s.x)) g(x) dx for
the radial bump g = (1 - |x|^2/R^2)^n on the disc of radius R, fits decay
exponents on dyadic lambda grids, and probes the local L^q behavior of the
weighted maximal function sup_lambda lambda^(1/2 + 1/(m+1)) |I(lambda, s)|.

Quadrature is a tensor-product composite Gauss rule whose panels are sized
locally: along each axis, a monomialwise bound of |d phi / d axis| + |s| on
each strip of the amplitude's support gives the local oscillation count, and
the panel edges follow it so that no panel holds more cycles than the rule
allows or is wider than a share of the support set by the bump's order.  The bound does not
depend on lambda, so a sweep takes it once and scales it per lambda.
A grid beyond a fixed node budget, or an offset scan beyond a fixed point
budget, is refused before any of it is built (BudgetExceeded).  The
integrand is evaluated in blocks of x rows of one height for both orders
(``_BLOCK_ROWS``); each block covers only the y nodes inside the disc at its
row nearest x = 0, since the amplitude is exactly zero on every other node,
so each value is the full tensor-product sum without its zero terms.

The sweep folds on the mixed part of the phase.  Without its constant, phi
is its mixed terms M (those in both variables) plus pure terms X(x) and
Y(y).  An axis is even or odd when every exponent of that variable in M is,
and both are even when M is empty.  The sweep's phase theta is lambda times
M and the pure terms that keep its parities: those with an exponent of their
own axis's parity, when M is not empty and the other axis is not odd.  Every
other pure term moves to its axis's 1-D factor
F(u; s) = w e^(i lambda (s u + P(u))), beside the offset.  theta is then
even or odd along each axis as M is, and the bump is even, so along an axis
whose nodes mirror exactly only the nodes u >= 0 are swept: there
g cos(theta) takes the same floats at u and -u and g sin(theta) the same or
their negatives, and the factors pair as Fc = F(u) + F(-u) and
Fs = Fc on an even fold or F(u) - F(-u) on an odd one (unfolded, both are
F).  One contraction serves every pair of parities: each block's rows give
P = g cos(theta) Bc^T and Q = g sin(theta) Bs^T against the y factors, and
once per sweep I = Ac P + i As Q with the x factors, as real matrix
products (``_contract``).  With M empty theta is 0, and a block is the bump
alone: no phase, no trig, and Q = 0.  On an exactly mirrored s2-grid only
the offsets s2 >= 0 are contracted when the columns of -s2 follow from them:
on a folded y whose pure terms are even, P is even in s2 and Q even or odd
as the fold; on an unfolded y with no pure term both conjugate.  Along x, ``_offsets`` evaluates the row of -s as
the conjugate of the row of s.  Panel edges are made to mirror exactly, so
all of this holds for every such phase, and ``_fold`` is the one switch
that turns every fold off.

Each block is one fused pass over buffers allocated once per sweep.  The
phase is one matrix product, the rows' powers in the distinct x-exponents
times a per-sweep table T[a, j] = lambda * sum_b c_ab y_j^b; the constant term
is left out of it and applied as the exact global factor exp(i lambda c),
reduced mod 2 pi in rational arithmetic against a pi taken to 64 bits beyond
|lambda c|, so it costs no accuracy at any size.
The bump comes from 1-D tables and repeated squaring.  cos and sin come from a
table-driven kernel (``_sincos``): a three-part Cody-Waite reduction modulo
2 pi / 1024, whose parts are split from a 75-digit pi, then Taylor
polynomials on |r| <= pi/1024 combined with a 1024-entry table.  On the
exact range |theta| <= SINCOS_RANGE (about 1.6e6) every value is within about
2e-16 of cos and sin of the double theta; beyond it, decided from a bound
taken once per sweep, np.cos and np.sin run instead, and so they do on
arrays too small to pay the table's fixed cost (_TABLE_MIN_SIZE).  The
kernel and the sweep are checked against ``_dense_reference`` in the tests,
which sums every node at once with np.exp and the bump written out and
shares only the Gauss nodes with them; it stays the independent check of
the whole fused pass.

One rule (``_RULE``) sets the orders of every sweep: the value is order 24,
checked by order 20 on the same panels, and the reported error is their
relative difference.  No panel holds more than 7.5 cycles or is wider than
2R/n (``_min_panels``): n = 3 for a bump of order 4 or more over a scan's
offset grid, else 6.  The order-2 bump is only C^1 at the disc's edge, where
the accuracy follows the node spacing.  A panel's cycles are counted from
the phase's advance, but the Gauss error follows its top frequency, up to
twice the count on a panel at a stationary point: at one offset the narrow
cap keeps such panels short, on a scan's grid the offsets' share of the
gradient bound (|s_i| <= 1/4) does.  The error is a measured
difference, not a rigorous bound.  Against the same orders on 2.5-cycle,
2R/12 panels, the worst relative error at s = 0 and lambda = 64..4096 on the
four decay_fit rows, the twin x*(y - x^2)^2 + x^5 with R = 0.6, and
x^2*y + y^3 and y^3 + x^5 with R = 0.25 is

    order      2R/6      2R/3
    2          4.4e-7    1.1e-6, 6.1 times the reported error
    4          2.9e-11   5.2e-10
    6, 8       2.6e-14   3.3e-11
    16..200    2.1e-14   3.0e-11
    400        3.8e-14   9.0e-8
    1000       9.6e-9    the check trips at lambda = 256 (1.39e-2)

and orders above 400 are refused (``AmplitudeSpec``).  On 2R/3 the error
grows with lambda R^2: x^2 + y^2 with order 8 is 8.4e-8 off at R = 0.6 and
lambda = 4096 (3.4e-13 on 2R/6) and reports 2.2e-3 at R = 0.8 and 16384
(4.7e-6).  On the order-2 decay_fit rows gamma_hat is within 1.6e-8 of the
reference's; where the error is above 1e-7 the reported error is at least
half of it, and below that it can under-report (the twin at lambda = 1024:
1.5e-8 off, 2.2e-9 reported).  On the two scan phases with the default bump
and 32-cell grid at lambda = 64..16384 the error against order 20 on panels
a quarter as wide was at most 4.2e-7 and the check at most 1.1e-6.  A 20/16
pair on 7.5 cycles is no option: order 16 integrates a tone at the cap only
to 1.4e-3.  No asymptotic (Filon-type) schemes: lambda stays at desk scale,
the point is an independent, error-checked test of the predicted power
laws, not speed.

Offset grids for the maximal-function scans are cell-centered.  The caustic
of the probed phases is an axis line through s = 0 where the maximal
function is genuinely infinite; endpoint grids would sample it directly and
the Riemann sums would measure the grid, not the function.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classify import D_TYPE, UnsupportedKindError, classify_singularity
from .polyring import INFINITE_ORDER, BivariatePolynomial


@dataclass(frozen=True)
class _Rule:
    """Gauss-Legendre values of order ``order``, checked by order ``check``, on panels of at most ``cycles`` cycles."""

    order: int
    check: int
    cycles: float


# On one panel a pure tone of 7.5 cycles is integrated by order 24 to about
# 1.9e-11 of the panel width and by order 20 to 4.3e-7, so the check trips
# near the error order 10 had on 2.5-cycle panels.  Both orders are even, so
# their nodes mirror on mirrored panels and every sweep folds alike.
_RULE = _Rule(order=24, check=20, cycles=7.5)
# x rows per sweep block, for both orders and every bump, times the ratio of the
# longer axis's nodes to the swept y nodes.  The disc clips a block at its row
# nearest x = 0, so a taller block keeps more zero nodes (whole 24-row panels
# keep up to 0.92 of the square on the sweep tests' grids, 14 rows up to
# 0.88); a shorter one pays the block's fixed cost of about 30 numpy calls
# more often.
_BLOCK_ROWS = 14
REL_TOL = 1e-3
MAX_FEASIBLE_LAMBDA = float(1 << 15)
# Nodes of the rule's check order one lambda may use.  At MAX_FEASIBLE_LAMBDA
# the decay_fit phases need at most 4.3e7 order-20 nodes (x^2*y + y^3 with
# R = 0.6; 6.1e7 at order 24) and the default bump's scans about 1.0e7; a
# grid far beyond that is a run of hours, not a desk-scale check.
MAX_COARSE_NODES = 10**8
# Offset points one maximal-function scan may hold on its finer grid.  The
# largest scan criterion 6 or a test runs has 64^2 (32 cells refined twice);
# 256^2 leaves a sixteenfold margin and keeps the fine totals and maxima near
# 1.5 MB, where --grid 20000 would ask for 38 GB.  A sweep's offset factors
# hold offsets times nodes per axis (2520 on the longer axis of (y - x^2)^2
# at lambda = 16384).
MAX_SCAN_POINTS = 256**2
# Nodes per axis of the support check's gradient grid on [-R, R].
SUPPORT_GRID = 49
# The largest bump order of the module docstring's table accepted: at 1000 the
# order check trips on 2R/3.
_MAX_BUMP_ORDER = 400
# Equal strips per axis on which the gradient bound is taken.  This sets how
# closely the panel sizes follow the local frequency, not the accuracy budget.
_STRIPS = 512

DEFAULT_LAMBDA_GRID = tuple(float(2**j) for j in range(6, 15))
DEFAULT_RADIUS = 0.25
DEFAULT_SCAN_HALF_WIDTH = 0.25
# Cell count per axis for offset scans.  Must be even: the probed phases have
# their caustic on an axis line, where the maximal function is infinite, and
# an odd cell-centered grid would place sample points exactly on it.
DEFAULT_SCAN_CELLS = 32
# A scan stops raising lambda once it has swept this many octaves above the
# last lambda that raised any point of its maximal function.  One quiet octave
# is not enough: on x*(y - x^2)^2 the largest value at lambda = 8192 is 0.404
# of the running max, and at 16384 it climbs back to 0.712.  The count is in
# octaves, not grid steps, so a denser lambda grid does not stop sooner.
_QUIET_OCTAVES = 2


class QuadratureNotConverged(RuntimeError):
    """A rule's two orders differ by more than REL_TOL on some value."""


class BudgetExceeded(ValueError):
    """A quadrature grid beyond MAX_COARSE_NODES or an offset scan beyond
    MAX_SCAN_POINTS, refused before any of it is built."""


@dataclass(frozen=True)
class AmplitudeSpec:
    """The radial bump amplitude (1 - (r/R)^2)^order on the disc of radius R.

    The order is an even integer from 2 to 400 (``_MAX_BUMP_ORDER``), the
    range the module docstring's table measures: at order 10^6 every value
    falls below the order check's floor and passes it unseen.
    """

    radius: float = DEFAULT_RADIUS
    order: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"amplitude radius must be positive and finite, got {self.radius}")
        if type(self.order) is not int or not 2 <= self.order <= _MAX_BUMP_ORDER or self.order % 2:
            raise ValueError(f"bump order must be an even integer from 2 to {_MAX_BUMP_ORDER}")


@dataclass(frozen=True)
class DecayFit:
    """Sampled values of I(lambda, s) and the fitted decay exponent.

    ``skipped`` holds the (lambda, message) pairs that ``fit_decay`` left out
    of the fit because their order check failed.
    """

    lambdas: Tuple[float, ...]
    values: Tuple[complex, ...]
    gamma_hat: float
    log_correction: bool
    residual: float
    quadrature_error_bound: Tuple[float, ...]
    skipped: Tuple[Tuple[float, str], ...] = ()


@dataclass(frozen=True)
class RandolScan:
    """Maximal-function samples and empirical L^q refinement ratios.

    ``lambdas`` holds the lambda values the scan swept, in ascending order:
    the head of its grid up to where the scan stopped.
    """

    m: int
    lambdas: Tuple[float, ...]
    s_grid: Tuple[Tuple[float, float], ...]
    M_values: Tuple[float, ...]
    q_report: Dict[float, Tuple[float, float, float]]  # q -> (coarse, fine, ratio)


# -- quadrature engine ---------------------------------------------------------


def _float_terms(phi: BivariatePolynomial) -> List[Tuple[int, int, float]]:
    """The terms of ``phi`` as floats.

    Raises ValueError for a coefficient beyond the float range.
    """
    try:
        return [(a, b, float(c)) for (a, b), c in sorted(phi.terms.items())]
    except OverflowError:
        raise ValueError("a phase coefficient is beyond the float range") from None


def _strip_bounds(
    phi: BivariatePolynomial, amp: AmplitudeSpec, s_max: Tuple[float, float]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Strip edges on [-R, R] and, per axis, a bound on |d phi / d axis| + |s|
    in each strip, for offsets with |s_i| <= |s_max[i]|.

    The bound is the monomialwise maximum over the strip's chord of the disc.
    It does not depend on lambda, so a sweep takes it once and scales it per
    lambda (``_axis_cost``).  Raises ValueError for an offset that is not
    finite.
    """
    if not all(math.isfinite(v) for v in s_max):
        raise ValueError(f"offsets must be finite, got s={tuple(s_max)}")
    r = amp.radius
    u = np.linspace(-r, r, _STRIPS + 1)
    lo, hi = u[:-1], u[1:]
    # A radius whose powers overflow gives a non-finite bound, which the node
    # budget in _panels_for rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        u_max = np.maximum(np.abs(lo), np.abs(hi))
        u_min = np.where(lo * hi <= 0.0, 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        v_max = np.sqrt(np.clip(r * r - u_min * u_min, 0.0, None))
        bounds = []
        for axis in (0, 1):
            bound = np.full_like(u_max, abs(s_max[axis]))
            for a, b, c in _float_terms(phi.partial(axis)):
                e_u, e_v = (a, b) if axis == 0 else (b, a)
                bound += abs(c) * u_max**e_u * v_max**e_v
            bounds.append(bound)
    return u, bounds


def _min_panels(amp: AmplitudeSpec, grids: Sequence[Tuple[np.ndarray, np.ndarray]]) -> int:
    """n of the width cap 2R/n for sweeping ``amp`` over the offset ``grids``
    (``_osc_grids``): 3 for a bump of order 4 or more over a scan's grid,
    else 6 (see the module docstring)."""
    return 3 if amp.order > 2 and grids[0][0].size > 1 else 6


def _axis_cost(u: np.ndarray, bound: np.ndarray, amp: AmplitudeSpec, lam: float, n: int) -> np.ndarray:
    """The cumulative panel-sizing cost at each strip edge ``u`` along an axis
    whose strips have the bound ``bound`` of ``_strip_bounds``.

    A strip holds at most lam * bound * width / (2 pi) cycles.  A panel's cost
    is its cycles / _RULE.cycles plus width * n / (2R): a panel of cost at most
    1 holds no more than _RULE.cycles cycles and is no wider than 2R / n.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        width = np.diff(u)
        cycles = lam * bound * width / (2.0 * math.pi)
        cost = cycles / _RULE.cycles + width * n / (2.0 * amp.radius)
    return np.concatenate(([0.0], np.cumsum(cost)))


def _axis_edges(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Panel edges on [u[0], u[-1]]: the cost spread evenly over the fewest
    panels that keep every share <= 1."""
    panels = int(math.ceil(cum[-1]))
    edges = np.interp(cum[-1] * np.arange(panels + 1) / panels, cum, u)
    edges[0], edges[-1] = u[0], u[-1]
    # The cost is even in u up to rounding; make the edges mirror exactly so
    # that _fold can pair every node u with -u.
    return (edges - edges[::-1]) / 2.0


def _panels_for(
    strips: Tuple[np.ndarray, List[np.ndarray]], amp: AmplitudeSpec, lam: float, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Panel edges per axis under the width cap 2R/n from a phase's ``_strip_bounds``.

    Raises ValueError for a lambda outside the feasible range,
    BudgetExceeded before any edge is placed when the grid would need more
    than MAX_COARSE_NODES nodes of the order _RULE.check or its size is not
    finite, and ValueError when the bump's mass is not a normal positive
    float (a radius whose square overflows or underflows).
    """
    _check_lambda(lam)
    u, bounds = strips
    cums = [_axis_cost(u, bound, amp, lam, n) for bound in bounds]
    nodes = float(_RULE.check**2)
    for cum in cums:
        nodes *= float(np.ceil(cum[-1]))
    if not nodes <= MAX_COARSE_NODES:
        raise BudgetExceeded(
            f"lambda={lam:g} with radius {amp.radius:g} needs {nodes:.3g} coarse quadrature nodes,"
            f" more than the budget of {MAX_COARSE_NODES:.3g}"
        )
    mass = amplitude_mass(amp)
    if not sys.float_info.min <= mass < math.inf:
        raise ValueError(f"radius {amp.radius:g} gives the bump a mass of {mass:g}, outside the float range")
    return _axis_edges(u, cums[0]), _axis_edges(u, cums[1])


@functools.lru_cache(maxsize=2)
def _gauss_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The order-``order`` Gauss-Legendre rule on [-1, 1], computed once per
    order; the cache holds the rule's orders 24 and 20.

    leggauss returns exactly antisymmetric nodes and symmetric weights, so
    mirrored edges give exactly mirrored nodes and equal weights.  It runs on
    first use, not at import: it initializes LAPACK, about 2 MB of resident
    memory that the exact layer never needs.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    gl_x.flags.writeable = gl_w.flags.writeable = False
    return gl_x, gl_w


def _gauss_axis(edges: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    gl_x, gl_w = _gauss_rule(order)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights = (half[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


_PARITY = ("even", "odd")


@dataclass(frozen=True)
class _Phase:
    """A phase as the sweep takes it (``_split_phase``): the fold parities,
    the terms of theta, each axis's pure terms and the constant term."""

    parities: Tuple[Optional[str], Optional[str]]
    theta: List[Tuple[int, int, float]]
    pure: Tuple[List[Tuple[int, float]], List[Tuple[int, float]]]
    constant: Fraction


def _split_phase(phi: BivariatePolynomial) -> _Phase:
    """The fold parities of ``phi``, the terms of theta, the pure terms each
    axis's 1-D factor takes and the constant term, once per call of a public
    entry point.

    The parity of an axis is "even" or "odd" when every mixed term (one in
    both variables) has an even or an odd exponent of it, else None; with no
    mixed term both are "even" and theta is 0.  A pure term stays in theta
    when there is a mixed term, its exponent has its axis's parity and the
    other axis is not odd, so that theta keeps both parities; every other
    pure term moves to its axis as an (exponent, coefficient) pair.  The
    constant term is in neither (``_global_phase``).
    """
    constant = phi.terms.get((0, 0), Fraction(0))
    terms = _float_terms(phi - BivariatePolynomial.constant(constant))
    mixed = [(a, b) for a, b, _ in terms if a and b]
    found = [{key[axis] % 2 for key in mixed} or {0} for axis in (0, 1)]
    parities = tuple(_PARITY[f.pop()] if len(f) == 1 else None for f in found)
    theta, pure = [], ([], [])
    for a, b, c in terms:
        axis, e = (0, a) if b == 0 else (1, b)
        if (a and b) or (mixed and parities[axis] == _PARITY[e % 2] and parities[1 - axis] != "odd"):
            theta.append((a, b, c))
        else:
            pure[axis].append((e, c))
    return _Phase(parities, theta, pure, constant)


def _fold(nodes: np.ndarray, weights: np.ndarray, parity: Optional[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes >= 0 with their weights doubled, when ``parity`` is "even"
    or "odd" and the nodes mirror exactly (their weights then do too);
    otherwise ``nodes`` and ``weights`` unchanged.

    The bump is even, and theta is even or odd along the axis, so on a
    fold g cos(theta) takes the same floats at u and -u and g sin(theta)
    the same or their negatives.  ``_axis_factors`` pairs the 1-D factors
    of u and -u to match.
    """
    h = nodes.size // 2
    if parity is None or not np.array_equal(nodes[h:], -nodes[:h][::-1]):
        return nodes, weights
    return nodes[h:], 2.0 * weights[h:]


def _mirror_half(s: np.ndarray) -> int:
    """h when the offsets s[:h] are exactly -s[::-1][:h], the mirror of the
    upper part s[h:]; else 0."""
    h = s.size // 2
    return h if (s[:h] == -s[: -h - 1 : -1]).all() else 0


def _power(t: np.ndarray, n: int, scratch: np.ndarray) -> np.ndarray:
    """t**n for an integer n >= 1 by repeated squaring, in place in ``t`` and
    ``scratch``; returns the one of the two that holds it."""
    while n % 2 == 0:
        np.multiply(t, t, out=t)
        n //= 2
    if n == 1:
        return t
    np.copyto(scratch, t)
    n >>= 1
    while n:
        np.multiply(t, t, out=t)
        if n & 1:
            scratch *= t
        n >>= 1
    return scratch


def _radial_bump(ux: np.ndarray, vy: np.ndarray, order: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(1 - (x^2 + y^2)/R^2)^order clipped at 0 on a block, from the tables
    ux = 1 - x^2/R^2 of its rows and vy = y^2/R^2 of its columns."""
    np.subtract(ux[:, None], vy[None, :], out=out)
    np.maximum(out, 0.0, out=out)
    return _power(out, order, scratch)


# -- trig kernel ---------------------------------------------------------------
#
# cos and sin by table lookup after a Cody-Waite reduction (Cody and Waite,
# Software Manual for the Elementary Functions, 1980; Tang, ACM TOMS 15, 1989):
# theta = k*STEP + r with STEP = 2*pi/_TRIG_STEPS, k = rint(theta/STEP) and
# |r| <= STEP/2, then cos(theta) = C_k cos r - S_k sin r and
# sin(theta) = S_k cos r + C_k sin r with C_k, S_k from a table and cos r, sin r
# from their Taylor polynomials to r^4 and r^5 (truncation below 1.2e-18).

_TRIG_STEPS = 1024
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459230781640628")


def _step_parts() -> Tuple[float, float, float]:
    """2*pi/_TRIG_STEPS as c1 + c2 + c3, split from the 75-digit value of pi.

    c1 and c2 carry 24 significant bits, so k*c1 and k*c2 are exact for
    |k| < 2^29; c3 is the rounded rest, and the three sum to the step
    within 1e-32.
    """
    rest = 2 * _PI / _TRIG_STEPS
    parts = []
    for bits in (24, 24, 53):
        mant, exp = math.frexp(float(rest))
        part = math.ldexp(round(math.ldexp(mant, bits)), exp - bits)
        parts.append(part)
        rest -= Fraction(part)
    return tuple(parts)


_STEP1, _STEP2, _STEP3 = _step_parts()
_STEPS_PER_RADIAN = float(_TRIG_STEPS / (2 * _PI))
# |theta| up to which |k| stays below 2^28, half the exact range of k*c1.
SINCOS_RANGE = 2.0**28 * _STEP1
# Entries of the offset matrices one _sincos call takes.
_OFFSET_CHUNK = 1 << 16
# Entries below which _sincos runs np.cos and np.sin: the table kernel costs
# about 30 numpy calls whatever the size (30 us on a 2-core x86 host, against
# 4 us for the two libm calls on 64 entries), and the two cross near 1500
# entries there.  The 1-D offset factors of a single-offset sweep and the
# blocks of a small grid fall below it.
_TABLE_MIN_SIZE = 1024


@functools.lru_cache(maxsize=1)
def _trig_table() -> Tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/_TRIG_STEPS for every j, built on first use.

    Only the first octant is evaluated: each argument is the double nearest
    the exact one, and the first-order term in its rounding error is added
    back, so every entry is within about an ulp.  The rest follows by exact
    symmetry, so cos(-theta) and -sin(-theta) come out as the same floats as
    cos(theta) and sin(theta), and the entries at multiples of pi/2 are exact.
    """
    quarter = _TRIG_STEPS // 4
    exact = [j * 2 * _PI / _TRIG_STEPS for j in range(quarter // 2 + 1)]
    arg = np.array([float(a) for a in exact])
    err = np.array([float(a - Fraction(f)) for a, f in zip(exact, arg)])
    q = np.empty(quarter + 1)  # cos on the first quadrant
    q[: quarter // 2 + 1] = np.cos(arg) - err * np.sin(arg)
    q[quarter // 2 :][::-1] = np.sin(arg) + err * np.cos(arg)
    cos_t = np.concatenate((q, -q[quarter - 1 :: -1], -q[1:], q[quarter - 1 : 0 : -1])) + 0.0
    sin_t = np.roll(cos_t, quarter)
    cos_t.flags.writeable = sin_t.flags.writeable = False
    return cos_t, sin_t


def _sincos(
    theta: np.ndarray,
    cos_out: np.ndarray,
    sin_out: np.ndarray,
    scratch: Sequence[np.ndarray],
    bound: Optional[float],
) -> None:
    """cos(theta) into ``cos_out`` and sin(theta) into ``sin_out``.

    ``bound`` bounds |theta|; None takes the bound from theta itself, and
    only when the table would run.  Up to SINCOS_RANGE the table kernel
    runs, and each value is within about 2e-16 of the exact one for the
    double theta; beyond it (or for a bound that is not finite), and on
    fewer than _TABLE_MIN_SIZE entries, np.cos and np.sin do.  ``theta`` and
    the three ``scratch`` arrays of its shape are overwritten.
    """
    small = theta.size < _TABLE_MIN_SIZE
    if bound is None and not small:
        bound = float(np.abs(theta).max())
    if small or not bound <= SINCOS_RANGE:
        np.cos(theta, out=cos_out)
        np.sin(theta, out=sin_out)
        return
    cos_t, sin_t = _trig_table()
    k, r, t = scratch
    np.multiply(theta, _STEPS_PER_RADIAN, out=k)
    np.rint(k, out=k)
    np.multiply(k, _STEP1, out=r)
    np.subtract(theta, r, out=r)  # exact: k*c1 is exact and close to theta
    for part in (_STEP2, _STEP3):
        np.multiply(k, part, out=theta)
        r -= theta
    idx = t.view(np.int64)
    np.copyto(idx, k, casting="unsafe")
    np.bitwise_and(idx, _TRIG_STEPS - 1, out=idx)
    np.take(cos_t, idx, out=cos_out, mode="clip")
    np.take(sin_t, idx, out=sin_out, mode="clip")
    r2 = theta
    np.multiply(r, r, out=r2)
    sin_r = k
    np.multiply(r2, 1.0 / 120.0, out=sin_r)
    sin_r -= 1.0 / 6.0
    sin_r *= r2
    sin_r *= r
    sin_r += r
    cos_r1 = t  # cos r - 1
    np.multiply(r2, 1.0 / 24.0, out=cos_r1)
    cos_r1 -= 0.5
    cos_r1 *= r2
    np.multiply(cos_out, sin_r, out=r)
    sin_r *= sin_out
    np.multiply(sin_out, cos_r1, out=r2)
    r2 += r
    sin_out += r2
    cos_r1 *= cos_out
    cos_r1 -= sin_r
    cos_out += cos_r1


def _offsets(
    lam: float,
    s: np.ndarray,
    u: np.ndarray,
    cos_out: np.ndarray,
    sin_out: np.ndarray,
    shift: Optional[np.ndarray] = None,
) -> None:
    """cos and sin of lam*s[i]*u[j] + shift[j] into cos_out[i, j] and
    sin_out[i, j]; no ``shift`` is a shift of 0.

    For exactly mirrored offsets and no shift only the rows s[h:] of
    ``_mirror_half`` are evaluated: the row of -s is the conjugate of the row
    of s, bit for bit.  The rows go through ``_sincos`` a few at a time, so
    its scratch holds about _OFFSET_CHUNK entries however many offsets there
    are.
    """
    h = _mirror_half(s) if shift is None else 0
    rows = max(1, _OFFSET_CHUNK // u.size)
    work = np.empty((4, min(rows, s.size - h), u.size))
    for i in range(h, s.size, rows):
        part = s[i : i + rows]
        theta = work[0, : part.size]
        np.multiply.outer(part, u, out=theta)
        theta *= lam
        if shift is not None:
            theta += shift
        _sincos(theta, cos_out[i : i + rows], sin_out[i : i + rows], work[1:, : part.size], None)
    if h:
        cos_out[:h] = cos_out[::-1][:h]
        np.negative(sin_out[::-1][:h], out=sin_out[:h])


def _pure_angle(lam: float, u: np.ndarray, terms: Sequence[Tuple[int, float]]) -> Optional[np.ndarray]:
    """lam * sum of c u^e over the (exponent, coefficient) ``terms``, or None
    when there are none."""
    parts = [(lam * c) * u**e for e, c in terms]
    return sum(parts[1:], parts[0]) if parts else None


def _axis_factors(
    lam: float, s: np.ndarray, u: np.ndarray, w: np.ndarray, pure: Sequence[Tuple[int, float]], fold: Optional[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """The 1-D factors (Fc, Fs) of one axis, one row per offset of ``s``, on
    its swept nodes ``u`` with weights ``w``.

    F(u; s) = w e^(i lambda (s u + P(u))), where P is the sum of the ``pure``
    terms moved out of theta.  Unfolded, Fc = Fs = F.  Folded (``w`` holds
    the doubled weights), Fc = F(u) + F(-u), and Fs is Fc on an even fold
    and F(u) - F(-u) on an odd one, so that the sum over +-u of F g e^(i
    theta) is Fc g cos(theta) + i Fs g sin(theta).  With P = Pe + Po split
    into its even and odd exponents, F(+-u) = e^(i lambda Pe) w e^(+-i
    lambda (s u + Po)), so Fc = e^(i lambda Pe) w cos(lambda (s u + Po)) and
    the odd Fs = i e^(i lambda Pe) w sin(lambda (s u + Po)).  The weights
    and the tone e^(i lambda Pe) are one factor per node, and a fold with no
    even pure term has no tone, so its Fc is real.
    """
    in_angle = [(e, c) for e, c in pure if fold is None or e % 2]
    in_tone = [(e, c) for e, c in pure if fold is not None and e % 2 == 0]
    shift = _pure_angle(lam, u, in_angle)
    if fold is None:
        f = np.empty((s.size, u.size), dtype=np.complex128)
        _offsets(lam, s, u, f.real, f.imag, shift)
        f *= w
        return f, f
    cos_sin = np.empty((2, s.size, u.size))
    _offsets(lam, s, u, cos_sin[0], cos_sin[1], shift)
    weight = w * np.exp(1j * _pure_angle(lam, u, in_tone)) if in_tone else w
    f_c = cos_sin[0] * weight
    return f_c, f_c if fold == "even" else cos_sin[1] * (1j * weight)


def _phase_rows(exps: np.ndarray, xc: np.ndarray, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """theta on a block of rows, into ``out``: the rows' powers in the
    distinct x-exponents ``exps`` times the matching columns ``table`` of the
    sweep's table T[a, j] = lam * sum_b c_ab y_j^b over the terms of theta."""
    return np.matmul(xc[:, None] ** exps, table, out=out)


def _disc_columns(amp: AmplitudeSpec, xc: np.ndarray, y: np.ndarray) -> Tuple[int, int]:
    """The y-node range [lo, hi) a block of rows ``xc`` needs.

    Every node with x^2 + y^2 >= R^2 has a zero amplitude, so a block needs
    only the y nodes inside the disc's chord at its row nearest x = 0.
    """
    r = amp.radius
    x_min = float(np.abs(xc).min())
    w = math.sqrt(r * r - x_min * x_min)
    return int(y.searchsorted(-w)), int(y.searchsorted(w, "right"))


def _pi_within(bits: int) -> Fraction:
    """pi within 2^-bits: the 75-digit _PI up to 245 bits, beyond it Gauss's
    formula pi = 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239) in integer
    arithmetic, whose truncations stay in its bits.bit_length() + 16 guard bits."""
    if bits <= 245:
        return _PI
    one = 1 << (bits + bits.bit_length() + 16)

    def atan_inv(n: int) -> int:
        total, power, k = 0, one // n, 0
        while power:
            total += -(power // (2 * k + 1)) if k % 2 else power // (2 * k + 1)
            power //= n * n
            k += 1
        return total

    return Fraction(48 * atan_inv(18) + 32 * atan_inv(57) - 20 * atan_inv(239), one)


def _global_phase(constant: Fraction, lam: float) -> complex:
    """exp(i*lam*c) for the constant term c of the phase, reduced exactly mod
    2*pi; a sweep's callers take it once per lambda.

    The reduction takes about |lam*c| / pi multiples of pi, so pi is taken
    to 64 bits beyond |lam*c|: the reduced angle is then within 2^-63 at
    any size of c.
    """
    turn = Fraction(lam) * constant
    bits = max(abs(turn.numerator).bit_length() - turn.denominator.bit_length(), 0) + 64
    return cmath.exp(1j * float(turn % (2 * _pi_within(bits))))


def _osc_grids(
    phase: _Phase,
    amp: AmplitudeSpec,
    lam: float,
    grids: Sequence[Tuple[np.ndarray, np.ndarray]],
    edges: Tuple[np.ndarray, np.ndarray],
    order: int,
    turn: complex,
) -> List[np.ndarray]:
    """I(lambda, s) over several separable s-grids, sharing one integrand sweep.

    Each grid is (s1_values, s2_values) and yields the full matrix
    I[i, j] = I(lambda, (s1[i], s2[j])) under the order-``order`` rule on
    every panel.  ``phase`` is the split phase (``_split_phase``): theta and
    the pure terms of each axis's 1-D factors, and every axis with a parity
    folds onto its nodes >= 0 (``_fold``).  Each block of rows
    (``_BLOCK_ROWS``) is evaluated only on the y nodes ``_disc_columns``
    gives it, in buffers allocated once per sweep, and summed over y against
    the y factors (``_axis_factors``): P = g cos(theta) Bc^T and
    Q = g sin(theta) Bs^T.
    With no theta the block is the bump alone and Q is 0.  Once per sweep
    I = Ac P + i As Q with the x factors (``_contract``).  Of an exactly
    mirrored s2-grid only the offsets s2 >= 0 are contracted when the
    columns of -s2 follow from theirs: when y folds and its pure terms are
    even (P is even in s2, and Q even or odd as the fold), and when y is
    swept whole with no pure term (P and Q conjugate).  ``turn`` is the
    factor ``_global_phase`` of the constant term, outside the sum.
    """
    (px, py), terms, (pure_x, pure_y) = phase.parities, phase.theta, phase.pure
    x, wx = _gauss_axis(edges[0], order)
    y, wy = _gauss_axis(edges[1], order)
    longest, x_nodes, y_nodes = max(x.size, y.size), x.size, y.size
    x, wx = _fold(x, wx, px)
    y, wy = _fold(y, wy, py)
    fx, fy = px if x.size < x_nodes else None, py if y.size < y_nodes else None

    # the s2 rows each grid contracts: when the columns of -s2 follow from
    # those of s2, only those of s2 >= 0
    mirror = not pure_y if fy is None else all(e % 2 == 0 for e, _ in pure_y)
    halves = [_mirror_half(s2) if mirror else 0 for _, s2 in grids]
    rows_b = [s2[h:] for (_, s2), h in zip(grids, halves)]
    nb = [s2.size for s2 in rows_b]
    starts = np.cumsum([0] + nb[:-1])
    # Bc^T and, on an odd fold with a theta, Bs^T (else Fs = Fc), as real
    # matrices that hold each grid's factors as [real parts | imaginary
    # parts]: a block's product holds its rows' P and Q in the same layout,
    # which _contract takes as it is
    mats = np.empty((1 + (bool(terms) and fy == "odd"), y.size, 2 * sum(nb)))
    for s2, start, count in zip(rows_b, starts, nb):
        for mat, f in zip(mats, _axis_factors(lam, s2, y, wy, pure_y, fy)):
            mat[:, 2 * start : 2 * start + count] = f.real.T
            mat[:, 2 * start + count : 2 * (start + count)] = f.imag.T
    # Q unless g sin(theta) or Fs is 0; with Fs = Fc the block product
    # broadcasts the one matrix over g cos(theta) and g sin(theta)
    with_q = bool(terms) and bool(mats[-1].any())
    mats = mats[: 1 + with_q]

    exps = sorted({a for a, _, _ in terms})
    table = np.zeros((len(exps), y.size))
    ypow = [np.ones_like(y)]
    for _ in range(max((b for _, b, _ in terms), default=0)):
        ypow.append(ypow[-1] * y)
    for a, b, c in terms:
        table[exps.index(a)] += (lam * c) * ypow[b]
    exps = np.array(exps, dtype=float)
    theta_max = float(np.max(float(np.abs(x).max()) ** exps @ np.abs(table), initial=0.0))
    r2 = amp.radius * amp.radius
    ux = 1.0 - x * x / r2
    vy = y * y / r2

    rows = _BLOCK_ROWS * max(1, round(longest / y.size))
    # g cos(theta) and g sin(theta) of a block, then theta and three scratch arrays
    pair = np.empty(2 * rows * y.size)
    work = np.empty((4, rows * y.size))
    # each row's P and Q, contracted with the x factors once per sweep
    sums = np.empty((1 + with_q, x.size, 2 * sum(nb)))
    for row in range(0, x.size, rows):
        block = slice(row, row + rows)
        xc = x[block]
        lo, hi = _disc_columns(amp, xc, y)
        n, size = xc.size, xc.size * (hi - lo)
        e = pair[: 2 * size].reshape(2, n, hi - lo)
        theta, *scratch = work[:, :size].reshape(4, n, hi - lo)
        if terms:
            _phase_rows(exps, xc, table[:, lo:hi], theta)
            _sincos(theta, e[0], e[1], scratch, theta_max)
            e *= _radial_bump(ux[block], vy[lo:hi], amp.order, theta, scratch[0])
        else:
            e = _radial_bump(ux[block], vy[lo:hi], amp.order, theta, scratch[0])[None]
        np.matmul(e[: 1 + with_q], mats[:, lo:hi], out=sums[:, block])
    totals = []
    for (s1, _), start, count, h in zip(grids, starts, nb, halves):
        a_c, a_s = _axis_factors(lam, s1, x, wx, pure_x, fx)
        pq = sums[:, :, 2 * start : 2 * (start + count)]
        # the columns of -s2: P and Q conjugate on an unfolded y; on a folded
        # one P is the same, and Q the same or negated as the fold
        flip = None if not h else "conj" if fy is None else fy
        total, mirrored = _contract(turn, a_c, a_s, pq[0], pq[1] if with_q else None, flip)
        totals.append(np.concatenate((mirrored[:, ::-1][:, :h], total), axis=1))
    return totals


def _times(a: np.ndarray, p: np.ndarray, conj: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """a @ P and, with ``conj``, a @ conj(P), for P given as [Re P | Im P]:
    two real matrix products, shared by both."""
    count = p.shape[1] // 2
    re, im = a.real @ p, a.imag @ p
    rr, ri, ir, ii = re[:, :count], re[:, count:], im[:, :count], im[:, count:]
    return (rr - ii) + 1j * (ri + ir), ((rr + ii) + 1j * (ir - ri)) if conj else None


def _contract(
    turn: complex,
    a_c: np.ndarray,
    a_s: np.ndarray,
    p: np.ndarray,
    q: Optional[np.ndarray],
    flip: Optional[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """turn (Ac P + i As Q), where no ``q`` stands for Q = 0, and the same
    with P and Q conjugated (``flip`` "conj") or Q negated ("odd"); else the
    second is the first.

    P and Q come as [real parts | imaginary parts], and every product is a
    real one (``_times``): a small complex product can stall for
    milliseconds in some processes, where real ones of the same size do not.
    Ac P and As Q are taken once for both results.
    """
    conj = flip == "conj"
    c_p, c_p_bar = _times(a_c, p, conj)
    s_q, s_q_bar = (0.0, 0.0) if q is None else _times(a_s, q, conj)
    total = turn * (c_p + 1j * s_q)
    if conj:
        return total, turn * (c_p_bar + 1j * s_q_bar)
    return total, turn * (c_p - 1j * s_q) if flip == "odd" else total


def amplitude_mass(amp: AmplitudeSpec) -> float:
    """The integral of the bump in closed form, pi R^2 / (order + 1)."""
    return math.pi * (amp.radius * amp.radius) / (amp.order + 1)


def _cell_sign_change(g: np.ndarray) -> np.ndarray:
    """Per grid cell, whether the values at its four corners include 0 or both signs."""
    corners = (g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:])
    return (np.minimum.reduce(corners) <= 0) & (np.maximum.reduce(corners) >= 0)


def check_amplitude_support(phi: BivariatePolynomial, amp: AmplitudeSpec) -> bool:
    """Grid check that the phase has no critical points separated from the origin.

    Critical sets through the origin (curves of degenerate phases) are
    accepted; a low-gradient island disconnected from the origin's component
    is not, since it would contribute its own stationary-phase terms.

    The component grows through nodes of small gradient and through the
    corners of every grid cell on which both partials take both signs (or
    vanish at a corner), so a critical curve stays connected where the
    small-gradient band along it is thinner than the grid step.
    """
    grid = SUPPORT_GRID
    r = amp.radius
    xs = np.linspace(-r, r, grid)
    g1 = np.zeros((grid, grid))
    g2 = np.zeros((grid, grid))
    for a, b, c in _float_terms(phi.partial(0)):
        g1 += c * xs[:, None] ** a * xs[None, :] ** b
    for a, b, c in _float_terms(phi.partial(1)):
        g2 += c * xs[:, None] ** a * xs[None, :] ** b
    mag = np.hypot(g1, g2)
    scale = max(float(mag.max()), 1e-30)
    mask = mag < 1e-2 * scale
    cells = _cell_sign_change(g1) & _cell_sign_change(g2)
    for di in (0, 1):
        for dj in (0, 1):
            mask[di : grid - 1 + di, dj : grid - 1 + dj] |= cells
    inside = xs[:, None] ** 2 + xs[None, :] ** 2 <= (0.98 * r) ** 2

    # flood fill from the cells nearest the origin
    seen = np.zeros_like(mask, dtype=bool)
    queue = deque()
    c0 = grid // 2
    for di in (0, 1):
        for dj in (0, 1):
            queue.append((c0 + di, c0 + dj))
    while queue:
        i, j = queue.popleft()
        if not (0 <= i < grid and 0 <= j < grid) or seen[i, j]:
            continue
        seen[i, j] = True
        if not mask[i, j]:
            continue
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                queue.append((i + di, j + dj))
    # a strong zero outside the origin's component signals a separate critical point
    strong = (mag < 1e-9 * scale) & inside
    stray = strong & ~seen
    stray[c0 - 1 : c0 + 2, c0 - 1 : c0 + 2] = False
    return not bool(stray.any())


def _check_lambda(lam: float) -> None:
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if lam > MAX_FEASIBLE_LAMBDA:
        raise ValueError(f"lambda={lam} beyond the feasible range {MAX_FEASIBLE_LAMBDA}")


def _sweep_edges(
    phi: BivariatePolynomial, amp: AmplitudeSpec, lams: Sequence[float], s_max: Tuple[float, float], n: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Edges under the width cap 2R/n for every lambda, then the support check.

    The strip bounds are taken once and scaled per lambda.  Every lambda is
    checked against the feasible range and the node budget before any node
    grid is built, so an infeasible sweep fails at once.
    """
    strips = _strip_bounds(phi, amp, s_max)
    edges = [_panels_for(strips, amp, lam, n) for lam in lams]
    if not check_amplitude_support(phi, amp):
        raise ValueError("phase has critical points separated from the origin inside the support")
    return edges


def _order_check(check: np.ndarray, value: np.ndarray, amp: AmplitudeSpec, what: str) -> float:
    """The largest |value - check| / |value| over the values with |value|
    above 1e-9 of the amplitude's mass (0 when there are none), where
    ``value`` and ``check`` are the rule's two orders on the same panels.

    Raises QuadratureNotConverged when it exceeds REL_TOL.
    """
    big = np.abs(value) > 1e-9 * amplitude_mass(amp)
    if not big.any():
        return 0.0
    rel = float((np.abs(value - check)[big] / np.abs(value)[big]).max())
    if rel > REL_TOL:
        raise QuadratureNotConverged(
            f"order {_RULE.check} is off order {_RULE.order} on {what} by {rel:.2e} (> {REL_TOL})"
        )
    return rel


def _lambda_step(
    phase: _Phase,
    amp: AmplitudeSpec,
    lam: float,
    grids: Sequence[Tuple[np.ndarray, np.ndarray]],
    edges: Tuple[np.ndarray, np.ndarray],
    what: str,
    validate: bool = True,
) -> Tuple[List[np.ndarray], Optional[float]]:
    """I(lambda, s) on every offset grid (``_osc_grids``) at the rule's
    order on ``edges`` and, with ``validate``, the first grid's
    ``_order_check`` on ``what`` (else None).  Both sweeps take the split
    ``phase`` and one global phase."""
    turn = _global_phase(phase.constant, lam)
    mats = _osc_grids(phase, amp, lam, grids, edges, _RULE.order, turn)
    if not validate:
        return mats, None
    check = _osc_grids(phase, amp, lam, grids[:1], edges, _RULE.check, turn)[0]
    return mats, _order_check(check, mats[0], amp, what)


def eval_oscillatory(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lam: float,
    s: Tuple[float, float] = (0.0, 0.0),
) -> complex:
    """Quadrature value of I(lambda, s) under the rule's order 24, checked
    against its order 20 on the same panels.

    Its value is the one ``fit_decay`` gives at the same lambda and offset,
    bit for bit.  It runs no support check (``check_amplitude_support``): a
    critical point away from the origin is integrated like any other.
    """
    point = [(np.array([s[0]]), np.array([s[1]]))]
    edges = _panels_for(_strip_bounds(phi, amp, s), amp, lam, _min_panels(amp, point))
    (value,), _ = _lambda_step(_split_phase(phi), amp, lam, point, edges, f"I(lambda={lam}, s={s})")
    return value[0, 0]


def dyadic_grid(lmin: float, lmax: float) -> Tuple[float, ...]:
    """lmin times the powers of two, up to lmax inclusive (within a relative
    1e-12): dyadic_grid(64, 4096) is 64, 128, ..., 4096, and
    dyadic_grid(100, 1000) is 100, 200, 400, 800."""
    if not (math.isfinite(lmin) and math.isfinite(lmax)):
        raise ValueError(f"lambda bounds must be finite, got [{lmin}, {lmax}]")
    if not 0 < lmin <= lmax:
        raise ValueError(f"lambda grid needs 0 < lmin <= lmax, got [{lmin}, {lmax}]")
    out = []
    lam = float(lmin)
    while lam <= lmax * (1 + 1e-12):
        out.append(lam)
        lam *= 2.0
    return tuple(out)


def fit_decay_from_samples(
    lams: Sequence[float],
    values: Sequence[complex],
    errors: Sequence[float],
    with_log: bool = False,
) -> DecayFit:
    """Least-squares decay exponent from precomputed I(lambda, s) samples.

    Raises ValueError for ``lams``, ``values`` and ``errors`` of unequal
    lengths, fewer than three samples, a lambda that is not positive and
    finite or that repeats, and a value that is not finite.
    """
    if not len(lams) == len(values) == len(errors):
        raise ValueError(f"unequal sample lengths: {len(lams)} lambdas, {len(values)} values, {len(errors)} errors")
    if len(lams) < 3:
        raise ValueError("need at least three lambda samples for a decay fit")
    for lam in lams:
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"lambda samples must be positive and finite, got {lam}")
    if len(set(lams)) < len(lams):
        raise ValueError(f"lambda samples must be distinct, got {tuple(lams)}")
    for value in values:
        if not cmath.isfinite(value):
            raise ValueError(f"I(lambda, s) samples must be finite, got {value}")
    mags = [abs(v) for v in values]
    if min(mags) <= 0.0:
        raise QuadratureNotConverged("an |I| value underflowed; decay fit is degenerate")
    logl = np.log(np.asarray(lams, dtype=float))
    logm = np.log(np.asarray(mags, dtype=float))
    cols = [np.ones_like(logl), -logl]
    if with_log:
        cols.append(np.log(logl))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, logm, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((fitted - logm) ** 2)))
    return DecayFit(
        lambdas=tuple(float(v) for v in lams),
        values=tuple(complex(v) for v in values),
        gamma_hat=float(coef[1]),
        log_correction=bool(with_log),
        residual=residual,
        quadrature_error_bound=tuple(float(e) for e in errors),
    )


def fit_decay(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    s: Tuple[float, float] = (0.0, 0.0),
    with_log: bool = False,
) -> DecayFit:
    """Least-squares decay exponent of |I(lambda, s)| over a lambda grid.

    Fits log|I| against log(lambda) (optionally with a log log lambda
    regressor) and reports gamma_hat with the RMS fit residual and the
    per-point quadrature error estimates.  A repeated lambda is swept once.
    Every lambda is planned before any quadrature runs; a grid of fewer than
    three distinct lambdas then raises ValueError.  The support check
    (``check_amplitude_support``) covers ``phi``, not phi + s.x: an offset
    that puts a critical point of phi + s.x inside the disc is not refused.
    A lambda whose order check fails is left out of the fit and recorded in
    ``skipped``; fewer than three converged lambdas raise
    QuadratureNotConverged.
    """
    lams = sorted({float(v) for v in lambda_grid})
    point = [(np.array([s[0]]), np.array([s[1]]))]
    plan = _sweep_edges(phi, amp, lams, s, _min_panels(amp, point))
    if len(lams) < 3:
        raise ValueError(f"a decay fit needs at least three lambda points, got {len(lams)} distinct")
    phase = _split_phase(phi)
    samples, skipped = [], []
    for lam, edges in zip(lams, plan):
        try:
            (value,), err = _lambda_step(phase, amp, lam, point, edges, f"I(lambda={lam}, s={s})")
            samples.append((lam, value[0, 0], err))
        except QuadratureNotConverged as exc:
            skipped.append((lam, str(exc)))
    if len(samples) < 3:
        raise QuadratureNotConverged("fewer than three lambda points converged")
    fit = fit_decay_from_samples(*zip(*samples), with_log=with_log)
    return replace(fit, skipped=tuple(skipped))


# -- maximal-function scans -----------------------------------------------------


def _require_d_type(phi: BivariatePolynomial, m: int) -> None:
    kind = classify_singularity(phi)
    if kind.tag != D_TYPE or kind.m != m:
        raise UnsupportedKindError(
            f"phase classifies as {kind.tag} with m={kind.m}, not a D type with m={m}"
        )
    n = kind.n
    if n != INFINITE_ORDER and n <= 2 * m + 1:
        raise UnsupportedKindError(f"maximal-function scaling needs 2m+1 < n, got n={n}")


def randol_weight(m: int) -> float:
    return 0.5 + 1.0 / (m + 1)


def cell_centered_grid(half_width: float, cells: int) -> np.ndarray:
    """Cell centers of a uniform subdivision of [-w, w] into ``cells`` cells,
    mirrored exactly about 0 (so ``_offsets`` pairs every s with -s)."""
    step = 2.0 * half_width / cells
    centers = -half_width + step * (np.arange(cells) + 0.5)
    return (centers - centers[::-1]) / 2.0


def randol_lq_scan(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    m: int,
    q_list: Sequence[float],
    cells: int = DEFAULT_SCAN_CELLS,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    validate: bool = True,
) -> RandolScan:
    """Empirical L^q Riemann sums of the maximal function at two grid refinements.

    The offsets fill the square of half-width DEFAULT_SCAN_HALF_WIDTH on a
    coarse grid of ``cells`` cells per axis and a fine grid of twice as
    many; an odd ``cells`` is rounded up to the next even count, so that no
    sample point lies on the axis caustic (``cells=7`` samples 8 x 8 coarse
    points).  A bounded coarse-to-fine ratio is the integrability signal; a
    growing one flags divergence.  The two cell-centered offset grids share
    every integrand sweep at the rule's order 24, which gives the reported
    values; with ``validate`` the coarse grid is also swept at order 20 on
    the same panels, and its largest relative difference from the reported
    matrix must stay within REL_TOL (it changes no reported value).  These
    are the decay values' orders and convention, on panels up to twice as
    wide for a bump of order 4 or more (``_min_panels``).  A repeated lambda
    is swept once.

    ``M`` at an offset s is the largest lambda^w |I(lambda, s)|, with
    w = ``randol_weight(m)``, over the lambda swept, in ascending order.  The
    sweep stops once it has covered _QUIET_OCTAVES octaves of lambda above the
    last lambda that raised any coarse or fine point; ``RandolScan.lambdas``
    says where.  On the default grid that is two swept lambda in a row that
    raise no point.  The stop reads only the reported values, so ``validate``
    does not move it.  Every lambda of the grid is still planned, against the
    feasible range and the node budget, before any node is built: a grid that
    is refused is refused whole, even past where the sweep would stop.

    A ``cells`` that is not an ``int`` (or is a ``bool``), a ``q`` that is
    not positive and finite, an empty ``q_list`` or an empty ``lambda_grid``
    raises ValueError, and a fine grid of more than MAX_SCAN_POINTS offsets
    BudgetExceeded, before anything is built.
    """
    if type(cells) is not int or cells < 1:
        raise ValueError(f"scans need integer cells >= 1, got cells={cells!r}")
    if not q_list:
        raise ValueError("a scan needs at least one L^q exponent")
    for q in q_list:
        if not (math.isfinite(q) and q > 0):
            raise ValueError(f"L^q exponents must be positive and finite, got {q}")
    lams = sorted({float(v) for v in lambda_grid})
    if not lams:
        raise ValueError("a scan needs at least one lambda")
    cells += cells % 2  # keep sample points off the axis caustic
    if (2 * cells) ** 2 > MAX_SCAN_POINTS:
        raise BudgetExceeded(
            f"a scan of {cells} cells refined 2 times has {(2 * cells) ** 2} offset points,"
            f" more than the budget of {MAX_SCAN_POINTS}"
        )
    _require_d_type(phi, m)
    half_width = DEFAULT_SCAN_HALF_WIDTH
    offsets = [cell_centered_grid(half_width, n) for n in (cells, 2 * cells)]
    grids = [(g, g) for g in offsets]
    plan = _sweep_edges(phi, amp, lams, (half_width, half_width), _min_panels(amp, grids))
    w = randol_weight(m)
    peaks = [np.zeros((g.size, g.size)) for g in offsets]
    swept: List[float] = []
    last_raise = lams[0]
    phase = _split_phase(phi)
    for lam, edges in zip(lams, plan):
        mats, _ = _lambda_step(phase, amp, lam, grids, edges, f"the scan at lambda={lam}", validate)
        swept.append(lam)
        for peak, mat in zip(peaks, mats):
            value = lam**w * np.abs(mat)
            if (value > peak).any():
                last_raise = lam
            np.maximum(peak, value, out=peak)
        if lam >= 2.0**_QUIET_OCTAVES * last_raise:
            break

    report: Dict[float, Tuple[float, float, float]] = {}
    for q in q_list:
        s_c = float(np.sum(peaks[0] ** q) * (2.0 * half_width / cells) ** 2)
        s_f = float(np.sum(peaks[1] ** q) * (half_width / cells) ** 2)
        report[float(q)] = (s_c, s_f, s_f / s_c if s_c > 0 else math.inf)

    points = tuple((float(a), float(b)) for a in offsets[0] for b in offsets[0])
    return RandolScan(
        m=m,
        lambdas=tuple(swept),
        s_grid=points,
        M_values=tuple(float(v) for v in peaks[0].ravel()),
        q_report=report,
    )


# -- CSV emission ----------------------------------------------------------------


def write_fit_csv(path: str, fit: DecayFit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda,re_I,im_I,abs_I,quad_err\n")
        for lam, val, err in zip(fit.lambdas, fit.values, fit.quadrature_error_bound):
            fh.write(
                f"{lam:.10g},{val.real:.12g},{val.imag:.12g},{abs(val):.12g},{err:.3g}\n"
            )


def write_scan_csv(path: str, scan: RandolScan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s1,s2,M_value\n")
        for (s1, s2), value in zip(scan.s_grid, scan.M_values):
            fh.write(f"{s1:.10g},{s2:.10g},{value:.12g}\n")
