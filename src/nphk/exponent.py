"""Exact sharp exponents k_p and the boundedness thresholds behind them.

Everything here is linear in u = 1/p - 1/2, so profiles are piecewise-linear
functions of u on [0, 1/2] with rational slopes and intercepts.  Linearly
adapted classes have the single line (6 - 2/h) u.  D types with 2m+1 < n
(n possibly infinite) take the maximum of two lines,

    (5 - 1/(2m+1)) u      and      (6 - (2m+2)/n) u + (2m+1)/(2n) - 1/2,

which cross at u = (2m+1)/(4m+4) regardless of n; infinite n sets the 1/n
terms to zero exactly.  The same crossover point is where the interpolation
envelope through the three boundedness anchors changes segment, and
``verify_nla_identity`` checks that coincidence in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .classify import (
    D_TYPE,
    SingularityKind,
    UnsupportedKindError,
    height,
    linear_height,
)
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


@dataclass(frozen=True)
class LinearPiece:
    """One affine piece k(u) = slope*u + intercept, active on [u_lo, u_hi]."""

    slope: Fraction
    intercept: Fraction
    u_lo: Fraction
    u_hi: Fraction

    def value(self, u: Fraction) -> Fraction:
        return self.slope * u + self.intercept


@dataclass(frozen=True)
class ExponentProfile:
    """k_p as an exact piecewise-linear, convex function of u = 1/p - 1/2."""

    kind: SingularityKind
    h: Fraction
    h_lin: Fraction
    segments: Tuple[LinearPiece, ...]

    def value_at_u(self, u: Fraction) -> Fraction:
        u = Fraction(u)
        if not (0 <= u <= Fraction(1, 2)):
            raise ValueError(f"u={u} outside [0, 1/2]")
        for seg in self.segments:
            if seg.u_lo <= u <= seg.u_hi:
                return seg.value(u)
        raise RuntimeError("profile segments do not cover [0, 1/2]")

    def value_at_p(self, p: RationalLike) -> Fraction:
        return self.value_at_u(_u_of_p(p))


@dataclass(frozen=True)
class BoundednessAnchor:
    """One interpolation anchor: the operator is bounded for k above ``k`` at 1/p = inv_p."""

    inv_p: Fraction
    k: Fraction
    source: str  # "Sugi1" | "Sugi2" | "trivial-L2"


def kp_point(kind: SingularityKind, p: RationalLike) -> Fraction:
    """Exact k_p for a supported class at a rational p in [1, 2]."""
    u = _u_of_p(p)
    if not kind.is_supported:
        raise UnsupportedKindError(f"k_p undefined for kind {kind.tag}")
    if _is_nla_d(kind):
        (s1, c1), (s2, c2) = _nla_lines(kind.m, kind.n)
        return max(s1 * u + c1, s2 * u + c2)
    h = height(kind)
    return (Fraction(6) - Fraction(2) / h) * u


def kp_profile(kind: SingularityKind) -> ExponentProfile:
    """The full piecewise-linear profile of k_p over u in [0, 1/2]."""
    if not kind.is_supported:
        raise UnsupportedKindError(f"k_p undefined for kind {kind.tag}")
    h = height(kind)
    h_lin = linear_height(kind)
    half = Fraction(1, 2)
    if not _is_nla_d(kind):
        slope = Fraction(6) - Fraction(2) / h
        return ExponentProfile(kind, h, h_lin, (LinearPiece(slope, Fraction(0), Fraction(0), half),))
    (s1, c1), (s2, c2) = _nla_lines(kind.m, kind.n)
    u_star = (c1 - c2) / (s2 - s1)  # equals (2m+1)/(4m+4), independent of n
    return ExponentProfile(
        kind,
        h,
        h_lin,
        (
            LinearPiece(s1, c1, Fraction(0), u_star),
            LinearPiece(s2, c2, u_star, half),
        ),
    )


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


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function through a list of (x, y) joints, x increasing."""

    points: Tuple[Tuple[Fraction, Fraction], ...]

    def value(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        pts = self.points
        if not (pts[0][0] <= x <= pts[-1][0]):
            raise ValueError(f"x={x} outside [{pts[0][0]}, {pts[-1][0]}]")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return pts[-1][1]

    @property
    def segments(self) -> Tuple[Tuple[Fraction, Fraction, Fraction, Fraction], ...]:
        """(slope, intercept, x_lo, x_hi) per piece."""
        out = []
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            slope = (y1 - y0) / (x1 - x0)
            out.append((slope, y0 - slope * x0, x0, x1))
        return tuple(out)


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


def verify_nla_identity(m: int, n, grid: int = 96) -> bool:
    """Exact check that the two-line k_p formula is the anchor interpolation envelope.

    For 2m+1 < n <= infinity, the envelope through (1/2, 0), the
    q = 2m+2 anchor at 1/p = (4m+3)/(4m+4), and (1, 5/2 - 1/(2n)) must agree
    with max of the two k_p lines at every rational grid point of [1/2, 1],
    and the envelope breakpoint must sit exactly at the line crossover.
    """
    if m < 2:
        raise ValueError(f"m={m} below 2")
    if n != INFINITE_ORDER and n <= 2 * m + 1:
        raise ValueError(f"n={n} must exceed 2m+1={2 * m + 1}")
    kind = SingularityKind.d_type(m, n)
    profile = kp_profile(kind)
    env = interpolation_envelope(_nla_anchors(m, n))

    # the breakpoint of the envelope must be the crossover of the two lines
    if len(env.points) != 3:
        return False
    break_inv_p = env.points[1][0]
    u_star = profile.segments[0].u_hi
    if break_inv_p - Fraction(1, 2) != u_star:
        return False

    for j in range(grid + 1):
        inv_p = Fraction(1, 2) + Fraction(j, 2 * grid)
        if env.value(inv_p) != profile.value_at_u(inv_p - Fraction(1, 2)):
            return False
    return True


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
    """Growth rate of the branch-concentrated test sequence for D(m, n), 2m+1 < n."""
    if n != INFINITE_ORDER and n <= 2 * m + 1:
        raise ValueError(f"n={n} must exceed 2m+1={2 * m + 1}")
    u = _u_of_p(p)
    return (
        (Fraction(6) - (2 * m + 2) * _recip(n)) * u
        + Fraction(2 * m + 1, 2) * _recip(n)
        - Fraction(1, 2)
        - Fraction(k)
    )
