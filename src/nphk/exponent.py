"""Exact sharp exponents k_p and the boundedness thresholds behind them.

Everything here is linear in u = 1/p - 1/2, so k_p is a piecewise-linear
function of u on [0, 1/2] with rational joints.  One type,
``PiecewiseLinear``, holds every such curve as its canonical joints: x
strictly increasing, collinear joints dropped, so two curves on the same
interval are equal exactly when their joints are.  ``kp_profile`` returns
k_p as an ``ExponentProfile``, the same curve read at a given p.

k_p depends on the class only through two Newton distances, the height h
and the linear height h_lin, with 1 <= h_lin <= h <= 2.  With
r = (2 - h)/((2 - h_lin) h),

    k_p(u) = max((6 - 2/h_lin) u,  (6 - 2r) u + h_lin r/2 - 1/2).

When h_lin = h the profile is the single line (6 - 2/h) u.  Otherwise the
two lines cross at u = h_lin/4, and that is also where the interpolation
envelope through the three boundedness anchors changes segment:

    (1/2, 0),   the Randol anchor at q = 2/(2 - h_lin) with
    gamma = 5/2 - h_lin,   and the endpoint (1, 3 - 1/h)

in 1/p.  ``verify_nla_identity`` checks that the envelope and the profile
agree at every joint of either, which for piecewise-linear functions is
equality.

Remark: a D(m, n) class has h = 2n/(n+1) (2 for infinite n) and
h_lin = min(h, (2m+1)/(m+1)), so h_lin < h exactly when 2m+1 < n.  Put in,
the two lines read (5 - 1/(2m+1)) u and (6 - (2m+2)/n) u + (2m+1)/(2n) - 1/2,
they cross at (2m+1)/(4m+4), and the anchors sit at q = 2m+2 with
gamma = 1/2 + 1/(m+1) and at (1, 5/2 - 1/(2n)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]


def _u_of_p(p: RationalLike) -> Fraction:
    p = Fraction(p)
    if not (1 <= p <= 2):
        raise ValueError(f"p={p} outside [1, 2]")
    return Fraction(1) / p - Fraction(1, 2)


def _distances(h, h_lin, nla: bool = False) -> Tuple[Fraction, Fraction]:
    """(h, h_lin) as Fractions, refused unless exact with 1 <= h_lin <= h <= 2.

    ``nla`` also refuses h_lin == h, where there is no second line.
    """
    for name, value in (("h", h), ("h_lin", h_lin)):
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"{name}={value!r} must be an int or a Fraction")
    h, h_lin = Fraction(h), Fraction(h_lin)
    if not (1 <= h_lin <= h <= 2):
        raise ValueError(f"(h, h_lin) = ({h}, {h_lin}) outside 1 <= h_lin <= h <= 2")
    if nla and h_lin == h:
        raise ValueError(f"h_lin = h = {h}: linearly adapted, there is no second line")
    return h, h_lin


def _lines(h: Fraction, h_lin: Fraction) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """(slope, intercept) pairs of the two competing lines in u, for h_lin < h."""
    r = (2 - h) / ((2 - h_lin) * h)
    return (6 - 2 / h_lin, Fraction(0)), (6 - 2 * r, h_lin * r / 2 - Fraction(1, 2))


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


def kp_profile(h: RationalLike, h_lin: RationalLike) -> ExponentProfile:
    """The full piecewise-linear profile of k_p over u in [0, 1/2]."""
    h, h_lin = _distances(h, h_lin)
    half = Fraction(1, 2)
    if h_lin == h:
        return ExponentProfile(((0, 0), (half, (6 - 2 / h) * half)))
    (s1, c1), (s2, c2) = _lines(h, h_lin)
    u_star = (c1 - c2) / (s2 - s1)  # equals h_lin/4
    return ExponentProfile(((0, c1), (u_star, s1 * u_star + c1), (half, s2 * half + c2)))


def kp_point(h: RationalLike, h_lin: RationalLike, p: RationalLike) -> Fraction:
    """Exact k_p for the distances (h, h_lin) at a rational p in [1, 2]."""
    return kp_profile(h, h_lin).value_at_p(p)


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


def _anchors(h: Fraction, h_lin: Fraction) -> List[BoundednessAnchor]:
    """The three anchors the interpolation uses when h_lin < h."""
    return [
        BoundednessAnchor(Fraction(1, 2), Fraction(0), "trivial-L2"),
        sugimoto_q_threshold(3, Fraction(5, 2) - h_lin, 2 / (2 - h_lin)),
        BoundednessAnchor(Fraction(1), 3 - 1 / h, "Sugi1"),
    ]


def verify_nla_identity(h: RationalLike, h_lin: RationalLike) -> bool:
    """Exact check that the two-line k_p formula is the anchor interpolation envelope.

    For h_lin < h, the envelope through (1/2, 0), the q = 2/(2 - h_lin)
    anchor and (1, 3 - 1/h), shifted to u = 1/p - 1/2, must agree with the
    k_p profile at every joint of either curve, and its one breakpoint must
    sit at the line crossover u = h_lin/4.
    """
    h, h_lin = _distances(h, h_lin, nla=True)
    profile = kp_profile(h, h_lin)
    half = Fraction(1, 2)
    env_in_inv_p = interpolation_envelope(_anchors(h, h_lin))
    env = PiecewiseLinear(tuple((x - half, y) for x, y in env_in_inv_p.points))
    if [x for x, _ in env.points] != [0, h_lin / 4, half]:
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


def knapp_exponent_nla(h: RationalLike, h_lin: RationalLike, p: RationalLike, k: RationalLike) -> Fraction:
    """Growth rate of the branch-concentrated test sequence for h_lin < h.

    It is the second k_p line at u = 1/p - 1/2, less k.
    """
    h, h_lin = _distances(h, h_lin, nla=True)
    _, (slope, intercept) = _lines(h, h_lin)
    return slope * _u_of_p(p) + intercept - Fraction(k)
