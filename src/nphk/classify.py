"""Normal-form classification of rank-zero and square-degenerate critical points.

Given a phase with a critical point at the origin, this module decides which
low-height class it falls in and extracts the discrete data the exponent
formulas need:

* D4: nonzero cubic part with a simple real factor direction only.
* D(m, n): a squared branch x2 = psi(x1) of order m with remainder of order n
  along the branch (n may be infinite when the remainder vanishes
  identically).  Covers both the rank-zero cubic case (double real factor in
  the cubic part) and phases whose quadratic part is a perfect square.
* E6 / E7 / E8 / CaseBIV: triple real factor in the cubic part, split by the
  orders (k0, k1) of the pure and y-linear remainders after straightening the
  cubic branch.
* CaseC: quadratic and cubic parts vanish, quartic part with no real factor
  of multiplicity above two.
* Marker kinds for everything out of range (positive Hessian rank without a
  usable branch, or height above two).

Heights attached to each class are exact rationals: D(m, n) has
h = 2n/(n+1) and linear height min(h, (2m+1)/(m+1)); E6, E7, E8 carry 12/7,
9/5, 15/8; D4 carries 3/2; CaseBIV and CaseC carry 2.  The coordinate system
is linearly adapted exactly when the two heights agree (for D types:
2m+1 >= n).

Real linear factors of the cubic and quartic parts are read off the
dehomogenized form with the exact ``UnivariatePolynomial`` algebra of
``polyring``: Yun's square-free decomposition gives the repeated (hence
rational) factors, and a Sturm count decides whether a factor has a real
root.  All solves run on exact rational jets; the working truncation
defaults to 2*deg + 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .newton import build_polygon, taylor_support
from .polyring import (
    INFINITE_ORDER,
    BivariatePolynomial,
    LinearMap2,
    UnivariatePolynomial,
    apply_linear,
    apply_shear,
    series_divide,
    substitute_y,
)

OrderValue = Union[int, float]  # int, or INFINITE_ORDER


class NormalizationFailed(ValueError):
    """No linear change of variables produces the required cubic/quadratic shape."""


class TruncationTooSmall(ValueError):
    """The working truncation did not resolve a branch order."""


class UnsupportedKindError(ValueError):
    """An exponent/height query was made for an out-of-range class."""


# kind tags
D4 = "D4"
D_TYPE = "D"
E6 = "E6"
E7 = "E7"
E8 = "E8"
CASE_BIV = "CaseBIV"
CASE_C = "CaseC"
NONDEGENERATE_OR_RANK_POSITIVE = "NondegenerateOrRankPositive"
UNSUPPORTED_HEIGHT_ABOVE_2 = "UnsupportedHeightAbove2"

_SUPPORTED = {D4, D_TYPE, E6, E7, E8, CASE_BIV, CASE_C}


@dataclass(frozen=True)
class SingularityKind:
    """Tagged classification outcome with its discrete parameters.

    D types carry (m, n); E types and CaseBIV carry the remainder orders
    (k0, k1).  Infinite orders use the INFINITE_ORDER sentinel.
    """

    tag: str
    m: Optional[OrderValue] = None
    n: Optional[OrderValue] = None
    k0: Optional[OrderValue] = None
    k1: Optional[OrderValue] = None

    @property
    def is_supported(self) -> bool:
        return self.tag in _SUPPORTED

    def label(self) -> str:
        if self.tag == D_TYPE:
            if self.n == INFINITE_ORDER:
                return "Dinf"
            return f"D{self.n + 1}"
        return self.tag

    @staticmethod
    def d_type(m: OrderValue, n: OrderValue) -> "SingularityKind":
        return SingularityKind(D_TYPE, m=m, n=n)

    @staticmethod
    def d4() -> "SingularityKind":
        return SingularityKind(D4)

    @staticmethod
    def marker(tag: str) -> "SingularityKind":
        return SingularityKind(tag)


@dataclass(frozen=True)
class DNormalForm:
    """Branch data of a squared-branch phase.

    psi is the jet of the branch x2 = psi(x1) (order m, leading coefficient
    omega0), b0 the jet of the phase restricted to the branch (order n,
    leading coefficient beta0).  normal_map is the linear change that was
    applied before solving.
    """

    m: OrderValue
    omega0: Optional[Fraction]
    n: OrderValue
    beta0: Optional[Fraction]
    psi: UnivariatePolynomial
    b0: UnivariatePolynomial
    normal_map: LinearMap2


@dataclass(frozen=True)
class HeightReport:
    h: Fraction
    h_lin: Fraction
    multiplicity: int
    linearly_adapted: bool


# -- real linear factors of binary forms --------------------------------------


def _hom_profile(hom: BivariatePolynomial) -> Tuple[int, int, UnivariatePolynomial]:
    """Multiplicities of the axis factors, and the dehomogenized core.

    Writes hom = x^(d-jmax) * y^jmin * core(x, y) and returns the core as the
    univariate polynomial u(s) = core(1, s).
    """
    by_y = {b: c for (_, b), c in hom.terms.items()}
    jmin = min(by_y)
    jmax = max(by_y)
    u = UnivariatePolynomial({j - jmin: c for j, c in by_y.items()})
    return hom.total_degree() - jmax, jmin, u


def circle_vanishing_order(hom: BivariatePolynomial) -> int:
    """Largest multiplicity of a real linear factor of a homogeneous polynomial.

    Returns 0 when no real line divides it.  Multiple factors are rational and
    come out of the squarefree decomposition; the existence of simple real
    factors is decided by a Sturm count.
    """
    if hom.is_zero():
        raise ValueError("vanishing order of the zero polynomial is undefined")
    degrees = {a + b for (a, b) in hom.terms}
    if len(degrees) != 1:
        raise ValueError("input is not homogeneous")
    x_mult, y_mult, u = _hom_profile(hom)
    best = max(x_mult, y_mult)
    for factor, mult in u.squarefree_decomposition():
        if mult > best and factor.real_root_count() > 0:
            best = mult
    return best


def _repeated_linear_factor(hom: BivariatePolynomial, mult: int) -> Tuple[Fraction, Fraction]:
    """The real linear factor a*x + b*y of the given multiplicity (it is rational)."""
    x_mult, y_mult, u = _hom_profile(hom)
    if y_mult == mult:
        return (Fraction(0), Fraction(1))
    if x_mult == mult:
        return (Fraction(1), Fraction(0))
    for factor, k in u.squarefree_decomposition():
        if k == mult and factor.degree() == 1:
            # the monic factor s - r of u(s) is the line y - r*x
            return (factor.coefficient(0), Fraction(1))
    raise NormalizationFailed(
        f"no rational linear factor of multiplicity {mult} in {hom.to_string()}"
    )


def _normalizing_map(direction: Tuple[Fraction, Fraction]) -> LinearMap2:
    """Linear map sending the line form a*x + b*y to the pure coordinate y."""
    a, b = direction
    if b != 0:
        return LinearMap2(1, 0, -a / b, Fraction(1) / b)
    return LinearMap2(0, Fraction(1) / a, 1, 0)


# -- branch solve on jets -------------------------------------------------------


def _branch_solve(f: BivariatePolynomial, trunc: int) -> UnivariatePolynomial:
    """The power-series branch psi with f(x, psi(x)) = 0, psi = O(x^2).

    Newton iteration on jets; the y-derivative of f along the branch may
    vanish to order one (degenerate pivot, s = 1), which slows the doubling
    by one order per step but stays exact.

    Each step works at the precision it needs (Brent and Kung, J. ACM 25,
    1978).  A step that starts with ``known`` correct orders truncates f and
    psi to total degree w = min(trunc, 2*known + 1) before it substitutes:
    a term x^a y^b with a + b > w only reaches x^(w+1) and beyond, because
    psi = O(x^2).  The pivot f_y(x, psi) enters the correction only through
    about w - known orders, so it is substituted at max(2, w - known), which
    still reads a pivot order of 0, 1 or more correctly.  The correction is
    rebuilt at ``trunc`` so that psi keeps its truncation.  A residual that
    vanishes at working precision is confirmed once at full precision, which
    stops a polynomial branch at once; the loop stops only on a full
    residual of order above ``trunc``.

    So psi satisfies the same final check as under full-precision steps, and
    every coefficient that check pins, those through degree T - s with T the
    precision of f(x, psi), is the same.  The coefficients above T - s are
    not pinned by any residual and depend on the path the iteration took;
    the branch orders, leading coefficients and remainder orders the
    classifier reads do not depend on them.
    """
    fy = f.partial(1)
    psi = UnivariatePolynomial.zero(trunc)
    known = 1
    for _ in range(trunc + 2):
        w = min(trunc, 2 * known + 1)
        residual = substitute_y(f.truncate(w), psi.truncate(w))
        if residual.is_zero() and w < trunc:
            residual = substitute_y(f, psi)
        if residual.order() > trunc:
            break
        v = max(2, w - known)
        pivot = substitute_y(fy.truncate(v), psi.truncate(v))
        s = pivot.order()
        if s == INFINITE_ORDER or s > 1:
            raise NormalizationFailed("degenerate branch pivot; no unique tangent branch")
        if residual.order() < known + 1 + s:
            raise NormalizationFailed(
                "no power-series branch through the origin with zero slope"
            )
        correction = series_divide(residual, pivot, w)
        psi = psi - UnivariatePolynomial(correction.coeffs, trunc)
        known = min(trunc, 2 * known + 1 - s)
    else:
        raise TruncationTooSmall("branch solve did not stabilize inside the truncation")
    if psi.coefficient(0) != 0 or psi.coefficient(1) != 0:
        raise NormalizationFailed("branch is not tangent to the x-axis")
    return psi


def default_truncation(p: BivariatePolynomial) -> int:
    deg = p.total_degree()
    if deg == -math.inf:
        deg = 2
    return 2 * int(deg) + 16


def rank_at_origin(p: BivariatePolynomial) -> int:
    """Rank of the Hessian at the origin, read off the quadratic part."""
    q = p.homogeneous_part(2)
    a = q.coefficient(2, 0)
    b = q.coefficient(1, 1)
    c = q.coefficient(0, 2)
    if a == 0 and b == 0 and c == 0:
        return 0
    if 4 * a * c - b * b != 0:
        return 2
    return 1


def _square_direction(q: BivariatePolynomial) -> Tuple[Fraction, Fraction]:
    """For a rank-one quadratic q = c*(a*x + b*y)^2, the squared line form."""
    a = q.coefficient(2, 0)
    b = q.coefficient(1, 1)
    if a != 0:
        return (Fraction(1), b / (2 * a))
    # rank one with no x^2 term forces q = c*y^2
    return (Fraction(0), Fraction(1))


def _resolve_order(jet: UnivariatePolynomial, exact_input: bool, what: str) -> OrderValue:
    order = jet.order()
    if order == INFINITE_ORDER and not exact_input:
        raise TruncationTooSmall(f"{what} unresolved >= trunc on a truncated input")
    return order


def _straightening_shear(pn: BivariatePolynomial) -> Optional[LinearMap2]:
    """The shear x -> x + gamma*y making the branch of a rank-one phase a line.

    The branch in the frame of the shear N_gamma is identically zero exactly
    when (d2 p + gamma d1 p)(x, 0) vanishes as a polynomial, which pins a
    single rational candidate gamma.  Returns None when no shear works.
    """
    u = pn.partial(1).y_slice(0)
    v = pn.partial(0).y_slice(0)
    if u.is_zero():
        return LinearMap2.identity()
    if v.is_zero():
        return None
    d = v.order()
    if u.order() != d:
        return None
    gamma = -u.coefficient(d) / v.coefficient(d)
    if (u + gamma * v).is_zero():
        return LinearMap2(1, gamma, 0, 1)
    return None


def _solve_branch_data(pn: BivariatePolynomial, trunc: int):
    """Branch and restricted remainder of a normalized phase, as jets."""
    psi = _branch_solve(pn.truncate(trunc).partial(1), trunc)
    b0 = substitute_y(pn.truncate(trunc), psi)
    return psi, b0


def d_normal_form(p: BivariatePolynomial, trunc: Optional[int] = None) -> DNormalForm:
    """Extract the squared-branch data (m, omega0, n, beta0, psi, b0) of a phase.

    Applies the normalizing linear change internally.  For rank zero the cubic
    part must have a real factor of multiplicity exactly two; that direction
    goes to the y-axis and a further shear removes the leftover y^3 component,
    after which the frame is rigid up to scalings and the branch orders are
    linear-invariant.  For a rank-one quadratic part the squared direction
    goes to the y-axis; the residual shear freedom x -> x + gamma*y is then
    resolved canonically: a frame that straightens the branch entirely is
    preferred (the flat-branch case), otherwise the frame with the generic
    (minimal) branch order is adopted.  psi solves d/dy p(x, psi(x)) = 0 with
    psi = O(x^2), and b0(x) = p(x, psi(x)).
    """
    taylor_support(p)  # rejects non-critical phases
    if trunc is None:
        trunc = default_truncation(p)
    deg = p.total_degree()
    if deg != -math.inf and trunc < deg:
        raise TruncationTooSmall(f"trunc={trunc} below the input degree {deg}")

    rank = rank_at_origin(p)
    if rank == 2:
        raise NormalizationFailed("Hessian has full rank; no squared branch")
    if rank == 1:
        direction = _square_direction(p.homogeneous_part(2))
    else:
        p3 = p.homogeneous_part(3)
        if p3.is_zero() or circle_vanishing_order(p3) != 2:
            raise NormalizationFailed(
                "cubic part has no real factor of multiplicity exactly two"
            )
        direction = _repeated_linear_factor(p3, 2)

    nmap = _normalizing_map(direction)
    pn = apply_linear(p, nmap)

    if rank == 0:
        # after the factor normalization the cubic part reads y^2*(alpha*x + beta*y);
        # the shear x -> x - (beta/alpha) y removes the y^3 component, which is
        # what makes the extracted branch orders linear-invariant
        p3n = pn.homogeneous_part(3)
        alpha = p3n.coefficient(1, 2)
        if p3n.coefficient(3, 0) != 0 or p3n.coefficient(2, 1) != 0 or alpha == 0:
            raise NormalizationFailed("cubic part did not normalize to the squared shape")
        beta = p3n.coefficient(0, 3)
        if beta != 0:
            nmap = nmap @ LinearMap2(1, -beta / alpha, 0, 1)
            pn = apply_linear(p, nmap)
    else:
        straight = _straightening_shear(pn)
        if straight is not None:
            nmap = nmap @ straight
            pn = apply_linear(p, nmap)

    psi, b0 = _solve_branch_data(pn, trunc)
    m = _resolve_order(psi, p.is_exact, "m")
    n = _resolve_order(b0, p.is_exact, "n")

    if rank == 1 and m != INFINITE_ORDER and n != INFINITE_ORDER and m > n - 1:
        # the constructed frame is the special one; generic shears see a
        # branch of order n-1, and at most one gamma can cancel it
        for gamma in (1, -1):
            cmap = nmap @ LinearMap2(1, gamma, 0, 1)
            cpsi, cb0 = _solve_branch_data(apply_linear(p, cmap), trunc)
            cm = _resolve_order(cpsi, p.is_exact, "m")
            if cm != INFINITE_ORDER and cm < m:
                nmap, pn, psi, b0 = cmap, apply_linear(p, cmap), cpsi, cb0
                m = cm
                n = _resolve_order(cb0, p.is_exact, "n")

    if m != INFINITE_ORDER and m > trunc - 2:
        raise TruncationTooSmall(f"m={m} too close to trunc={trunc}")

    omega0 = psi.coefficient(m) if m != INFINITE_ORDER else None
    beta0 = b0.coefficient(n) if n != INFINITE_ORDER else None
    return DNormalForm(m=m, omega0=omega0, n=n, beta0=beta0, psi=psi, b0=b0, normal_map=nmap)


def _cubic_branch_orders(
    p: BivariatePolynomial, trunc: int
) -> Tuple[OrderValue, OrderValue, UnivariatePolynomial, LinearMap2]:
    """Straighten the triple cubic direction and read off the remainder orders.

    After the shear along the branch of d2/dy2 p = 0 the phase has no y^2
    slice; k0 and k1 are the orders of the pure-x and y-linear slices.
    """
    p3 = p.homogeneous_part(3)
    direction = _repeated_linear_factor(p3, 3)
    nmap = _normalizing_map(direction)
    pn = apply_linear(p, nmap)
    p3n = pn.homogeneous_part(3)
    if (
        p3n.coefficient(0, 3) == 0
        or p3n.coefficient(1, 2) != 0
        or p3n.coefficient(2, 1) != 0
        or p3n.coefficient(3, 0) != 0
    ):
        raise NormalizationFailed("cubic part did not normalize to a pure y^3")

    psi = _branch_solve(pn.truncate(trunc).partial(1).partial(1), trunc)
    sheared = apply_shear(pn.truncate(trunc), psi)
    if not sheared.y_slice(2).is_zero():
        raise NormalizationFailed("cubic branch shear left a y^2 slice")

    k0 = _resolve_order(sheared.y_slice(0), p.is_exact, "k0")
    k1 = _resolve_order(sheared.y_slice(1), p.is_exact, "k1")
    return k0, k1, psi, nmap


def classify_singularity(
    p: BivariatePolynomial, trunc: Optional[int] = None
) -> SingularityKind:
    """Classify the critical point of p at the origin.

    Dispatch: a full-rank Hessian, or a rank-one phase whose branch is flat,
    is out of range (marker kind).  A rank-one phase with a genuine curved
    branch, or a rank-zero phase whose cubic part has a double real factor,
    is D(m, n).  A simple-factor cubic part is D4.  A triple-factor cubic
    part leads to the E/CaseBIV split on (k0, k1), and a vanishing cubic part
    to CaseC when the quartic part has no factor of multiplicity above two.
    """
    taylor_support(p)
    if trunc is None:
        trunc = default_truncation(p)

    rank = rank_at_origin(p)
    if rank == 2:
        return SingularityKind.marker(NONDEGENERATE_OR_RANK_POSITIVE)
    if rank == 1:
        nf = d_normal_form(p, trunc)
        if nf.m == INFINITE_ORDER:
            return SingularityKind.marker(NONDEGENERATE_OR_RANK_POSITIVE)
        return SingularityKind.d_type(nf.m, nf.n)

    p3 = p.homogeneous_part(3)
    if not p3.is_zero():
        vanishing = circle_vanishing_order(p3)
        if vanishing == 1:
            return SingularityKind.d4()
        if vanishing == 2:
            nf = d_normal_form(p, trunc)
            return SingularityKind.d_type(nf.m, nf.n)
        k0, k1, _, _ = _cubic_branch_orders(p, trunc)
        if k0 == 4:
            return SingularityKind(E6, k0=k0, k1=k1)
        if k1 == 3:
            return SingularityKind(E7, k0=k0, k1=k1)
        if k0 == 5:
            return SingularityKind(E8, k0=k0, k1=k1)
        if (k0 == 6 and k1 >= 4) or (k1 == 4 and k0 >= 6):
            return SingularityKind(CASE_BIV, k0=k0, k1=k1)
        return SingularityKind.marker(UNSUPPORTED_HEIGHT_ABOVE_2)

    p4 = p.homogeneous_part(4)
    if not p4.is_zero() and circle_vanishing_order(p4) <= 2:
        return SingularityKind.marker(CASE_C)
    return SingularityKind.marker(UNSUPPORTED_HEIGHT_ABOVE_2)


# -- heights -----------------------------------------------------------------


def _d_height(n: OrderValue) -> Fraction:
    if n == INFINITE_ORDER:
        return Fraction(2)
    return Fraction(2 * n, n + 1)


def _d_linear_height(m: OrderValue, n: OrderValue) -> Fraction:
    lin = Fraction(2) if m == INFINITE_ORDER else Fraction(2 * m + 1, m + 1)
    return min(_d_height(n), lin)


def height(kind: SingularityKind) -> Fraction:
    """Exact height of a supported class."""
    if kind.tag == D4:
        return Fraction(3, 2)
    if kind.tag == D_TYPE:
        return _d_height(kind.n)
    if kind.tag == E6:
        return Fraction(12, 7)
    if kind.tag == E7:
        return Fraction(9, 5)
    if kind.tag == E8:
        return Fraction(15, 8)
    if kind.tag in (CASE_BIV, CASE_C):
        return Fraction(2)
    raise UnsupportedKindError(f"no height for kind {kind.tag}")


def linear_height(kind: SingularityKind) -> Fraction:
    """Exact linear height; equals the height exactly for linearly adapted classes."""
    if kind.tag == D_TYPE:
        return _d_linear_height(kind.m, kind.n)
    return height(kind)


def adapted_polynomial(
    p: BivariatePolynomial,
    trunc: Optional[int] = None,
    kind: Optional[SingularityKind] = None,
) -> BivariatePolynomial:
    """The coordinate image of p the classifier builds on its way to the kind.

    D types: normalized and sheared along the squared branch.  D4 and CaseC:
    the input itself.  E/CaseBIV: normalized and sheared along the cubic
    branch.  Marker kinds raise.  A caller that already holds the kind of p
    at this truncation passes it to skip the classification.
    """
    if trunc is None:
        trunc = default_truncation(p)
    if kind is None:
        kind = classify_singularity(p, trunc)
    if not kind.is_supported:
        raise UnsupportedKindError(f"no adapted form for kind {kind.tag}")
    if kind.tag in (D4, CASE_C):
        return p
    if kind.tag == D_TYPE:
        nf = d_normal_form(p, trunc)
        return apply_shear(apply_linear(p, nf.normal_map).truncate(trunc), nf.psi)
    _, _, psi, nmap = _cubic_branch_orders(p, trunc)
    return apply_shear(apply_linear(p, nmap).truncate(trunc), psi)


def multiplicity_mfrak(
    p: BivariatePolynomial, kind: Optional[SingularityKind] = None
) -> int:
    """1 when the classifier's adapted polygon has a vertex principal face at (h, h).

    Heights off the lattice can never sit at a vertex, so everything except
    the h = 2 classes short-circuits to 0.
    """
    if kind is None:
        kind = classify_singularity(p)
    h = height(kind)  # raises for unsupported kinds
    if h.denominator != 1:
        return 0
    poly = build_polygon(taylor_support(adapted_polynomial(p, kind=kind)))
    face = poly.principal_face
    return int(face.kind == "vertex" and face.points[0] == (h, h))


def height_report(p: BivariatePolynomial, kind: Optional[SingularityKind] = None) -> HeightReport:
    if kind is None:
        kind = classify_singularity(p)
    h = height(kind)
    h_lin = linear_height(kind)
    return HeightReport(
        h=h,
        h_lin=h_lin,
        multiplicity=multiplicity_mfrak(p, kind),
        linearly_adapted=h == h_lin,
    )
