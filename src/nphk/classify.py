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
2m+1 >= n).  The multiplicity of a height-two class, read for the kind its
caller passes, follows one rule: it is 1 exactly when the principal form has
a real double line.  That form is the quartic part for CaseC and the
weighted sextic of the cubic frame for CaseBIV, where only (k0, k1) = (6, 4)
can score.

One reader, ``_line_factors``, finds the real lines dividing a binary form
and their multiplicities, with the exact ``UnivariatePolynomial`` algebra of
``polyring``: the axes off the extreme powers of y, then Yun's square-free
decomposition of the dehomogenized form, whose linear factors are rational,
and a Sturm count for a longer factor.  The vanishing order on the circle,
the cubic frame and the multiplicity all read lines through it.  One frame
routine sends the repeated cubic factor of every rank-zero branch path to
the y-axis.  All solves run on exact rational jets.
``classify_singularity`` climbs a doubling ladder: it classifies the jet of
the phase at 16, 32, ... below the cap 2*deg + 16 and keeps the first
answer whose every order is certified for the phase itself, a finite order
by the degree the branch solve's residual pins and an infinite one by a
branch that is an exact polynomial root with the slice vanishing
identically along it, which a degree bound shows once the jet holds every
term of the phase; otherwise the cap decides.  ``d_normal_form`` and
``adapted_polynomial`` make the same one decision and build their jets from
the branch solve it read: the jets end at the degree that solve pins, on the
rung that decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .newton import taylor_support
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
    omega0) through the degree the solve's residual pins, b0 the jet of the
    phase restricted to the branch (order n, leading coefficient beta0).
    normal_map is the linear change that was applied before solving.
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


def _line_factors(form: BivariatePolynomial) -> Dict[int, Optional[Tuple[Fraction, Fraction]]]:
    """Each multiplicity of a real line dividing a nonzero binary form, mapped
    to the rational (a, b) of a line a*x + b*y with it, or to None when only
    irrational lines have that multiplicity.

    The axes come first, off the lowest and highest power of y (y wins a
    tie).  Then come Yun's factors of form(1, s): a degree-1 factor s - r is
    the line y - r*x, and a longer one counts when its Sturm count is positive.
    """
    by_y = {b: c for (_, b), c in form.terms.items()}
    jmin, jmax = min(by_y), max(by_y)
    x_mult = form.total_degree() - jmax
    lines = {x_mult: (Fraction(1), Fraction(0))} if x_mult else {}
    if jmin:
        lines[jmin] = (Fraction(0), Fraction(1))  # y wins a tie
    u = UnivariatePolynomial({j - jmin: c for j, c in by_y.items()})
    for factor, mult in u.squarefree_decomposition():
        if mult in lines:
            continue
        if factor.degree() == 1:
            lines[mult] = (factor.coefficient(0), Fraction(1))
        elif factor.real_root_count() > 0:
            lines[mult] = None
    return lines


def circle_vanishing_order(hom: BivariatePolynomial) -> int:
    """Largest multiplicity of a real linear factor of a homogeneous polynomial.

    Returns 0 when no real line divides it.
    """
    if hom.is_zero():
        raise ValueError("vanishing order of the zero polynomial is undefined")
    degrees = {a + b for (a, b) in hom._nums}
    if len(degrees) != 1:
        raise ValueError("input is not homogeneous")
    return max(_line_factors(hom), default=0)


def _normalizing_map(direction: Tuple[Fraction, Fraction]) -> LinearMap2:
    """Linear map sending the line form a*x + b*y to the pure coordinate y."""
    a, b = direction
    if b != 0:
        return LinearMap2(1, 0, -a / b, Fraction(1) / b)
    return LinearMap2(0, Fraction(1) / a, 1, 0)


# -- branch solve on jets -------------------------------------------------------


def _branch_solve(f: BivariatePolynomial, trunc: int) -> Tuple[UnivariatePolynomial, bool]:
    """The power-series branch psi with f(x, psi(x)) = 0, psi = O(x^2), and
    whether the solve stopped early (below).

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
    rebuilt at ``trunc`` so that psi keeps its truncation.  The residual and
    the pivot enter ``series_divide`` as exact polynomials with their
    coefficients, so it divides through w on purpose: the jets alone pin
    fewer orders, and the final check below decides what psi pins.  A
    residual that vanishes at working precision is confirmed once at full
    precision, which stops a polynomial branch at once (the early stop that
    the returned flag reports); the loop stops only on a full residual of
    order above ``trunc``.

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
        early = residual.is_zero() and w < trunc
        if early:
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
        correction = series_divide(residual._untruncated(), pivot._untruncated(), w)
        psi = psi - correction._untruncated()
        known = min(trunc, 2 * known + 1 - s)
    else:
        raise TruncationTooSmall("branch solve did not stabilize inside the truncation")
    if psi.coefficient(0) != 0 or psi.coefficient(1) != 0:
        raise NormalizationFailed("branch is not tangent to the x-axis")
    return psi, early


def default_truncation(p: BivariatePolynomial) -> int:
    """2*deg + 16: the cap of the truncation ladder (``_ladder``)."""
    deg = p.total_degree()
    if deg == -math.inf:
        deg = 2
    return 2 * int(deg) + 16


def rank_at_origin(p: BivariatePolynomial) -> int:
    """Rank of the Hessian at the origin, read off the quadratic part."""
    # numerators over one positive denominator: 4ac - b^2 keeps its sign
    nums = p._nums
    a = nums.get((2, 0), 0)
    b = nums.get((1, 1), 0)
    c = nums.get((0, 2), 0)
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


def _cubic_lines(p: BivariatePolynomial) -> Dict[int, Optional[Tuple[Fraction, Fraction]]]:
    """``_line_factors`` of the cubic part of p; empty when it vanishes."""
    p3 = p.homogeneous_part(3)
    return {} if p3.is_zero() else _line_factors(p3)


def _cubic_frame(
    p: BivariatePolynomial, mult: int, line: Optional[Tuple[Fraction, Fraction]]
) -> Tuple[LinearMap2, BivariatePolynomial]:
    """Map and image of p in the frame of a rank-zero branch path.

    ``line`` is ``_cubic_lines(p).get(mult)``, which the caller reads once
    per phase: the cubic part is the same on every rung of the truncation
    ladder.  That real factor of the cubic part, of multiplicity mult (2 or
    3), goes to the y-axis, where the cubic part must read
    c*x^(3-mult)*y^mult.  For mult = 2 it reads y^2*(alpha*x + beta*y)
    first; the shear x -> x - (beta/alpha)*y removes the y^3 component, so
    the frame is rigid up to scalings and the branch orders read in it are
    linear-invariant.
    """
    if line is None:
        p3 = p.homogeneous_part(3)
        if p3.is_zero():
            raise NormalizationFailed(f"cubic part has no real factor of multiplicity {mult}")
        raise NormalizationFailed(f"no rational linear factor of multiplicity {mult} in {p3.to_string()}")
    nmap = _normalizing_map(line)
    pn = apply_linear(p, nmap)
    p3n = pn.homogeneous_part(3)
    alpha, beta = p3n.coefficient(1, 2), p3n.coefficient(0, 3)
    if mult == 2 and alpha != 0 and beta != 0:
        nmap = nmap @ LinearMap2(1, -beta / alpha, 0, 1)
        pn = apply_linear(p, nmap)
        p3n = pn.homogeneous_part(3)
    if set(p3n._nums) != {(3 - mult, mult)}:
        shape = BivariatePolynomial.monomial(3 - mult, mult).to_string()
        raise NormalizationFailed(f"cubic part did not normalize to a multiple of {shape}")
    return nmap, pn


@dataclass(frozen=True)
class _Solve:
    """A branch solve d^k/dy^k image(x, psi(x)) = 0 on a jet ``image`` of a phase.

    ``frame`` is the map that made the image, ``k`` the y-derivative that
    gives the branch equation, ``pinned`` the degree T - s through which psi
    is the branch of the untruncated image (T the precision of the residual,
    s the pivot order), and ``early`` whether the solve stopped early, the
    one way psi can be an exact polynomial root.
    """

    psi: UnivariatePolynomial
    image: BivariatePolynomial
    frame: LinearMap2
    k: int
    pinned: int
    early: bool

    def branch(self) -> UnivariatePolynomial:
        """psi through the pinned degree: the branch a caller may rely on."""
        return self.psi.truncate(self.pinned)


def _y_derivative(p: BivariatePolynomial, k: int) -> BivariatePolynomial:
    for _ in range(k):
        p = p.partial(1)
    return p


def _solve(pn: BivariatePolynomial, frame: LinearMap2, k: int, trunc: int) -> _Solve:
    image = pn.truncate(trunc)
    f = _y_derivative(image, k)
    psi, early = _branch_solve(f, trunc)
    pivot_order = 0 if f.coefficient(0, 1) else 1
    return _Solve(psi, image, frame, k, f.trunc - pivot_order, early)


class _Orders:
    """Reads the branch and remainder orders a classification decides on.

    Off the ladder an infinite order of a truncated ``phase`` is unresolved:
    TruncationTooSmall.  On a ``rung`` the classification reads a jet of
    ``phase``, and an order counts only when it holds for the phase itself;
    otherwise TruncationTooSmall sends the ladder up.  A finite order holds
    when it is at most the solve's pinned degree.  An infinite one holds
    when the solve stopped early on an exact polynomial root of the phase's
    branch equation and the slice vanishes identically along it, which a
    degree bound settles once the jet holds every term of the phase.
    """

    def __init__(self, phase: BivariatePolynomial, rung: bool = False):
        self.phase = phase
        self.rung = rung

    def read(self, jet: UnivariatePolynomial, what: str, solve: _Solve, j: Optional[int] = None) -> OrderValue:
        """The order of ``jet``: psi itself (j None) or d^j/dy^j image(x, psi(x))."""
        order = jet.order()
        if not self.rung:
            if order == INFINITE_ORDER and not self.phase.is_exact:
                raise TruncationTooSmall(f"{what} unresolved >= trunc on a truncated input")
            return order
        if order == INFINITE_ORDER:
            holds = solve.early and self._vanishes(solve, j)
        else:
            holds = order <= solve.pinned
        if not holds:
            raise TruncationTooSmall(f"{what} not certified at trunc={solve.psi.trunc}")
        return order

    def _vanishes(self, solve: _Solve, j: Optional[int]) -> bool:
        """Whether psi is an exact root of d^k/dy^k of the phase's image and
        d^j/dy^j of the image vanishes identically along it.

        Both were read as zero through the pinned degree.  When the jet holds
        every term of the phase, d^i/dy^i image(x, psi(x)) is a polynomial of
        degree at most a + deg(psi)*(b - i) over the image's terms x^a y^b,
        so a bound within the pinned degree makes it zero; otherwise the
        ladder goes up.
        """
        if not self.phase.is_exact or self.phase.total_degree() > solve.image.trunc:
            return False
        d = max(solve.psi.degree(), 0)
        return all(
            a + d * (b - i) <= solve.pinned for i in {solve.k, j} - {None} for a, b in solve.image._nums if b >= i
        )


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


def _solve_branch_data(pn: BivariatePolynomial, frame: LinearMap2, trunc: int) -> Tuple[_Solve, UnivariatePolynomial]:
    """Branch and restricted remainder of a normalized phase, as jets."""
    solve = _solve(pn, frame, 1, trunc)
    return solve, substitute_y(solve.image, solve.psi)


def d_normal_form(p: BivariatePolynomial) -> DNormalForm:
    """Extract the squared-branch data (m, omega0, n, beta0, psi, b0) of a phase.

    Applies the normalizing linear change internally.  For rank zero the cubic
    part must have a real factor of multiplicity exactly two, which fixes the
    rigid frame of ``_cubic_frame``.  For a rank-one quadratic part the
    squared direction goes to the y-axis; the residual shear freedom
    x -> x + gamma*y is then resolved canonically: a frame that straightens
    the branch entirely is preferred (the flat-branch case), otherwise the
    frame with the generic (minimal) branch order is adopted.  psi solves d/dy p(x, psi(x)) = 0 with
    psi = O(x^2), and b0(x) = p(x, psi(x)).  Both come from the branch solve
    that decided the kind of p on the truncation ladder, so b0 is a jet at
    that rung and psi ends at the degree the solve pins.  Raises
    NormalizationFailed when the kind was not decided on a squared branch.
    """
    kind, _, solve = _ladder(p)
    if solve is None or solve.k != 1:
        raise NormalizationFailed(f"no squared branch: the phase classifies as {kind.label()}")
    psi = solve.branch()
    b0 = substitute_y(solve.image, solve.psi)
    m, n = psi.order(), b0.order()
    omega0 = psi.coefficient(m) if m != INFINITE_ORDER else None
    beta0 = b0.coefficient(n) if n != INFINITE_ORDER else None
    return DNormalForm(m=m, omega0=omega0, n=n, beta0=beta0, psi=psi, b0=b0, normal_map=solve.frame)


def _d_normal_form(
    p: BivariatePolynomial, rank: int, trunc: int, orders: _Orders, line: Optional[Tuple[Fraction, Fraction]]
) -> Tuple[OrderValue, OrderValue, _Solve]:
    """The orders (m, n) of a squared-branch phase of Hessian ``rank`` zero
    or one, with the branch solve in the adopted frame (see
    ``d_normal_form``).  ``line`` is the cubic part's double line
    (``_cubic_frame``); rank one does not read it."""
    if rank == 0:
        nmap, pn = _cubic_frame(p, 2, line)
    else:
        nmap = _normalizing_map(_square_direction(p.homogeneous_part(2)))
        pn = apply_linear(p, nmap)
        straight = _straightening_shear(pn)
        if straight is not None:
            nmap = nmap @ straight
            pn = apply_linear(p, nmap)

    solve, b0 = _solve_branch_data(pn, nmap, trunc)
    m = orders.read(solve.psi, "m", solve)
    n = orders.read(b0, "n", solve, 0)

    if rank == 1 and m != INFINITE_ORDER and n != INFINITE_ORDER and m > n - 1:
        # the constructed frame is the special one; generic shears see a
        # branch of order n-1, and at most one gamma can cancel it
        for gamma in (1, -1):
            cmap = solve.frame @ LinearMap2(1, gamma, 0, 1)
            csolve, cb0 = _solve_branch_data(apply_linear(p, cmap), cmap, trunc)
            cm = orders.read(csolve.psi, "m", csolve)
            if cm != INFINITE_ORDER and cm < m:
                solve, m, n = csolve, cm, orders.read(cb0, "n", csolve, 0)

    if m != INFINITE_ORDER and m > trunc - 2:
        raise TruncationTooSmall(f"m={m} too close to trunc={trunc}")
    return m, n, solve


def _cubic_branch_orders(
    p: BivariatePolynomial, trunc: int, orders: _Orders, line: Optional[Tuple[Fraction, Fraction]]
) -> Tuple[OrderValue, OrderValue, _Solve]:
    """Send the triple cubic direction ``line`` to the y-axis and read off the remainder orders.

    Along the branch psi of d2/dy2 p = 0, k0 and k1 are the orders of
    p(x, psi(x)) and d/dy p(x, psi(x)): the pure-x and y-linear slices of
    the phase sheared by y -> y + psi(x), whose y^2 slice vanishes.
    Returns them with the branch solve.
    """
    nmap, pn = _cubic_frame(p, 3, line)
    solve = _solve(pn, nmap, 2, trunc)
    k0 = orders.read(substitute_y(solve.image, solve.psi), "k0", solve, 0)
    k1 = orders.read(substitute_y(solve.image.partial(1), solve.psi), "k1", solve, 1)
    return k0, k1, solve


def classify_singularity(p: BivariatePolynomial) -> SingularityKind:
    """Classify the critical point of p at the origin.

    Dispatch: a full-rank Hessian, or a rank-one phase whose branch is flat,
    is out of range (marker kind).  A rank-one phase with a genuine curved
    branch, or a rank-zero phase whose cubic part has a double real factor,
    is D(m, n).  A simple-factor cubic part is D4.  A triple-factor cubic
    part leads to the E/CaseBIV split on (k0, k1), and a vanishing cubic part
    to CaseC when the quartic part has no factor of multiplicity above two.

    The classification climbs the truncation ladder of ``_ladder``: jets of
    p at 16, 32, ... below ``default_truncation(p)`` give the answer as soon
    as every order it reads is certified for p itself, and the cap gives it
    otherwise.
    """
    return _ladder(p)[0]


def _ladder(p: BivariatePolynomial) -> Tuple[SingularityKind, int, Optional[_Solve]]:
    """The kind of p, the truncation that decided it, and the branch solve
    the kind was read from (None when no branch was solved).

    Each rung T = 16, 32, ... below the cap ``default_truncation(p)``
    classifies the jet p.truncate(T) and keeps the answer only when
    ``_Orders`` certifies every order read for p; TruncationTooSmall or
    NormalizationFailed on a rung means "go up".  At the cap p itself is
    classified, and its errors propagate.  Rank-two markers, D4 and CaseC
    read homogeneous parts of degree at most four, so the first rung decides
    them.
    """
    taylor_support(p)  # rejects non-critical phases
    cap = default_truncation(p)
    # every rung's jet has p's cubic part; only rank zero reads its lines
    lines = _cubic_lines(p) if rank_at_origin(p) == 0 else {}
    trunc = 16
    while trunc < cap:
        try:
            kind, solve = _classify(p.truncate(trunc), trunc, _Orders(p, rung=True), lines)
            return kind, trunc, solve
        except (TruncationTooSmall, NormalizationFailed):
            trunc *= 2
    kind, solve = _classify(p, cap, _Orders(p), lines)
    return kind, cap, solve


def _classify(
    p: BivariatePolynomial, trunc: int, orders: _Orders, lines: Dict[int, Optional[Tuple[Fraction, Fraction]]]
) -> Tuple[SingularityKind, Optional[_Solve]]:
    """The kind of p and the branch solve it was read from: the k = 1 solve
    in the adopted frame on the D path, the k = 2 solve on the E path, None
    where no branch is solved (rank two, D4 and the quartic path).  ``lines``
    is ``_cubic_lines(p)`` when p has rank zero."""
    rank = rank_at_origin(p)
    if rank == 2:
        return SingularityKind.marker(NONDEGENERATE_OR_RANK_POSITIVE), None
    if rank == 1:
        m, n, solve = _d_normal_form(p, rank, trunc, orders, None)
        if m == INFINITE_ORDER:
            return SingularityKind.marker(NONDEGENERATE_OR_RANK_POSITIVE), solve
        return SingularityKind.d_type(m, n), solve

    if lines:  # the cubic part is not zero
        vanishing = max(lines)
        if vanishing == 1:
            return SingularityKind.d4(), None
        if vanishing == 2:
            m, n, solve = _d_normal_form(p, rank, trunc, orders, lines[2])
            return SingularityKind.d_type(m, n), solve
        k0, k1, solve = _cubic_branch_orders(p, trunc, orders, lines[3])
        if k0 == 4:
            return SingularityKind(E6, k0=k0, k1=k1), solve
        if k1 == 3:
            return SingularityKind(E7, k0=k0, k1=k1), solve
        if k0 == 5:
            return SingularityKind(E8, k0=k0, k1=k1), solve
        if (k0 == 6 and k1 >= 4) or (k1 == 4 and k0 >= 6):
            return SingularityKind(CASE_BIV, k0=k0, k1=k1), solve
        return SingularityKind.marker(UNSUPPORTED_HEIGHT_ABOVE_2), solve

    p4 = p.homogeneous_part(4)
    if not p4.is_zero() and circle_vanishing_order(p4) <= 2:
        return SingularityKind.marker(CASE_C), None
    return SingularityKind.marker(UNSUPPORTED_HEIGHT_ABOVE_2), None


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


def adapted_polynomial(p: BivariatePolynomial) -> BivariatePolynomial:
    """The coordinate image of p the classifier builds on its way to the kind.

    D types: normalized and sheared along the squared branch.  D4 and CaseC:
    the input itself.  E/CaseBIV: normalized and sheared along the cubic
    branch.  The image is the jet of the rung that decided the kind, and the
    branch is cut to the degree its solve pins, so the jet ends there.
    Marker kinds raise.  Tests check heights and multiplicities against it.
    """
    kind, _, solve = _ladder(p)
    if not kind.is_supported:
        raise UnsupportedKindError(f"no adapted form for kind {kind.tag}")
    if solve is None:  # D4 and CaseC
        return p
    return apply_shear(solve.image, solve.branch())


def multiplicity_mfrak(p: BivariatePolynomial, kind: SingularityKind) -> int:
    """1 when the adapted polygon's principal face is the vertex (h, h) or a
    compact edge whose principal part has a real root of multiplicity h.

    Reads p for the given ``kind`` and never classifies.  Only h = 2 classes
    can score, by one rule: the principal form has a real double line.  Dinf
    scores 0 (its adapted principal face is a horizontal ray).  For CaseC the
    form is the quartic part: a double line sent to an axis leaves the corner
    x^2*y^2 of a + b = 4.  For CaseBIV it is the weighted sextic Q of the
    cubic frame (weights (1, 2)), read as a binary cubic: the adapted shear
    y -> y + w*x^2 + O(x^3) turns Q(1, t) into Q(1, t + w), the principal
    part c3*t^3 + c1*t + c0 (t = y/x^2) on the edge a + 2b = 6, and a
    translation keeps root multiplicities.  Only (k0, k1) = (6, 4) can have
    a double root there, so only then is the frame built.
    """
    height(kind)  # raises for unsupported kinds
    if kind.tag == CASE_C:
        return int(circle_vanishing_order(p.homogeneous_part(4)) == 2)
    if kind.tag == CASE_BIV and (kind.k0, kind.k1) == (6, 4):
        _, pn = _cubic_frame(p, 3, _cubic_lines(p).get(3))
        cubic = BivariatePolynomial({(3 - b, b): pn.coefficient(6 - 2 * b, b) for b in range(4)})
        return int(circle_vanishing_order(cubic) == 2)
    return 0


def height_report(p: BivariatePolynomial, kind: SingularityKind) -> HeightReport:
    """Heights, multiplicity and linear adaptedness of p, whose class is ``kind``."""
    h = height(kind)
    h_lin = linear_height(kind)
    return HeightReport(
        h=h,
        h_lin=h_lin,
        multiplicity=multiplicity_mfrak(p, kind),
        linearly_adapted=h == h_lin,
    )
