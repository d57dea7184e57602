"""Exact sparse polynomial arithmetic over the rationals, in one and two variables.

Bivariate polynomials map exponent pairs (a, b) to rational coefficients;
univariate ones map a degree to a coefficient.  Both carry an optional
truncation degree, turning the same representation into jets: a value with
``trunc=N`` is only trusted through total degree N, and every operation drops
terms beyond the tightest truncation of its inputs.  All symbolic work in
this package (coordinate changes, branch solves, Newton-polygon geometry)
happens here, exactly; floating point never enters.

One private core, ``_SparseJet``, holds the arithmetic both types share; each
type names only its key check, degree function and integer product kernel.
``+`` and ``-`` raise ``TypeError`` for an operand of another type (a scalar,
or the other polynomial type); ``*`` also takes an exact scalar.

Exact univariate polynomials also carry the Euclidean algebra the
classifier needs for real linear factors: derivative, division with
remainder, monic gcd, Yun's square-free decomposition and the Sturm count of
distinct real roots.  The gcd and the Sturm count read one remainder
sequence.

A value is stored as integer numerators over one common denominator, the
form FLINT uses for ``fmpq_poly``: no numerator is zero or of degree above
the truncation, the denominator is positive, and the content is reduced
(``gcd(den, *nums) == 1``), so the form is canonical and ``==`` and ``hash``
compare integers.  Every operation reads and writes that form: each runs one
integer pass (a merge, a convolution, a chain of them, a linear recurrence
or a pseudo-division) and divides the content out once.  ``Fraction`` is
still what every API takes and returns: the public constructor converts its
coefficients once, and ``terms``, ``coeffs``, ``coefficient`` and
``to_string`` build reduced ``Fraction``s on the first read and keep them.

``parse_polynomial`` reads phase text by recursive descent with one token of
lookahead; one compiled regular expression scans each character once.

The zero polynomial has order ``INFINITE_ORDER`` (a float infinity used only
as a sentinel, never in arithmetic).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple, Union

INFINITE_ORDER = math.inf

Coeff = Union[int, str, Fraction]


class ParseError(ValueError):
    """Raised for malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def _frac(value: Coeff) -> Fraction:
    """A coefficient as an exact Fraction; a float (or bool) is refused, not rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"coefficient {value!r} is not exact; pass an int, a Fraction or a string")
    return Fraction(value)


def _convolve_xy(nums1: Mapping, nums2: Mapping, trunc: Optional[int]) -> dict:
    """Integer product of two bivariate numerator maps, without the terms above trunc.

    Sums that cancel stay in the result as 0.
    """
    out: dict = {}
    for (a1, b1), c1 in nums1.items():
        for (a2, b2), c2 in nums2.items():
            a, b = a1 + a2, b1 + b2
            if trunc is not None and a + b > trunc:
                continue
            k = (a, b)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _convolve_x(nums1: Mapping, nums2: Mapping, trunc: Optional[int]) -> dict:
    """Integer product of two univariate numerator maps, without the degrees above trunc.

    The second factor runs in ascending degree, so each row stops at trunc.
    Sums that cancel stay in the result as 0.
    """
    out: dict = {}
    items2 = sorted(nums2.items())
    for d1, c1 in nums1.items():
        for d2, c2 in items2:
            d = d1 + d2
            if trunc is not None and d > trunc:
                break
            out[d] = out.get(d, 0) + c1 * c2
    return out


def _kept(terms: Mapping, trunc: Optional[int], degree) -> dict:
    """The nonzero terms of degree at most trunc."""
    if trunc is None:
        return {k: c for k, c in terms.items() if c}
    return {k: c for k, c in terms.items() if c and degree(k) <= trunc}


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _sign_changes(positive: List[bool]) -> int:
    return sum(s != t for s, t in zip(positive, positive[1:]))


class _SparseJet:
    """Immutable sparse polynomial (or jet) with rational coefficients.

    The stored form is canonical: ``_nums`` maps keys to nonzero integer
    numerators, none of degree above ``_trunc``, over one denominator
    ``_den > 0`` with ``gcd(_den, *_nums.values()) == 1``; so ``==`` and
    ``hash`` compare integers.  ``_trunc`` is None for an exact polynomial,
    otherwise the degree through which the jet is valid.  Every operation
    reads and writes this form; ``_fracs`` holds the coefficients as reduced
    Fractions once the public constructor or a reader has built them.  A
    subclass names its key check ``_key``, its degree function ``_degree`` and
    its integer product kernel ``_convolve``.
    """

    __slots__ = ("_nums", "_den", "_trunc", "_fracs", "_hash")

    def __init__(self, terms: Mapping, trunc: Optional[int] = None):
        cleaned = {}
        for key, c in terms.items():
            key = self._key(key)
            if trunc is not None and self._degree(key) > trunc:
                continue
            cf = _frac(c)
            if cf != 0:
                cleaned[key] = cf
        # numerators over the lcm of reduced denominators have content 1
        den = math.lcm(*(c.denominator for c in cleaned.values()))
        self._nums = {k: c.numerator * (den // c.denominator) for k, c in cleaned.items()}
        self._den = den
        self._trunc = trunc
        self._fracs = cleaned
        self._hash = None

    @classmethod
    def _wrap(cls, nums: dict, den: int, trunc: Optional[int]):
        """Wrap numerators and a denominator that are already in the stored form."""
        poly = object.__new__(cls)
        poly._nums = nums
        poly._den = den
        poly._trunc = trunc
        poly._fracs = None
        poly._hash = None
        return poly

    @classmethod
    def _reduce(cls, nums: Mapping, den: int, trunc: Optional[int]):
        """The jet sum(nums[k] x^k) / den for den > 0, put in the stored form:
        zero numerators and terms above trunc dropped, the content divided out."""
        nums = _kept(nums, trunc, cls._degree)
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
        return cls._wrap(nums, den, trunc)

    @classmethod
    def zero(cls, trunc: Optional[int] = None):
        return cls._wrap({}, 1, trunc)

    def _fraction_terms(self) -> dict:
        """The coefficients as reduced Fractions, built on the first read and kept."""
        if self._fracs is None:
            den = self._den
            self._fracs = {k: Fraction(c, den) for k, c in self._nums.items()}
        return self._fracs

    def _untruncated(self):
        """The same terms as an exact polynomial (the truncation label dropped)."""
        return self._wrap(self._nums, self._den, None)

    @property
    def trunc(self) -> Optional[int]:
        return self._trunc

    def is_zero(self) -> bool:
        return not self._nums

    def order(self) -> Union[int, float]:
        """Smallest degree with a nonzero term; INFINITE_ORDER if zero."""
        return min(map(self._degree, self._nums)) if self._nums else INFINITE_ORDER

    def _top_degree(self) -> Union[int, float]:
        """Largest degree with a nonzero term; -inf for the zero polynomial."""
        return max(map(self._degree, self._nums)) if self._nums else -math.inf

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._trunc == other._trunc and self._nums == other._nums

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self._nums.items()), self._den, self._trunc))
        return self._hash

    def _combine(self, other, sign: int):
        """self + sign*other for sign in (1, -1); another type gives NotImplemented."""
        if not isinstance(other, type(self)):
            return NotImplemented
        g = math.gcd(self._den, other._den)
        f1, f2 = other._den // g, sign * (self._den // g)
        out = {k: c * f1 for k, c in self._nums.items()}
        for k, c in other._nums.items():
            out[k] = out.get(k, 0) + c * f2
        return self._reduce(out, self._den * f1, _min_trunc(self._trunc, other._trunc))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._nums.items()}, self._den, self._trunc)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.scale(other)
        trunc = _min_trunc(self._trunc, other._trunc)
        return self._reduce(self._convolve(self._nums, other._nums, trunc), self._den * other._den, trunc)

    __rmul__ = __mul__

    def scale(self, c: Coeff):
        cf = _frac(c)
        if not cf:
            return self.zero(self._trunc)
        n = cf.numerator
        return self._reduce({k: v * n for k, v in self._nums.items()}, self._den * cf.denominator, self._trunc)

    def truncate(self, n: int):
        trunc = n if self._trunc is None else min(self._trunc, n)
        return self._reduce(self._nums, self._den, trunc)

    def __repr__(self):
        tag = "" if self._trunc is None else f", trunc={self._trunc}"
        return f"{type(self).__name__}({self.to_string()}{tag})"


class BivariatePolynomial(_SparseJet):
    """Immutable sparse polynomial (or jet) in the variables x and y.

    ``terms`` maps (a, b) exponent pairs to nonzero Fractions.  ``trunc`` is
    None for an exact polynomial, otherwise the total degree through which the
    jet is valid.
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> Tuple[int, int]:
        a, b = key
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in term ({a}, {b})")
        return int(a), int(b)

    _degree = staticmethod(sum)
    _convolve = staticmethod(_convolve_xy)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(c: Coeff, trunc: Optional[int] = None) -> "BivariatePolynomial":
        cf = _frac(c)
        return BivariatePolynomial._reduce({(0, 0): cf.numerator}, cf.denominator, trunc)

    @staticmethod
    def monomial(a: int, b: int, c: Coeff = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(a, b): _frac(c)})

    @staticmethod
    def var_x() -> "BivariatePolynomial":
        return BivariatePolynomial._wrap({(1, 0): 1}, 1, None)

    @staticmethod
    def var_y() -> "BivariatePolynomial":
        return BivariatePolynomial._wrap({(0, 1): 1}, 1, None)

    # -- basic queries ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._fraction_terms())

    @property
    def is_exact(self) -> bool:
        return self._trunc is None

    def coefficient(self, a: int, b: int) -> Fraction:
        return self._fraction_terms().get((a, b), Fraction(0))

    total_degree = _SparseJet._top_degree

    def __pow__(self, k: int) -> "BivariatePolynomial":
        """self**k by binary powering on the integer numerators, reduced once at the end."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        base, base_den = self._nums, self._den
        nums, den = _kept({(0, 0): 1}, self._trunc, sum), 1
        while k:
            if k & 1:
                nums, den = _convolve_xy(nums, base, self._trunc), den * base_den
            k >>= 1
            if k:
                base, base_den = _convolve_xy(base, base, self._trunc), base_den * base_den
        return BivariatePolynomial._reduce(nums, den, self._trunc)

    # -- calculus / structure ----------------------------------------------------

    def partial(self, axis: int) -> "BivariatePolynomial":
        """Partial derivative along axis 0 (x) or 1 (y).

        A jet valid through degree N differentiates to one valid through N-1.
        """
        out = {}
        for (a, b), c in self._nums.items():
            if axis == 0 and a > 0:
                out[(a - 1, b)] = c * a
            elif axis == 1 and b > 0:
                out[(a, b - 1)] = c * b
        trunc = None if self._trunc is None else self._trunc - 1
        return BivariatePolynomial._reduce(out, self._den, trunc)

    def homogeneous_part(self, k: int) -> "BivariatePolynomial":
        out = {ab: c for ab, c in self._nums.items() if ab[0] + ab[1] == k}
        return BivariatePolynomial._reduce(out, self._den, self._trunc)

    def y_slice(self, b: int) -> "UnivariatePolynomial":
        """Coefficient of y^b as a univariate polynomial in x."""
        out = {a: c for (a, bb), c in self._nums.items() if bb == b}
        trunc = None if self._trunc is None else max(self._trunc - b, 0)
        return UnivariatePolynomial._reduce(out, self._den, trunc)

    # -- printing ------------------------------------------------------------------

    def to_string(self) -> str:
        """Deterministic rendering: graded order, x-major inside each degree."""
        terms = self._fraction_terms()
        if not terms:
            return "0"
        keys = sorted(terms, key=lambda ab: (ab[0] + ab[1], -ab[0]))
        pieces = []
        for idx, (a, b) in enumerate(keys):
            c = terms[(a, b)]
            mono = []
            if a == 1:
                mono.append("x")
            elif a > 1:
                mono.append(f"x^{a}")
            if b == 1:
                mono.append("y")
            elif b > 1:
                mono.append(f"y^{b}")
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = "*".join(mono)
            else:
                body = str(mag) + "*" + "*".join(mono)
            if idx == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)


class UnivariatePolynomial(_SparseJet):
    """Immutable sparse polynomial (or jet) in a single variable."""

    __slots__ = ()

    @staticmethod
    def _key(d) -> int:
        if d < 0:
            raise ValueError("negative degree")
        return int(d)

    _degree = staticmethod(int)
    _convolve = staticmethod(_convolve_x)

    @property
    def coeffs(self) -> dict:
        return dict(self._fraction_terms())

    def coefficient(self, d: int) -> Fraction:
        return self._fraction_terms().get(d, Fraction(0))

    degree = _SparseJet._top_degree

    # -- exact polynomial algebra ----------------------------------------------

    def derivative(self) -> "UnivariatePolynomial":
        """d/dx; a jet valid through degree N differentiates to one valid through N-1."""
        trunc = None if self._trunc is None else self._trunc - 1
        return UnivariatePolynomial._reduce({d - 1: c * d for d, c in self._nums.items() if d}, self._den, trunc)

    def monic(self) -> "UnivariatePolynomial":
        """self divided by its leading coefficient; the zero polynomial stays zero."""
        if not self._nums:
            return self
        lead = self._nums[max(self._nums)]
        nums = self._nums if lead > 0 else {d: -c for d, c in self._nums.items()}
        return UnivariatePolynomial._reduce(nums, abs(lead), self._trunc)

    def __divmod__(self, other: "UnivariatePolynomial"):
        """Euclidean division: self = q*other + r with deg r < deg other.

        With self = N/dn, other = G/dg over integers, c the leading numerator
        of G and k = max(deg N - deg G + 1, 0), the pseudo-division
        |c|^k N = Q G + R runs on integers, each quotient term an exact //,
        and q = Q dg / (|c|^k dn), r = R / (|c|^k dn).
        """
        if self._trunc is not None or other._trunc is not None:
            raise ValueError("polynomial division needs exact polynomials")
        if not other._nums:
            raise ZeroDivisionError("polynomial division by zero")
        divisor = other._nums
        deg = max(divisor)
        lead = divisor[deg]
        top = max(self._nums, default=-1)
        scale = abs(lead) ** max(top - deg + 1, 0)
        rem = {d: c * scale for d, c in self._nums.items()}
        quo = {}
        for shift in range(top - deg, -1, -1):
            coef = rem.get(shift + deg, 0) // lead
            if coef:
                quo[shift] = coef * other._den
                for d, c in divisor.items():
                    rem[d + shift] = rem.get(d + shift, 0) - coef * c
        den = scale * self._den
        return UnivariatePolynomial._reduce(quo, den, None), UnivariatePolynomial._reduce(rem, den, None)

    def gcd(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        """Monic greatest common divisor (Euclid); zero when both inputs are zero."""
        return _remainders(self, other)[-1].monic()

    def squarefree_decomposition(self) -> List[Tuple["UnivariatePolynomial", int]]:
        """Yun's algorithm: self / lc(self) = prod f_i^i over the returned (f_i, i).

        The f_i are monic, squarefree, pairwise coprime and nonconstant; a
        constant input has the empty decomposition.
        """
        if not self._nums:
            raise ValueError("square-free decomposition of the zero polynomial")
        du = self.derivative()
        g = self.gcd(du)
        if g.degree() < 1:  # already squarefree
            return [(self.monic(), 1)] if self.degree() > 0 else []
        out = []
        w = divmod(self, g)[0]
        y = divmod(du, g)[0]
        i = 1
        while w.degree() > 0:
            z = y - w.derivative()
            f = w.gcd(z)
            if f.degree() > 0:
                out.append((f, i))
            w = divmod(w, f)[0]
            y = divmod(z, f)[0]
            i += 1
        return out

    def real_root_count(self) -> int:
        """Number of distinct real roots over the whole line (Sturm's theorem)."""
        if not self._nums:
            raise ValueError("the zero polynomial vanishes everywhere")
        seq = _remainders(self, self.derivative())
        at_plus = [p._nums[p.degree()] > 0 for p in seq]
        at_minus = [pos == (p.degree() % 2 == 0) for pos, p in zip(at_plus, seq)]
        return _sign_changes(at_minus) - _sign_changes(at_plus)

    def to_bivariate(self) -> BivariatePolynomial:
        """The same jet as a polynomial in x alone."""
        return BivariatePolynomial._wrap({(d, 0): c for d, c in self._nums.items()}, self._den, self._trunc)

    def to_string(self) -> str:
        return self.to_bivariate().to_string()


def _remainders(a: UnivariatePolynomial, b: UnivariatePolynomial) -> List[UnivariatePolynomial]:
    """a, b, then each -rem(p, q) of the last two entries p, q, up to the last nonzero entry."""
    seq = [a, b]
    while seq[-1]._nums:
        seq.append(-divmod(seq[-2], seq[-1])[1])
    seq.pop()
    return seq


@dataclass(frozen=True)
class LinearMap2:
    """Invertible 2x2 rational matrix acting on the plane: (x, y) -> (ax+by, cx+dy)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.det() == 0:
            raise ValueError("singular linear map")

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "LinearMap2") -> "LinearMap2":
        return LinearMap2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "LinearMap2":
        return LinearMap2(1, 0, 0, 1)


# -- substitution -------------------------------------------------------------


def compose(p: BivariatePolynomial, sx: BivariatePolynomial, sy: BivariatePolynomial) -> BivariatePolynomial:
    """p(sx, sy); truncation follows the tightest input.

    With p = P/E, sx = SX/Dx and sy = SY/Dy over integers, and A, B the
    largest exponents of x and y in p,

        p(sx, sy) = sum_b (sum_a P_ab Dx^(A-a) SX^a) Dy^(B-b) SY^b / (E Dx^A Dy^B),

    so the sum runs on the stored numerators, with the powers of SX and SY
    cached, and the result is reduced once.
    """
    trunc = _min_trunc(p.trunc, _min_trunc(sx.trunc, sy.trunc))
    nums, den = p._nums, p._den
    sxn, dx = sx._nums, sx._den
    syn, dy = sy._nums, sy._den
    big_a = max((a for a, _ in nums), default=0)
    big_b = max((b for _, b in nums), default=0)
    pow_x = [{(0, 0): 1}]
    pow_y = [{(0, 0): 1}]
    by_b: dict = {}
    for (a, b), c in nums.items():
        while len(pow_x) <= a:
            pow_x.append(_convolve_xy(pow_x[-1], sxn, trunc))
        c *= dx ** (big_a - a)
        inner = by_b.setdefault(b, {})
        for k, v in pow_x[a].items():
            inner[k] = inner.get(k, 0) + c * v
    total: dict = {}
    for b, inner in by_b.items():
        while len(pow_y) <= b:
            pow_y.append(_convolve_xy(pow_y[-1], syn, trunc))
        scale = dy ** (big_b - b)
        for k, v in _convolve_xy(inner, pow_y[b], trunc).items():
            total[k] = total.get(k, 0) + scale * v
    return BivariatePolynomial._reduce(total, den * dx**big_a * dy**big_b, trunc)


def apply_linear(p: BivariatePolynomial, m: LinearMap2) -> BivariatePolynomial:
    """Pull back p along the linear map: result(x) = p(m(x))."""
    sx = BivariatePolynomial({(1, 0): m.a, (0, 1): m.b})
    sy = BivariatePolynomial({(1, 0): m.c, (0, 1): m.d})
    return compose(p, sx, sy)


def apply_shear(p: BivariatePolynomial, psi: UnivariatePolynomial) -> BivariatePolynomial:
    """result(x, y) = p(x, y + psi(x)); the jet truncation of psi propagates."""
    sx = BivariatePolynomial({(1, 0): Fraction(1)}, psi.trunc)
    sy = BivariatePolynomial({(0, 1): Fraction(1)}, psi.trunc) + psi.to_bivariate()
    return compose(p, sx, sy)


def substitute_y(p: BivariatePolynomial, u: UnivariatePolynomial) -> UnivariatePolynomial:
    """p(x, u(x)) as a univariate polynomial, by Horner in y.

    With p = P/E and u = U/D over integers and B the y-degree of p, Horner's
    R <- R*U + P_b D^(B-b) runs on the stored numerators, and p(x, u) =
    R / (E D^B) is reduced once.  After the step of P_b, R is multiplied by U
    b more times, each raising its degrees by at least s = order(U), so that
    step keeps only degrees up to trunc - b*s.
    """
    trunc = _min_trunc(p.trunc, u.trunc)
    nums, den = p._nums, p._den
    un, d = u._nums, u._den
    s = min(un, default=0)
    big_b = max((b for _, b in nums), default=0)
    slices: dict = {}
    for (a, b), c in nums.items():
        if trunc is None or a + b * s <= trunc:
            slices.setdefault(b, {})[a] = c
    acc: dict = {}
    for b in range(big_b, -1, -1):
        acc = _convolve_x(acc, un, None if trunc is None else trunc - b * s)
        scale = d ** (big_b - b)
        for a, c in slices.get(b, {}).items():
            acc[a] = acc.get(a, 0) + scale * c
    return UnivariatePolynomial._reduce(acc, den * d**big_b, trunc)


def series_divide(num: UnivariatePolynomial, den: UnivariatePolynomial, trunc: int) -> UnivariatePolynomial:
    """num/den as a jet mod x^(trunc+1); requires order(num) >= order(den).

    With s = order(den), num = x^s N/dn and den = x^s U/du over integers and
    U0 = U[0] != 0, the scaled quotient coefficients w_d = U0^(d+1) dn q_d / du
    are integers: w_d = U0^d N_d - sum_(j>=1) U_j U0^(j-1) w_(d-j), and the
    quotient q_d = du w_d U0^(trunc-d) / (dn U0^(trunc+1)) is reduced once.

    q_d reads N through degree d and U through degree d - order(N), so the
    quotient is valid only through min(trunc, num.trunc - s,
    den.trunc - 2s + order(num)); an exact input adds no bound.
    """
    s = den.order()
    if s is INFINITE_ORDER:
        raise ZeroDivisionError("division by the zero jet")
    if num.trunc is not None:
        trunc = min(trunc, num.trunc - s)
    if num.is_zero():
        return UnivariatePolynomial.zero(trunc)
    if num.order() < s:
        raise ValueError("quotient is not a power series")
    if den.trunc is not None:
        trunc = min(trunc, den.trunc - 2 * s + num.order())
    nums, dn = num._nums, num._den
    dens, du = den._nums, den._den
    u0 = dens[s]
    steps = [(d - s, c * u0 ** (d - s - 1)) for d, c in dens.items() if 0 < d - s <= trunc]
    w: list = []
    u0_pow = 1
    for d in range(trunc + 1):
        w.append(u0_pow * nums.get(d + s, 0) - sum(step * w[d - j] for j, step in steps if j <= d))
        u0_pow *= u0
    scale = du if u0_pow > 0 else -du  # keeps the denominator positive
    quo = {}
    for d in range(trunc, -1, -1):
        quo[d] = scale * w[d]
        scale *= u0
    return UnivariatePolynomial._reduce(quo, dn * abs(u0_pow), trunc)


# -- parsing ---------------------------------------------------------------------


# One token after white space: an integer (a decimal point right after it is
# an error), a variable or operator, any other character (an error), or none.
_TOKEN = re.compile(r"\s*(?:(\d+)(\.)?|([-+*^()/xy])|(.))?")


# Bounds on phase text, checked before any recursion or product runs past them:
# four Python frames per parenthesis keep 100 levels well inside the default
# recursion limit, a power or product of total degree above 128 is refused
# before it is expanded, and so is a power of a constant whose numerator or
# denominator would pass 4096 bits (10^400 has 1329; 10^999999999 would take
# about 400 MB).  An integer literal is refused before it is converted when it
# has more digits than any value below 2^MAX_CONSTANT_BITS can have (2^4096
# has 1234), well inside Python's own limit of 4300 digits on int().
MAX_NESTING = 100
MAX_DEGREE = 128
MAX_CONSTANT_BITS = 4096
MAX_LITERAL_DIGITS = 1234


class _Parser:
    """Recursive descent for: sums of terms; term = factors joined by '*' or
    juxtaposition; factor = atom ['^' int]; atom = rational | x | y | (expr).
    A token is an int, a one-character str or None at the end; ``_TOKEN``
    scans each one once, when the parser first looks at it, so a bad token
    raises only then."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # where the next scan starts
        self.ahead = None  # the scanned, unconsumed (token, position)
        self.depth = 0

    def peek(self):
        if self.ahead is None:
            m = _TOKEN.match(self.text, self.pos)
            digits, point, symbol, bad = m.groups()
            if point:
                raise ParseError("non-rational coefficient (decimal point)", m.start(2))
            if bad:
                raise ParseError(f"unexpected character {bad!r}", m.start(4))
            if digits and len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(f"an integer literal exceeds MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits", m.start(1))
            self.pos = m.end()
            tok = int(digits) if digits else symbol
            self.ahead = tok, (m.start(m.lastindex) if m.lastindex else self.pos)
        return self.ahead

    def next(self):
        tok = self.peek()
        self.ahead = None
        return tok

    @staticmethod
    def _check_degree(degree, pos: int):
        if degree > MAX_DEGREE:
            raise ParseError(f"total degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", pos)

    @staticmethod
    def _check_constant_power(value: Fraction, k: int, pos: int):
        # |n|^k has at least k*(bits(n) - 1) + 1 bits, so only a power below
        # about 2 * MAX_CONSTANT_BITS bits is ever computed to be measured
        for part in (value.numerator, value.denominator):
            bits = abs(part).bit_length()
            if bits > 1 and (
                k * (bits - 1) >= MAX_CONSTANT_BITS or (abs(part) ** k).bit_length() > MAX_CONSTANT_BITS
            ):
                raise ParseError(f"a constant power exceeds MAX_CONSTANT_BITS = {MAX_CONSTANT_BITS} bits", pos)

    def parse(self) -> BivariatePolynomial:
        result = self.expression()
        tok, pos = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok!r}", pos)
        return result

    def expression(self) -> BivariatePolynomial:
        tok, _ = self.peek()
        negate = tok == "-"
        if tok in ("+", "-"):
            self.next()
        total = self.term()
        if negate:
            total = -total
        while True:
            tok, _ = self.peek()
            if tok not in ("+", "-"):
                break
            self.next()
            rhs = self.term()
            total = total - rhs if tok == "-" else total + rhs
        return total

    def term(self) -> BivariatePolynomial:
        total = self.factor()
        while True:
            tok, pos = self.peek()
            if tok == "*":
                self.next()
            elif not (isinstance(tok, int) or tok in ("x", "y", "(")):
                break
            # '*' or juxtaposition
            rhs = self.factor()
            self._check_degree(total.total_degree() + rhs.total_degree(), pos)
            total = total * rhs
        return total

    def factor(self) -> BivariatePolynomial:
        base = self.atom()
        tok, op_pos = self.peek()
        if tok == "^":
            self.next()
            k, pos = self.next()
            if k == "-":
                raise ParseError("negative exponent", pos)
            if not isinstance(k, int):
                raise ParseError("exponent must be a nonnegative integer", pos)
            degree = base.total_degree()
            if degree > 0:
                self._check_degree(degree * k, op_pos)
            else:
                self._check_constant_power(base.coefficient(0, 0), k, op_pos)
            base = base**k
        return base

    def atom(self) -> BivariatePolynomial:
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if isinstance(tok, int):
            value = Fraction(tok)
            if self.peek()[0] == "/":
                self.next()
                den, den_pos = self.next()
                if not isinstance(den, int):
                    raise ParseError("denominator must be an integer", den_pos)
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                value = Fraction(tok, den)
            return BivariatePolynomial.constant(value)
        if tok == "x":
            return BivariatePolynomial.var_x()
        if tok == "y":
            return BivariatePolynomial.var_y()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than MAX_NESTING = {MAX_NESTING}", pos)
            inner = self.expression()
            close, cpos = self.next()
            if close != ")":
                raise ParseError("expected ')'", cpos)
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse_polynomial(text: str) -> BivariatePolynomial:
    """Parse polynomial text in x, y with exact rational coefficients.

    Grammar: terms joined by + and -; a term is rationals and monomials joined
    by '*' (or juxtaposition); powers use '^' with nonnegative integer
    exponents; parenthesized subexpressions may be raised to powers, e.g.
    ``(y - x^2)^2 + 1/3*x^7``.  Text nested in more than ``MAX_NESTING``
    parentheses, a power or product of total degree above ``MAX_DEGREE``, and
    a power of a constant whose numerator or denominator would have more
    than ``MAX_CONSTANT_BITS`` bits raise ParseError at the offending '(' or
    operator, before expanding it; an integer literal of more than
    ``MAX_LITERAL_DIGITS`` digits raises it at the literal's first digit,
    before converting it.
    """
    return _Parser(text).parse()
