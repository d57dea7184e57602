import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nphk.polyring import (
    INFINITE_ORDER,
    MAX_CONSTANT_BITS,
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    BivariatePolynomial,
    LinearMap2,
    ParseError,
    UnivariatePolynomial,
    _remainders,
    apply_linear,
    apply_shear,
    compose,
    parse_polynomial,
    series_divide,
    substitute_y,
)
from conftest import rand_invertible_map, rand_poly, rand_univariate


F = Fraction


class TestParse:
    def test_monomials(self):
        assert parse_polynomial("x^2*y + y^3").terms == {(2, 1): F(1), (0, 3): F(1)}

    def test_expansion(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        assert p.terms == {(0, 2): F(1), (2, 1): F(-2), (4, 0): F(1), (7, 0): F(1)}

    def test_negative_fraction_coefficient(self):
        assert parse_polynomial("-3/2*x^4").terms == {(4, 0): F(-3, 2)}

    def test_juxtaposition_and_spaces(self):
        assert parse_polynomial("2x y") == parse_polynomial("2*x*y")
        assert parse_polynomial("1/3 * x^7") .terms == {(7, 0): F(1, 3)}

    def test_nested_powers(self):
        p = parse_polynomial("((x + y)^2 - 2*x*y)^2")
        assert p == parse_polynomial("(x^2 + y^2)^2")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_polynomial("x^-2")

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="non-rational"):
            parse_polynomial("1.5*x")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_polynomial("1/0*x")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + * y")
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_polynomial("x + y )")

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("x^2 + y^2 $", "unexpected character '$'", 10),
            ("x^2 + 1.5*y^2", "non-rational coefficient (decimal point)", 7),
            ("(x + y", "expected ')'", 6),
            ("1/x", "denominator must be an integer", 2),
            ("x^y", "exponent must be a nonnegative integer", 2),
            ("x^2 +", "unexpected end of input", 5),
            (")", "unexpected token ')'", 0),
            # a digit that is not a decimal digit
            ("x\u00b2 + y^2", "unexpected character '\u00b2'", 1),
            # a literal past MAX_LITERAL_DIGITS, and one past Python's int() limit
            ("x^2 + " + "1" * 1235 + "*y^2", "an integer literal exceeds MAX_LITERAL_DIGITS = 1234 digits", 6),
            ("1" * 4301 + "*x^2 + y^2", "an integer literal exceeds MAX_LITERAL_DIGITS = 1234 digits", 0),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert (err.value.message, err.value.position) == (message, position)
        assert str(err.value) == f"{message} (at position {position})"

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(60):
            p = rand_poly(rng)
            assert parse_polynomial(p.to_string()) == p


_DEGREE_128 = "x*(y - x^3)^2 + x^9 + y^4*(y^3 + y*x^3)*(-1/3 + y^10 - y)^12"


class TestInputBounds:
    def test_literal_digits_bound(self):
        # every value below 2^MAX_CONSTANT_BITS fits the bound, and the
        # longest literal it allows parses to its value
        assert len(str(2**MAX_CONSTANT_BITS - 1)) == MAX_LITERAL_DIGITS
        nines = "9" * MAX_LITERAL_DIGITS
        assert parse_polynomial(nines + "*x^2 + y^2").coefficient(2, 0) == int(nines)
        with pytest.raises(ParseError, match="MAX_LITERAL_DIGITS") as err:
            parse_polynomial("x^2 + 1/" + "9" * (MAX_LITERAL_DIGITS + 1) + "*y^2")
        assert err.value.position == 8

    def test_nesting_is_refused_at_the_parenthesis_past_the_bound(self):
        deep = "(" * MAX_NESTING + "x^2*y + y^3" + ")" * MAX_NESTING
        assert parse_polynomial(deep) == parse_polynomial("x^2*y + y^3")
        with pytest.raises(ParseError, match="MAX_NESTING = 100") as err:
            parse_polynomial("x + (" + deep + ")")
        assert err.value.position == 4 + MAX_NESTING
        # far past the bound, where the recursion itself would overflow
        with pytest.raises(ParseError, match="MAX_NESTING") as err:
            parse_polynomial("(" * 3000 + "x^2*y + y^3" + ")" * 3000)
        assert err.value.position == MAX_NESTING

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(x + y)^4000", 7),
            ("y^2 + x^1000000000", 7),
            ("(x^2)^65", 5),
            ("x^100*x^29", 5),
            ("x^100 x^29", 6),
            ("x^65*(x^64 + 1)", 4),
        ],
    )
    def test_degree_is_refused_at_the_operator_past_the_bound(self, text, position):
        with pytest.raises(ParseError, match="exceeds MAX_DEGREE = 128") as err:
            parse_polynomial(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text,position",
        [
            ("10^999999999 + x^2 + y^2", 2),
            ("x^2 + (1/3)^2585", 11),
            ("2^4096*y^2", 1),
            ("(1 + 1)^4096", 7),
        ],
    )
    def test_constant_power_is_refused_at_the_operator_past_the_bound(self, text, position):
        with pytest.raises(ParseError, match="exceeds MAX_CONSTANT_BITS = 4096 bits") as err:
            parse_polynomial(text)
        assert err.value.position == position

    def test_constant_powers_within_the_bound_parse(self):
        assert parse_polynomial("2^4095").coefficient(0, 0).numerator.bit_length() == MAX_CONSTANT_BITS
        assert parse_polynomial("(2/3)^2584").coefficient(0, 0).denominator.bit_length() == MAX_CONSTANT_BITS
        # a numerator or denominator of 1 never grows
        assert parse_polynomial("(-1)^999999999*x^2 + 0^999999999") == parse_polynomial("-x^2")

    def test_inputs_within_the_bounds_parse(self):
        assert parse_polynomial("x^100*x^28").total_degree() == MAX_DEGREE
        assert parse_polynomial(_DEGREE_128).total_degree() == MAX_DEGREE
        assert parse_polynomial("10^400 + x^2 + y^2").coefficient(0, 0) == 10**400


class TestArithmetic:
    def test_ring_distributivity(self):
        rng = random.Random(5)
        for _ in range(25):
            p, q, r = (rand_poly(rng, 4, 4) for _ in range(3))
            assert (p + q) * r == p * r + q * r

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_power_matches_repeated_product(self, data):
        p = parse_polynomial("x + y^2 - 2")
        assert p**3 == p * p * p
        trunc, k = data.draw(_truncations()), data.draw(st.integers(0, 6))
        for p in (BivariatePolynomial(data.draw(_small_bivariate_terms(3)), trunc), BivariatePolynomial.zero(trunc)):
            expected = BivariatePolynomial.constant(1, trunc)
            for _ in range(k):
                expected = expected * p
            power = p**k
            assert power == expected
            _assert_clean(power, power.terms.items(), trunc, sum)
            _assert_public_equal(power, BivariatePolynomial, power.terms)

    def test_truncation_drops_high_degree(self):
        p = parse_polynomial("x^2 + y^2").truncate(3)
        q = p * p
        assert q.trunc == 3
        assert q.is_zero()  # every product term has degree 4

    def test_partial_derivatives(self):
        p = parse_polynomial("x^3*y^2 + y")
        assert p.partial(0) == parse_polynomial("3*x^2*y^2")
        assert p.partial(1) == parse_polynomial("2*x^3*y + 1")

    def test_homogeneous_parts_sum_back(self):
        rng = random.Random(9)
        for _ in range(20):
            p = rand_poly(rng)
            total = BivariatePolynomial.zero()
            for k in range(int(p.total_degree()) + 1):
                total = total + p.homogeneous_part(k)
            assert total == p

    def test_homogeneous_examples(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        assert p.homogeneous_part(3) == parse_polynomial("-2*x^2*y")
        assert parse_polynomial("x^2*y + y^3 + x^5").homogeneous_part(3) == parse_polynomial(
            "x^2*y + y^3"
        )
        assert p.homogeneous_part(11).is_zero()


class TestExactnessBoundary:
    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, True, False])
    def test_float_and_bool_coefficients_refused(self, value):
        with pytest.raises(TypeError, match="not exact"):
            BivariatePolynomial.constant(value)
        with pytest.raises(TypeError, match="not exact"):
            BivariatePolynomial({(2, 0): value})
        with pytest.raises(TypeError, match="not exact"):
            UnivariatePolynomial({1: value})
        with pytest.raises(TypeError, match="not exact"):
            LinearMap2(value, 0, 0, 1)

    def test_product_with_a_float_refused(self):
        p = parse_polynomial("x^2 + y^2")
        u = UnivariatePolynomial({2: 1})
        for poly in (p, u):
            with pytest.raises(TypeError, match="not exact"):
                poly * 0.5
            with pytest.raises(TypeError, match="not exact"):
                0.5 * poly

    def test_mixed_type_sum_and_difference_refused(self):
        p = parse_polynomial("x^2 + y^2")
        u = UnivariatePolynomial({2: 1})
        cases = [
            lambda: p + 1,
            lambda: p - F(1, 2),
            lambda: p - 0.5,
            lambda: 1 + p,
            lambda: u - 1,
            lambda: u + F(1, 3),
            lambda: u + p,
            lambda: p + u,
            lambda: p - u,
        ]
        for case in cases:
            with pytest.raises(TypeError):
                case()

    def test_exact_scalars_still_scale(self):
        p = parse_polynomial("x^2 + y^2")
        assert p * F(1, 2) == F(1, 2) * p == parse_polynomial("1/2*x^2 + 1/2*y^2")
        assert 3 * UnivariatePolynomial({2: 1}) == UnivariatePolynomial({2: 3})


class TestLinearMaps:
    def test_identity(self):
        p = parse_polynomial("x^2")
        assert apply_linear(p, LinearMap2.identity()) == p

    def test_swap_symmetric(self):
        p = parse_polynomial("x*y")
        assert apply_linear(p, LinearMap2(0, 1, 1, 0)) == p

    def test_shear_map_example(self):
        p = parse_polynomial("y^2")
        m = LinearMap2(1, 0, 1, 1)  # (x, y) -> (x, x + y)
        assert apply_linear(p, m) == parse_polynomial("x^2 + 2*x*y + y^2")

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            LinearMap2(1, 2, 2, 4)

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng, 4, 4)
            m = rand_invertible_map(rng)
            det = m.det()
            inverse = LinearMap2(m.d / det, -m.b / det, -m.c / det, m.a / det)
            assert apply_linear(apply_linear(p, m), inverse) == p

    def test_group_action(self):
        rng = random.Random(4)
        for _ in range(20):
            p = rand_poly(rng, 4, 4)
            m1 = rand_invertible_map(rng)
            m2 = rand_invertible_map(rng)
            assert apply_linear(p, m1 @ m2) == apply_linear(apply_linear(p, m1), m2)

    def test_compose_leaves_no_reference_cycles(self):
        p = parse_polynomial("(y - x^2)^2 + x^5")
        gc.collect()
        gc.disable()
        try:
            apply_shear(apply_linear(p, LinearMap2(1, 2, 3, 4)), UnivariatePolynomial({2: F(1, 3)}))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_substitute_y_leaves_no_reference_cycles(self):
        p = parse_polynomial("(y - x^2)^2 + 1/3*x^5*y")
        gc.collect()
        gc.disable()
        try:
            substitute_y(p.truncate(12), UnivariatePolynomial({2: F(1, 3), 5: F(-2, 7)}))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_linear_distributes(self):
        rng = random.Random(6)
        for _ in range(15):
            p, q = rand_poly(rng, 4, 4), rand_poly(rng, 4, 4)
            m = rand_invertible_map(rng)
            assert apply_linear(p + q, m) == apply_linear(p, m) + apply_linear(q, m)
            assert apply_linear(p * q, m) == apply_linear(p, m) * apply_linear(q, m)


class TestShear:
    def test_binomial_expansion(self):
        p = parse_polynomial("y^2")
        psi = UnivariatePolynomial({2: F(1)})
        assert apply_shear(p, psi) == parse_polynomial("y^2 + 2*x^2*y + x^4")

    def test_cancellation(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        psi = UnivariatePolynomial({2: F(1)})
        assert apply_shear(p, psi) == parse_polynomial("y^2 + x^7")

    def test_zero_shear(self):
        p = parse_polynomial("x^3*y - y^2")
        assert apply_shear(p, UnivariatePolynomial.zero()) == p

    def test_shear_inverse(self):
        rng = random.Random(8)
        for _ in range(15):
            p = rand_poly(rng, 4, 4)
            psi = rand_univariate(rng, 3)
            assert apply_shear(apply_shear(p, psi), -psi) == p


class TestUnivariate:
    def test_order_examples(self):
        q = UnivariatePolynomial({7: F(1), 8: F(1)})
        assert q.order() == 7
        assert UnivariatePolynomial.zero().order() is INFINITE_ORDER
        assert UnivariatePolynomial({0: F(3), 2: F(-1)}).order() == 0

    def test_substitute_y(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        psi = UnivariatePolynomial({2: F(1)})
        b0 = substitute_y(p, psi)
        assert b0 == UnivariatePolynomial({7: F(1)})

    def test_series_divide_one_by_a_unit(self):
        u = UnivariatePolynomial({0: F(1), 1: F(1)})
        inv = series_divide(ONE, u, 6)
        assert (u * inv).truncate(6) == UnivariatePolynomial({0: F(1)}, trunc=6)
        assert inv == _reference_inverse(u, 6)

    def test_series_divide_with_shift(self):
        num = UnivariatePolynomial({2: F(2), 3: F(2)})
        den = UnivariatePolynomial({1: F(2)})
        quo = series_divide(num, den, 8)
        assert (den * quo).truncate(8) == num.truncate(8)

    def test_series_divide_stops_where_the_denominator_is_known(self):
        # the denominator 1 + x + ... is known only through x^1
        quo = series_divide(ONE, UnivariatePolynomial({0: F(1), 1: F(1)}, trunc=1), 5)
        assert quo == UnivariatePolynomial({0: F(1), 1: F(-1)}, trunc=1)

    def test_series_divide_rejects_bad_valuation(self):
        num = UnivariatePolynomial({0: F(1)})
        den = UnivariatePolynomial({1: F(1)})
        with pytest.raises(ValueError):
            series_divide(num, den, 4)


# -- properties of the integer product kernels ---------------------------------

# Mixed and pairwise coprime denominators, so the common denominator of an
# operand is a genuine lcm and the product needs reducing.
_DENOMINATORS = (*range(1, 13), 35)


def _coefficients():
    return st.builds(
        Fraction,
        st.integers(-40, 40).filter(bool),
        st.sampled_from(_DENOMINATORS),
    )


def _bivariate_terms():
    keys = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return st.dictionaries(keys, _coefficients(), max_size=6)


def _univariate_coeffs():
    return st.dictionaries(st.integers(0, 8), _coefficients(), max_size=6)


def _truncations():
    return st.one_of(st.none(), st.integers(0, 8))


def _min_trunc(t1, t2):
    return t1 if t2 is None else t2 if t1 is None else min(t1, t2)


def _reference_product(t1, t2, trunc, add, degree):
    """Term-by-term Fraction convolution, one Fraction multiply and add per pair."""
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            k = add(k1, k2)
            if trunc is None or degree(k) <= trunc:
                out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _add_pairs(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1])


def _cancelling_pairs(terms):
    """(a + b, a - b), whose product a^2 - b^2 loses every cross term."""
    return st.tuples(terms, terms).map(
        lambda ab: (
            {k: ab[0].get(k, 0) + ab[1].get(k, 0) for k in ab[0].keys() | ab[1].keys()},
            {k: ab[0].get(k, 0) - ab[1].get(k, 0) for k in ab[0].keys() | ab[1].keys()},
        )
    )


def _assert_stored_form(poly):
    """Integer numerators, none zero or above trunc, over one denominator > 0 with content 1."""
    nums, den = poly._nums, poly._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert all(poly.trunc is None or type(poly)._degree(k) <= poly.trunc for k in nums)


def _assert_clean(poly, items, trunc, degree):
    assert all(c != 0 and type(c) is Fraction for _, c in items)
    assert all(trunc is None or degree(k) <= trunc for k, _ in items)
    assert poly.trunc == trunc
    _assert_stored_form(poly)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(st.tuples(_bivariate_terms(), _bivariate_terms()), _cancelling_pairs(_bivariate_terms())),
    t1=_truncations(),
    t2=_truncations(),
)
@example(pair=({(1, 0): F(1), (0, 1): F(1)}, {(1, 0): F(1), (0, 1): F(-1)}), t1=None, t2=None)
@example(pair=({(2, 0): F(1, 3)}, {(0, 2): F(5, 7)}), t1=3, t2=None)
def test_bivariate_product_matches_fraction_convolution(pair, t1, t2):
    p, q = BivariatePolynomial(pair[0], t1), BivariatePolynomial(pair[1], t2)
    trunc = _min_trunc(t1, t2)
    prod = p * q
    assert prod.terms == _reference_product(p.terms, q.terms, trunc, _add_pairs, sum)
    _assert_clean(prod, prod.terms.items(), trunc, sum)
    assert all(type(a) is int and type(b) is int for a, b in prod.terms)
    public = BivariatePolynomial(prod.terms, prod.trunc)
    assert public == prod and hash(public) == hash(prod)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(st.tuples(_univariate_coeffs(), _univariate_coeffs()), _cancelling_pairs(_univariate_coeffs())),
    t1=_truncations(),
    t2=_truncations(),
)
@example(pair=({0: F(1), 1: F(1)}, {0: F(1), 1: F(-1), 2: F(1)}), t1=None, t2=None)
def test_univariate_product_matches_fraction_convolution(pair, t1, t2):
    p, q = UnivariatePolynomial(pair[0], t1), UnivariatePolynomial(pair[1], t2)
    trunc = _min_trunc(t1, t2)
    prod = p * q
    assert prod.coeffs == _reference_product(p.coeffs, q.coeffs, trunc, int.__add__, int)
    _assert_clean(prod, prod.coeffs.items(), trunc, int)
    assert all(type(d) is int for d in prod.coeffs)
    public = UnivariatePolynomial(prod.coeffs, prod.trunc)
    assert public == prod and hash(public) == hash(prod)


def _reference_combine(t1, t2, factor, trunc, degree):
    """Term-by-term Fraction sum t1 + factor*t2 over the terms of degree at most trunc."""
    out = {}
    for terms, f in ((t1, 1), (t2, factor)):
        for k, c in terms.items():
            if trunc is None or degree(k) <= trunc:
                out[k] = out.get(k, Fraction(0)) + f * c
    return {k: c for k, c in out.items() if c != 0}


@pytest.mark.parametrize(
    "cls,terms,degree",
    [
        pytest.param(BivariatePolynomial, _bivariate_terms, sum, id="bivariate"),
        pytest.param(UnivariatePolynomial, _univariate_coeffs, int, id="univariate"),
    ],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shared_core_matches_fraction_reference(cls, terms, degree, data):
    t1, t2 = data.draw(st.one_of(st.tuples(terms(), terms()), _cancelling_pairs(terms())))
    trunc1, trunc2 = data.draw(_truncations()), data.draw(_truncations())
    c = data.draw(st.one_of(st.integers(-3, 3), _coefficients()))
    n = data.draw(st.integers(0, 8))
    p, q = cls(t1, trunc1), cls(t2, trunc2)
    trunc = _min_trunc(trunc1, trunc2)
    cut = _min_trunc(trunc1, n)
    cases = [
        (p + q, _reference_combine(t1, t2, 1, trunc, degree), trunc),
        (p - q, _reference_combine(t1, t2, -1, trunc, degree), trunc),
        (-p, _reference_combine({}, t1, -1, trunc1, degree), trunc1),
        (p.scale(c), _reference_combine({}, t1, c, trunc1, degree), trunc1),
        (p.truncate(n), _reference_combine(t1, {}, 1, cut, degree), cut),
    ]
    for result, expected, result_trunc in cases:
        items = result.terms if cls is BivariatePolynomial else result.coeffs
        assert items == expected
        _assert_clean(result, items.items(), result_trunc, degree)
        _assert_public_equal(result, cls, items)
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert p - q == -(q - p) and hash(p - q) == hash(-(q - p))
    assert (p - p).is_zero() and (p - p) == cls.zero(trunc1)


def _kept_terms(terms, trunc, degree):
    return {k: c for k, c in terms.items() if trunc is None or degree(k) <= trunc}


@settings(max_examples=200, deadline=None)
@given(
    terms=st.one_of(_bivariate_terms(), _bivariate_terms().map(lambda t: {k: c * 6 for k, c in t.items()})),
    trunc=_truncations(),
    axis=st.integers(0, 1),
    k=st.integers(0, 12),
    b=st.integers(0, 7),
)
@example(terms={(2, 0): F(1, 2), (0, 1): F(1, 3)}, trunc=None, axis=0, k=1, b=1)
@example(terms={(2, 0): F(1, 2), (1, 1): F(1, 3)}, trunc=1, axis=1, k=2, b=1)
def test_bivariate_maps_match_term_by_term_fractions(terms, trunc, axis, k, b):
    # partial, homogeneous_part and y_slice each keep a part of the terms, which
    # can share a factor with the denominator that the whole did not
    p = BivariatePolynomial(terms, trunc)
    kept = _kept_terms(terms, trunc, sum)
    partial = {}
    for (a, bb), c in kept.items():
        e = (a, bb)[axis]
        if e:
            partial[(a - 1, bb) if axis == 0 else (a, bb - 1)] = c * e
    cases = [
        (p.partial(axis), partial, None if trunc is None else trunc - 1),
        (p.homogeneous_part(k), {ab: c for ab, c in kept.items() if sum(ab) == k}, trunc),
    ]
    for result, expected, result_trunc in cases:
        assert result.terms == expected
        _assert_clean(result, result.terms.items(), result_trunc, sum)
        _assert_public_equal(result, BivariatePolynomial, result.terms)
    sliced = p.y_slice(b)
    assert sliced.coeffs == {a: c for (a, bb), c in kept.items() if bb == b}
    _assert_clean(sliced, sliced.coeffs.items(), None if trunc is None else max(trunc - b, 0), int)
    _assert_public_equal(sliced, UnivariatePolynomial, sliced.coeffs)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.one_of(_univariate_coeffs(), _univariate_coeffs().map(lambda t: {k: c * 6 for k, c in t.items()})),
    trunc=_truncations(),
)
@example(coeffs={0: F(1, 2), 1: F(1, 3)}, trunc=None)
@example(coeffs={0: F(3), 2: F(-6)}, trunc=2)
def test_univariate_maps_match_term_by_term_fractions(coeffs, trunc):
    u = UnivariatePolynomial(coeffs, trunc)
    kept = _kept_terms(coeffs, trunc, int)
    lead = kept[max(kept)] if kept else None
    cases = [
        (u.derivative(), {d - 1: c * d for d, c in kept.items() if d}, None if trunc is None else trunc - 1),
        (u.monic(), {d: c / lead for d, c in kept.items()}, trunc),
        (-u, {d: -c for d, c in kept.items()}, trunc),
    ]
    for result, expected, result_trunc in cases:
        assert result.coeffs == expected
        _assert_clean(result, result.coeffs.items(), result_trunc, int)
        _assert_public_equal(result, UnivariatePolynomial, result.coeffs)
    lifted = u.to_bivariate()
    assert lifted.terms == {(d, 0): c for d, c in kept.items()}
    _assert_clean(lifted, lifted.terms.items(), trunc, sum)
    _assert_public_equal(lifted, BivariatePolynomial, lifted.terms)


def _reference_compose(p, sx, sy):
    """p(sx, sy) term by term: each power a repeated Fraction product, each term added in Fractions."""
    trunc = _min_trunc(p.trunc, _min_trunc(sx.trunc, sy.trunc))
    total = {}
    for (a, b), c in p.terms.items():
        term = {(0, 0): Fraction(1)}
        for factor in [sx.terms] * a + [sy.terms] * b:
            term = _reference_product(term, factor, trunc, _add_pairs, sum)
        for k, v in term.items():
            total[k] = total.get(k, Fraction(0)) + c * v
    return {k: v for k, v in total.items() if v != 0 and (trunc is None or sum(k) <= trunc)}


def _reference_substitute(p, u):
    """p(x, u(x)) term by term, with u^b a repeated Fraction product."""
    trunc = _min_trunc(p.trunc, u.trunc)
    total = {}
    for (a, b), c in p.terms.items():
        term = {a: c}
        for _ in range(b):
            term = _reference_product(term, u.coeffs, trunc, int.__add__, int)
        for d, v in term.items():
            total[d] = total.get(d, Fraction(0)) + v
    return {d: v for d, v in total.items() if v != 0 and (trunc is None or d <= trunc)}


def _small_bivariate_terms(max_exponent):
    keys = st.tuples(st.integers(0, max_exponent), st.integers(0, max_exponent))
    return st.dictionaries(keys, _coefficients(), max_size=4)


def _small_univariate_coeffs():
    return st.dictionaries(st.integers(0, 4), _coefficients(), max_size=4)


@st.composite
def _branch_case(draw):
    """(y - psi(x))^k * r + s and psi, each with its own truncation, so that
    y -> y + psi and y = psi cancel the first part."""
    coeffs = draw(_small_univariate_coeffs())
    k = draw(st.integers(1, 3))
    r = BivariatePolynomial(draw(_small_bivariate_terms(2)))
    s = BivariatePolynomial(draw(_small_bivariate_terms(3)))
    p = (BivariatePolynomial.var_y() - UnivariatePolynomial(coeffs).to_bivariate()) ** k * r + s
    trunc = draw(_truncations())
    return (p if trunc is None else p.truncate(trunc)), UnivariatePolynomial(coeffs, draw(_truncations()))


def _assert_public_equal(result, cls, items):
    public = cls(items, result.trunc)
    assert public == result and hash(public) == hash(result)
    _assert_stored_form(result)
    _assert_stored_form(public)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.tuples(_small_bivariate_terms(4), _small_bivariate_terms(3), _small_bivariate_terms(3)),
    truncs=st.tuples(_truncations(), _truncations(), _truncations()),
)
@example(terms=({(2, 1): F(1, 3), (0, 3): F(5, 12)}, {}, {(0, 1): F(1)}), truncs=(None, None, None))
@example(terms=({(3, 0): F(2, 35)}, {(1, 0): F(1, 6), (0, 1): F(-1, 4)}, {}), truncs=(None, 4, None))
@example(terms=({(0, 0): F(7, 2), (1, 1): F(1)}, {(0, 0): F(1, 3)}, {(1, 0): F(1, 5)}), truncs=(0, None, None))
def test_compose_matches_term_by_term_fractions(terms, truncs):
    p, sx, sy = (BivariatePolynomial(t, trunc) for t, trunc in zip(terms, truncs))
    trunc = _min_trunc(truncs[0], _min_trunc(truncs[1], truncs[2]))
    out = compose(p, sx, sy)
    assert out.terms == _reference_compose(p, sx, sy)
    _assert_clean(out, out.terms.items(), trunc, sum)
    assert all(type(a) is int and type(b) is int for a, b in out.terms)
    _assert_public_equal(out, BivariatePolynomial, out.terms)


@settings(max_examples=100, deadline=None)
@given(case=_branch_case())
def test_shear_along_a_branch_cancels_like_fractions(case):
    p, psi = case
    sheared = apply_shear(p, psi)
    sx = BivariatePolynomial({(1, 0): F(1)}, psi.trunc)
    sy = BivariatePolynomial({(0, 1): F(1)}, psi.trunc) + psi.to_bivariate()
    assert sheared.terms == _reference_compose(p, sx, sy)
    _assert_clean(sheared, sheared.terms.items(), _min_trunc(p.trunc, psi.trunc), sum)
    _assert_public_equal(sheared, BivariatePolynomial, sheared.terms)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.tuples(_small_bivariate_terms(5), _small_univariate_coeffs()),
    truncs=st.tuples(_truncations(), _truncations()),
)
@example(terms=({(1, 2): F(1, 3), (4, 0): F(-5, 12)}, {}), truncs=(None, None))
@example(terms=({(0, 3): F(1, 35)}, {1: F(1, 6), 2: F(1, 10)}), truncs=(None, 3))
@example(terms=({}, {0: F(1, 11)}), truncs=(2, None))
def test_substitute_y_matches_term_by_term_fractions(terms, truncs):
    p, u = BivariatePolynomial(terms[0], truncs[0]), UnivariatePolynomial(terms[1], truncs[1])
    trunc = _min_trunc(*truncs)
    out = substitute_y(p, u)
    assert out.coeffs == _reference_substitute(p, u)
    _assert_clean(out, out.coeffs.items(), trunc, int)
    assert all(type(d) is int for d in out.coeffs)
    _assert_public_equal(out, UnivariatePolynomial, out.coeffs)


@settings(max_examples=100, deadline=None)
@given(case=_branch_case())
def test_substitute_y_on_a_branch_cancels_like_fractions(case):
    p, psi = case
    out = substitute_y(p, psi)
    assert out.coeffs == _reference_substitute(p, psi)
    _assert_clean(out, out.coeffs.items(), _min_trunc(p.trunc, psi.trunc), int)
    _assert_public_equal(out, UnivariatePolynomial, out.coeffs)


def _reference_inverse(u, trunc):
    """The Fraction recursion inv_d = -sum_j u_j inv_(d-j) / u_0."""
    coeffs = u.coeffs
    inv = {0: 1 / coeffs[0]}
    for d in range(1, trunc + 1):
        inv[d] = -sum((cj * inv[d - j] for j, cj in coeffs.items() if 0 < j <= d), Fraction(0)) / coeffs[0]
    return UnivariatePolynomial(inv, trunc)


@settings(max_examples=200, deadline=None)
@given(
    c0=st.builds(Fraction, st.integers(-40, 40).filter(bool), st.sampled_from(_DENOMINATORS[1:])).filter(
        lambda c: c.denominator > 1
    ),
    rest=st.dictionaries(st.integers(1, 8), _coefficients(), max_size=5),
    t=st.integers(0, 10),
)
def test_series_inverse_of_non_integer_unit(c0, rest, t):
    u = UnivariatePolynomial({0: c0, **rest})
    inv = series_divide(UnivariatePolynomial({0: F(1)}), u, t)
    assert inv * u == UnivariatePolynomial({0: F(1)}, trunc=t)
    assert inv == _reference_inverse(u, t)


@settings(max_examples=300, deadline=None)
@given(
    c0=st.builds(Fraction, st.integers(-40, 40).filter(bool), st.sampled_from(_DENOMINATORS[1:])).filter(
        lambda c: c.denominator > 1
    ),
    rest=st.dictionaries(st.integers(1, 8), _coefficients(), max_size=5),
    num=st.one_of(st.just({0: F(1)}), _univariate_coeffs()),
    s=st.integers(0, 2),
    lift=st.booleans(),
    t=st.integers(0, 10),
)
@example(c0=F(2), rest={}, num={1: F(2), 2: F(2)}, s=1, lift=False, t=8)
def test_series_divide_matches_the_fraction_recursion(c0, rest, num, s, lift, t):
    # x^s n / (x^s u) for a unit u; n starts above degree t when lifted
    u = UnivariatePolynomial({0: c0, **rest})
    n = UnivariatePolynomial({d + (t + 1 if lift else 0): c for d, c in num.items()})
    shifted = [UnivariatePolynomial({d + s: c for d, c in v.coeffs.items()}) for v in (n, u)]
    quo = series_divide(*shifted, t)
    assert quo * u == n.truncate(t)
    assert quo == n.truncate(t) * _reference_inverse(u, t)
    _assert_clean(quo, quo.coeffs.items(), t, int)
    _assert_public_equal(quo, UnivariatePolynomial, quo.coeffs)


def _completed(jet, extra):
    """The jet as an exact polynomial, with extra[j] as its coefficient of degree trunc + j."""
    if jet.trunc is None:
        return jet
    return UnivariatePolynomial({**{jet.trunc + j: c for j, c in extra.items()}, **jet.coeffs})


@settings(max_examples=300, deadline=None)
@given(
    c0=_coefficients(),
    rest=st.dictionaries(st.integers(1, 8), _coefficients(), max_size=4),
    num=_univariate_coeffs(),
    s=st.integers(0, 2),
    num_trunc=_truncations(),
    den_trunc=_truncations(),
    t=st.integers(0, 10),
    extra=st.tuples(*[st.dictionaries(st.integers(1, 4), _coefficients(), max_size=3)] * 2),
)
@example(c0=F(1), rest={1: F(1)}, num={0: F(1)}, s=0, num_trunc=None, den_trunc=1, t=5, extra=({}, {1: F(6)}))
def test_series_divide_labels_only_what_its_inputs_pin(c0, rest, num, s, num_trunc, den_trunc, t, extra):
    # x^s n / (x^s u) on jets known through x^(s + num_trunc) and x^(s + den_trunc)
    def jet(coeffs, trunc):
        return UnivariatePolynomial({d + s: c for d, c in coeffs.items()}, None if trunc is None else trunc + s)

    num_jet, den_jet = jet(num, num_trunc), jet({0: c0, **rest}, den_trunc)
    quo = series_divide(num_jet, den_jet, t)
    assert quo.trunc <= t
    # any completion of the inputs gives the same coefficients through quo.trunc
    full = series_divide(_completed(num_jet, extra[0]), _completed(den_jet, extra[1]), t)
    assert full.truncate(quo.trunc) == quo
    if quo.trunc < t:
        # and one term past the truncation of an input moves the next coefficient
        n0, d0 = _completed(num_jet, {}), _completed(den_jet, {})
        nxt = series_divide(n0, d0, t).coefficient(quo.trunc + 1)
        moved = [series_divide(n0, _completed(den_jet, {1: F(1)}), t)] if den_jet.trunc is not None else []
        if num_jet.trunc is not None:
            moved.append(series_divide(_completed(num_jet, {1: F(1)}), d0, t))
        assert any(q.coefficient(quo.trunc + 1) != nxt for q in moved)


@settings(max_examples=300, deadline=None)
@given(terms=_bivariate_terms())
@example(terms={(2, 0): F(-1, 3), (0, 1): F(1)})
@example(terms={(0, 0): F(-7, 2), (3, 1): F(5, 12)})
@example(terms={})
def test_parse_print_round_trip(terms):
    p = BivariatePolynomial(terms)
    assert parse_polynomial(p.to_string()) == p


# -- exact univariate algebra: division, gcd, square-free parts, Sturm ----------

X = UnivariatePolynomial({1: F(1)})
ONE = UnivariatePolynomial({0: F(1)})


def _lin(root):
    return X - UnivariatePolynomial({0: F(root)})


def _power(u, k):
    out = ONE
    for _ in range(k):
        out = out * u
    return out


class TestUnivariateAlgebra:
    def test_derivative(self):
        u = UnivariatePolynomial({0: F(3), 1: F(2), 3: F(1, 2)})
        assert u.derivative() == UnivariatePolynomial({0: F(2), 2: F(3, 2)})
        assert UnivariatePolynomial({0: F(5)}).derivative().is_zero()
        assert UnivariatePolynomial({1: F(1), 4: F(1)}, trunc=4).derivative().trunc == 3

    def test_divmod(self):
        q, r = divmod(_power(X, 3) - ONE, _lin(1))
        assert q == _power(X, 2) + X + ONE and r.is_zero()
        q, r = divmod(_power(X, 2) + ONE, UnivariatePolynomial({1: F(2)}))
        assert q == UnivariatePolynomial({1: F(1, 2)}) and r == ONE

    def test_divmod_rejects_zero_and_jets(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, UnivariatePolynomial.zero())
        with pytest.raises(ValueError):
            divmod(X.truncate(3), X)

    def test_gcd_is_monic(self):
        a = _power(_lin(1), 2) * _lin(-2) * 3
        b = _lin(1) * _lin(3) * F(-1, 2)
        assert a.gcd(b) == _lin(1)
        assert a.gcd(UnivariatePolynomial.zero()) == a.monic()
        assert a.gcd(ONE * 7) == ONE
        assert UnivariatePolynomial.zero().gcd(UnivariatePolynomial.zero()).is_zero()

    def test_squarefree_decomposition(self):
        quad = _power(X, 2) + ONE
        u = _power(_lin(1), 3) * _power(_lin(-2), 2) * quad * 3
        assert u.squarefree_decomposition() == [(quad, 1), (_lin(-2), 2), (_lin(1), 3)]
        assert (quad * 5).squarefree_decomposition() == [(quad, 1)]
        assert (ONE * 4).squarefree_decomposition() == []
        with pytest.raises(ValueError):
            UnivariatePolynomial.zero().squarefree_decomposition()

    def test_real_root_count(self):
        quad = _power(X, 2) + ONE
        assert (_lin(1) * _lin(-2) * quad).real_root_count() == 2
        assert quad.real_root_count() == 0
        assert _power(_lin(F(1, 3)), 3).real_root_count() == 1
        assert (ONE * 5).real_root_count() == 0
        with pytest.raises(ValueError):
            UnivariatePolynomial.zero().real_root_count()

    def test_real_root_count_across_a_degree_gap(self):
        # the Sturm sequence is u, 4x^3 + 1, 1 - 3/4 x, -: its third entry,
        # with a negative leading coefficient, divides the second with k = 3
        u = _power(X, 4) + X - ONE
        seq = _remainders(u, u.derivative())
        assert [p.degree() for p in seq] == [4, 3, 1, 0]
        assert seq[2] == UnivariatePolynomial({1: F(-3, 4), 0: F(1)})
        assert u.real_root_count() == 2
        assert (-u).real_root_count() == 2


def _reference_divmod(a, b):
    """Long division with one Fraction operation per term: the quotient and remainder terms."""
    divisor = b.coeffs
    deg = max(divisor)
    lead = divisor[deg]
    rem = a.coeffs
    quo = {}
    while rem and max(rem) >= deg:
        top = max(rem)
        coef = rem[top] / lead
        shift = top - deg
        quo[shift] = coef
        for d, c in divisor.items():
            v = rem.get(d + shift, 0) - coef * c
            if v:
                rem[d + shift] = v
            else:
                rem.pop(d + shift, None)
    return quo, rem


def _assert_clean_univariate(poly):
    _assert_clean(poly, poly.coeffs.items(), None, int)


def _nonzero_univariate():
    return _univariate_coeffs().filter(bool).map(UnivariatePolynomial)


@st.composite
def _factored(draw):
    """lc * prod (x - r)^k * prod q, with q monic quadratics without real roots."""
    roots = draw(st.dictionaries(st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3))),
                                 st.integers(1, 3), max_size=3))
    quads = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6)), max_size=2))
    lc = draw(_coefficients())
    u = ONE * lc
    for r, k in roots.items():
        u = u * _power(_lin(r), k)
    for b, extra in quads:
        # x^2 + b x + c with c = b^2/4 + extra/3 > b^2/4: no real root
        u = u * UnivariatePolynomial({2: F(1), 1: F(b), 0: F(b * b, 4) + F(extra, 3)})
    return u, roots


@settings(max_examples=200, deadline=None)
@given(a=_nonzero_univariate(), b=_nonzero_univariate())
def test_divmod_and_gcd_properties(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()
    g = a.gcd(b)
    assert g.coefficient(g.degree()) == 1
    seq = _remainders(a, b)
    assert seq[:2] == [a, b] and g == seq[-1].monic()
    assert all(nxt == -divmod(p, s)[1] for p, s, nxt in zip(seq, seq[1:], seq[2:]))
    assert divmod(seq[-2], seq[-1])[1].is_zero()
    for poly in (q, r, g, *seq):
        _assert_clean_univariate(poly)
    assert divmod(a, g)[1].is_zero() and divmod(b, g)[1].is_zero()
    common = a * b
    assert (a * common).gcd(b * common) == common.monic() * g


@settings(max_examples=200, deadline=None)
@given(case=_factored())
def test_squarefree_and_root_count_of_known_factors(case):
    u, roots = case
    parts = u.squarefree_decomposition()
    product = ONE
    for f, i in parts:
        _assert_clean_univariate(f)
        assert f.degree() > 0 and f.coefficient(f.degree()) == 1
        assert f.gcd(f.derivative()) == ONE
        product = product * _power(f, i)
    assert product == u.monic()
    assert [i for _, i in parts] == sorted({i for _, i in parts})
    for (f, _), (g, _) in zip(parts, parts[1:]):
        assert f.gcd(g) == ONE
    assert u.real_root_count() == len(roots)
    for f, i in parts:
        assert f.real_root_count() == sum(1 for k in roots.values() if k == i)


@settings(max_examples=300, deadline=None)
@given(a=_univariate_coeffs(), b=_univariate_coeffs().filter(bool))
@example(a={}, b={1: F(-3, 2)})  # zero dividend
@example(a={1: F(5, 7), 0: F(1)}, b={3: F(-2), 0: F(1)})  # dividend below the divisor's degree
@example(a={4: F(1), 0: F(-1, 3)}, b={2: F(-3), 1: F(1, 2)})  # negative, non-unit lead, k = 3
@example(a={7: F(2, 5), 2: F(1)}, b={3: F(-4, 9), 0: F(7)})  # k = 5, a sparse remainder
def test_divmod_matches_fraction_long_division(a, b):
    u, v = UnivariatePolynomial(a), UnivariatePolynomial(b)
    ref_quo, ref_rem = _reference_divmod(u, v)
    q, r = divmod(u, v)
    assert q == UnivariatePolynomial(ref_quo) and r == UnivariatePolynomial(ref_rem)
    _assert_clean_univariate(q)
    _assert_clean_univariate(r)
