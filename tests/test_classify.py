from fractions import Fraction
from unittest import mock

import pytest

from nphk import classify
from nphk.classify import (
    CASE_BIV,
    CASE_C,
    D4,
    D_TYPE,
    E6,
    E7,
    E8,
    NONDEGENERATE_OR_RANK_POSITIVE,
    UNSUPPORTED_HEIGHT_ABOVE_2,
    NormalizationFailed,
    SingularityKind,
    TruncationTooSmall,
    UnsupportedKindError,
    adapted_polynomial,
    circle_vanishing_order,
    classify_singularity,
    d_normal_form,
    height,
    height_report,
    linear_height,
    multiplicity_mfrak,
    rank_at_origin,
)
from nphk.newton import build_polygon, taylor_support
from nphk.polyring import (
    INFINITE_ORDER,
    BivariatePolynomial,
    apply_linear,
    parse_polynomial,
)
from conftest import rand_critical_poly, rand_invertible_map

F = Fraction


class TestCircleVanishingOrder:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("y^3", 3),
            ("x^2*y", 2),
            ("x^4 + y^4", 0),
            ("x^2*y + y^3", 1),
            ("x^2 - y^2", 1),
            ("x^2 + y^2", 0),
            ("x^2*y^2", 2),
            ("(x - 2*y)^3", 3),
            ("(y - x)^2*(y + 3*x)", 2),
        ],
    )
    def test_examples(self, text, expected):
        assert circle_vanishing_order(parse_polynomial(text)) == expected

    def test_cubics_range(self, rng):
        for _ in range(40):
            terms = {(3 - j, j): F(rng.randint(-4, 4)) for j in range(4)}
            hom = BivariatePolynomial(terms)
            if hom.is_zero():
                continue
            assert circle_vanishing_order(hom) in (1, 2, 3)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            circle_vanishing_order(parse_polynomial("x^2 + y^3"))


class TestRank:
    @pytest.mark.parametrize(
        "text,expected",
        [("x^2 + y^2", 2), ("x^2 + y^3", 1), ("x^2*y + y^3", 0), ("x*y", 2), ("(x + y)^2", 1)],
    )
    def test_examples(self, text, expected):
        assert rank_at_origin(parse_polynomial(text)) == expected


class TestDNormalForm:
    def test_parabola_branch(self):
        nf = d_normal_form(parse_polynomial("(y - x^2)^2 + x^7"))
        assert (nf.m, nf.omega0, nf.n, nf.beta0) == (2, 1, 7, 1)

    def test_cubic_branch(self):
        nf = d_normal_form(parse_polynomial("(y - x^3)^2 + x^9"))
        assert (nf.m, nf.n) == (3, 9)

    def test_flat_remainder(self):
        nf = d_normal_form(parse_polynomial("(y - x^2)^2"))
        assert nf.m == 2 and nf.n is INFINITE_ORDER and nf.beta0 is None

    def test_rank_zero_true_form(self):
        nf = d_normal_form(parse_polynomial("x*(y - x^2)^2 + x^5"))
        assert (nf.m, nf.n) == (2, 5)

    def test_scaled_branch_leading_coefficient(self):
        nf = d_normal_form(parse_polynomial("(y - 3*x^2 + x^3)^2 + 2*x^8"))
        assert nf.m == 2 and nf.omega0 == 3 and nf.n == 8 and nf.beta0 == 2

    def test_full_rank_rejected(self):
        with pytest.raises(NormalizationFailed):
            d_normal_form(parse_polynomial("x^2 + y^2"))

    def test_trunc_below_degree_rejected(self):
        with pytest.raises(TruncationTooSmall):
            d_normal_form(parse_polynomial("(y - x^2)^2 + x^7"), trunc=5)


class TestClassify:
    @pytest.mark.parametrize(
        "text,tag",
        [
            ("y^3 + x^4", E6),
            ("y^3 + y*x^3", E7),
            ("y^3 + x^5", E8),
            ("y^3 + x^6", CASE_BIV),
            ("y^3 + y*x^4", CASE_BIV),
            ("x^4 + y^4", CASE_C),
            ("x^2*y^2", CASE_C),
            ("x^2*y + y^3", D4),
            ("x^2*y - y^3", D4),
            ("x^2 + y^2", NONDEGENERATE_OR_RANK_POSITIVE),
            ("x^2 + y^3", NONDEGENERATE_OR_RANK_POSITIVE),
            ("y^2 + x^4", NONDEGENERATE_OR_RANK_POSITIVE),
            ("y^3 + x^7", UNSUPPORTED_HEIGHT_ABOVE_2),
            ("y^3 + y*x^5", UNSUPPORTED_HEIGHT_ABOVE_2),
            ("x^4*y + y^4", UNSUPPORTED_HEIGHT_ABOVE_2),
            ("x^5 + y^6", UNSUPPORTED_HEIGHT_ABOVE_2),
        ],
    )
    def test_kinds(self, text, tag):
        assert classify_singularity(parse_polynomial(text)).tag == tag

    def test_d_parameters(self):
        kind = classify_singularity(parse_polynomial("(y - x^2)^2 + x^7"))
        assert kind.tag == D_TYPE and (kind.m, kind.n) == (2, 7)
        assert kind.label() == "D8"

    def test_d_infinite(self):
        kind = classify_singularity(parse_polynomial("(y - x^2)^2"))
        assert (kind.m, kind.n) == (2, INFINITE_ORDER)
        assert kind.label() == "Dinf"

    def test_e_parameters(self):
        kind = classify_singularity(parse_polynomial("y^3 + x^4"))
        assert kind.k0 == 4
        kind = classify_singularity(parse_polynomial("y^3 + y*x^3"))
        assert kind.k1 == 3

    def test_zero_phase(self):
        # every jet vanishes, so the Newton distance and the height are infinite
        zero = parse_polynomial("0")
        kind = classify_singularity(zero)
        assert kind.tag == UNSUPPORTED_HEIGHT_ABOVE_2
        with pytest.raises(UnsupportedKindError):
            height(kind)
        with pytest.raises(NormalizationFailed):
            d_normal_form(zero)

    def test_true_d_form_with_flat_branch(self):
        # a squared-y factor with a flat branch is still in range at rank zero
        kind = classify_singularity(parse_polynomial("x*y^2 + x^5"))
        assert kind.tag == D_TYPE and kind.m is INFINITE_ORDER and kind.n == 5


class TestHeights:
    @pytest.mark.parametrize(
        "text,h,h_lin",
        [
            ("x^2*y + y^3", F(3, 2), F(3, 2)),
            ("(y - x^2)^2 + x^5", F(5, 3), F(5, 3)),
            ("(y - x^2)^2 + x^7", F(7, 4), F(5, 3)),
            ("(y - x^3)^2 + x^9", F(9, 5), F(7, 4)),
            ("(y - x^2)^2", F(2), F(5, 3)),
            ("y^3 + x^4", F(12, 7), F(12, 7)),
            ("y^3 + y*x^3", F(9, 5), F(9, 5)),
            ("y^3 + x^5", F(15, 8), F(15, 8)),
            ("y^3 + x^6", F(2), F(2)),
            ("x^4 + y^4", F(2), F(2)),
        ],
    )
    def test_corpus_heights(self, text, h, h_lin):
        kind = classify_singularity(parse_polynomial(text))
        assert height(kind) == h
        assert linear_height(kind) == h_lin

    def test_unsupported_kind_raises(self):
        kind = SingularityKind.marker(NONDEGENERATE_OR_RANK_POSITIVE)
        with pytest.raises(UnsupportedKindError):
            height(kind)

    def test_adaptedness_boundary(self):
        # 2m+1 >= n is exactly the adapted range for the squared-branch class
        for m, n in [(2, 4), (2, 5), (3, 6), (3, 7)]:
            kind = SingularityKind.d_type(m, n)
            assert linear_height(kind) == height(kind)
        for m, n in [(2, 6), (2, 9), (3, 8), (4, 12)]:
            kind = SingularityKind.d_type(m, n)
            assert linear_height(kind) < height(kind)


class TestSynthesizedForms:
    def synthesize(self, m, n, omega=(1,), beta=(1,), b_extra="0"):
        x = "x"
        omega_text = " + ".join(f"{c}*x^{j}" if j else str(c) for j, c in enumerate(omega))
        psi = f"x^{m}*({omega_text})"
        body = f"(x + x^2 + {b_extra})*(y - {psi})^2"
        if n is not INFINITE_ORDER:
            beta_text = " + ".join(f"{c}*x^{j}" if j else str(c) for j, c in enumerate(beta))
            body += f" + x^{n}*({beta_text})"
        return parse_polynomial(body)

    @pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (2, 7), (3, 8), (3, 9), (2, INFINITE_ORDER), (4, 11)])
    def test_round_trip_classification(self, m, n):
        phi = self.synthesize(m, n, omega=(1, 2), beta=(3,), b_extra="x*y^2")
        kind = classify_singularity(phi)
        assert kind.tag == D_TYPE and (kind.m, kind.n) == (m, n)

    @pytest.mark.parametrize("m,n", [(2, 5), (2, 7), (3, 9)])
    def test_adapted_polygon_matches_height(self, m, n):
        phi = self.synthesize(m, n)
        kind = classify_singularity(phi)
        adapted = adapted_polynomial(phi)
        support = taylor_support(adapted)
        # no support point below the line through (1, 2) and (n, 0)
        for a, b in support:
            assert b * (n - 1) >= 2 * (n - a)
        assert build_polygon(support).distance == height(kind)


class TestAffineInvariance:
    CORPUS = [
        "x^2*y + y^3",
        "(y - x^2)^2 + x^5",
        "(y - x^2)^2 + x^7",
        "(y - x^3)^2 + x^9",
        "(y - x^2)^2",
        "y^3 + x^4",
        "y^3 + y*x^3",
        "y^3 + x^5",
        "y^3 + x^6",
        "x^4 + y^4",
    ]

    def test_kind_and_parameters_invariant(self, rng):
        for text in self.CORPUS:
            p = parse_polynomial(text)
            base = classify_singularity(p)
            for _ in range(3):
                m = rand_invertible_map(rng)
                kind = classify_singularity(apply_linear(p, m))
                assert kind.tag == base.tag
                if base.tag == D_TYPE:
                    assert (kind.m, kind.n) == (base.m, base.n)
                elif base.tag in (E6, E8):
                    assert kind.k0 == base.k0
                elif base.tag == E7:
                    assert kind.k1 == base.k1

    def test_rank_zero_with_residual_cubic_component(self, rng):
        # the normalized cubic part keeps a y^3 component only until the final
        # shear removes it; without that shear the branch order is frame-bound
        p = parse_polynomial("-5/2*x*y^2 + 5/2*x^5")
        base = classify_singularity(p)
        assert (base.m, base.n) == (INFINITE_ORDER, 5)
        for _ in range(20):
            m = rand_invertible_map(rng)
            kind = classify_singularity(apply_linear(p, m))
            assert (kind.tag, kind.m, kind.n) == (D_TYPE, INFINITE_ORDER, 5)

    def test_flat_branch_markers_stay_markers(self, rng):
        for text in ["y^2 + x^4", "x^2 + y^3", "y^2 + x^5", "y^2 - x^6"]:
            p = parse_polynomial(text)
            assert classify_singularity(p).tag == NONDEGENERATE_OR_RANK_POSITIVE
            for _ in range(10):
                m = rand_invertible_map(rng)
                kind = classify_singularity(apply_linear(p, m))
                assert kind.tag == NONDEGENERATE_OR_RANK_POSITIVE, (text, m)

    def test_random_squared_branch_phases_invariant(self, rng):
        checked = 0
        attempts = 0
        while checked < 40 and attempts < 4000:
            attempts += 1
            p = rand_critical_poly(rng, max_terms=4, max_deg=6)
            try:
                base = classify_singularity(p)
            except Exception:
                continue
            if base.tag != D_TYPE:
                continue
            m = rand_invertible_map(rng)
            kind = classify_singularity(apply_linear(p, m))
            assert (kind.tag, kind.m, kind.n) == (D_TYPE, base.m, base.n), (p.to_string(), m)
            checked += 1
        assert checked == 40


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity_mfrak(parse_polynomial("(y - x^2)^2 + x^7")) == 0
        assert multiplicity_mfrak(parse_polynomial("y^3 + x^4")) == 0
        assert multiplicity_mfrak(parse_polynomial("x^2*y^2 + x^4*y^4")) == 1
        assert multiplicity_mfrak(parse_polynomial("x^4 + y^4")) == 0
        assert multiplicity_mfrak(parse_polynomial("(y - x^2)^2")) == 0

    @pytest.mark.parametrize("text", ["(y - x^2)^2", "y^3 + x^6", "x^4 + y^4", "x^2*y^2 + x^4*y^4"])
    def test_given_kind_is_not_classified_again(self, text):
        p = parse_polynomial(text)
        kind = classify_singularity(p)
        expected = multiplicity_mfrak(p)
        with mock.patch.object(classify, "classify_singularity", wraps=classify_singularity) as spy:
            assert adapted_polynomial(p, kind=kind) == adapted_polynomial(p)
            spy.reset_mock()
            assert multiplicity_mfrak(p, kind) == expected
            assert height_report(p, kind).multiplicity == expected
        assert spy.call_count == 0

    def test_report(self):
        rep = height_report(parse_polynomial("(y - x^2)^2 + x^7"))
        assert rep.h == F(7, 4) and rep.h_lin == F(5, 3)
        assert not rep.linearly_adapted and rep.multiplicity == 0
