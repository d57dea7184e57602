import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

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
from nphk.corpus import CORPUS
from nphk.newton import EDGE, VERTEX, build_polygon, face_part, taylor_support
from nphk.polyring import (
    INFINITE_ORDER,
    BivariatePolynomial,
    LinearMap2,
    ParseError,
    UnivariatePolynomial,
    apply_linear,
    apply_shear,
    compose,
    parse_polynomial,
    series_divide,
    substitute_y,
)
from conftest import PHASE_TEXTS, rand_critical_poly, rand_invertible_map

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

    @pytest.mark.parametrize("text,mult", [("y^3 + x^4", 3), ("x*(y - x^2)^2 + x^5", 2)])
    def test_frame_checks_the_cubic_shape(self, text, mult):
        p = parse_polynomial(text)
        _, pn = classify._cubic_frame(p, mult, classify._cubic_lines(p)[mult])
        assert set(pn.homogeneous_part(3).terms) == {(3 - mult, mult)}
        # a wrong direction leaves the cubic part off that shape
        with pytest.raises(NormalizationFailed, match="did not normalize"):
            classify._cubic_frame(p, mult, (F(1), F(1)))

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


def _multiplicity(p):
    return multiplicity_mfrak(p, classify_singularity(p))


class TestMultiplicity:
    def test_examples(self):
        assert _multiplicity(parse_polynomial("(y - x^2)^2 + x^7")) == 0
        assert _multiplicity(parse_polynomial("y^3 + x^4")) == 0
        assert _multiplicity(parse_polynomial("x^2*y^2 + x^4*y^4")) == 1
        assert _multiplicity(parse_polynomial("x^4 + y^4")) == 0
        assert _multiplicity(parse_polynomial("(y - x^2)^2")) == 0

    EXPECTED = {"(y - x^2)^2": 0, "y^3 + x^6": 0, "x^4 + y^4": 0, "x^2*y^2 + x^4*y^4": 1}

    @pytest.mark.parametrize("text", list(EXPECTED))
    def test_given_kind_is_not_classified_again(self, text):
        p = parse_polynomial(text)
        kind = classify_singularity(p)
        expected = self.EXPECTED[text]
        with mock.patch.object(classify, "classify_singularity", wraps=classify_singularity) as spy:
            assert multiplicity_mfrak(p, kind) == expected
            assert height_report(p, kind).multiplicity == expected
        assert spy.call_count == 0

    def test_report(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        rep = height_report(p, classify_singularity(p))
        assert rep.h == F(7, 4) and rep.h_lin == F(5, 3)
        assert not rep.linearly_adapted and rep.multiplicity == 0


def _principal_face_multiplicity(p, kind):
    """The polygon reading: 1 when the adapted polygon's principal face is the
    vertex (h, h), or a compact edge whose principal part at x = 1 has a real
    root of multiplicity exactly h."""
    h = height(kind)
    adapted = adapted_polynomial(p)
    face = build_polygon(taylor_support(adapted)).principal_face
    if face.kind == VERTEX:
        return int(face.points[0] == (h, h))
    if face.kind != EDGE:
        return 0
    part = UnivariatePolynomial({b: c for (_, b), c in face_part(adapted, face).terms.items()})
    return int(any(k == h and f.real_root_count() > 0 for f, k in part.squarefree_decomposition()))


class TestMultiplicityInvariance:
    PHASES = [
        ("x^2*y^2 + x^5 + y^5", CASE_C, 1),
        ("x^2*(x^2 + y^2) + y^5", CASE_C, 1),
        ("(x^2 + y^2)^2 + x^5", CASE_C, 0),
        ("x^4 + y^4", CASE_C, 0),
        ("x^4 - y^4", CASE_C, 0),
        ("y^3 + x^6", CASE_BIV, 0),
        ("x*(y - x^2)^2", D_TYPE, 0),
        ("(y - x^2)^2", D_TYPE, 0),
    ]
    # CaseBIV with (k0, k1) = (6, 4): the adapted principal part
    # c3*t^3 + c1*t + c0 (t = y/x^2) has a double root
    DOUBLE_ROOT_PHASES = [
        ("y^3 + x^2*y^2", CASE_BIV, 1),
        ("y^3 + x^2*y^2 + x^7", CASE_BIV, 1),
        ("y^3 + x^2*y^2 + x^8", CASE_BIV, 1),
        ("y^3 - 3*x^4*y + 2*x^6", CASE_BIV, 1),
        ("y^3 - 3*x^4*y + 2*x^6 + x^7", CASE_BIV, 1),
    ]

    @pytest.mark.parametrize("text,tag,expected", PHASES + DOUBLE_ROOT_PHASES)
    def test_linear_images_keep_the_multiplicity(self, text, tag, expected):
        rng = random.Random(f"multiplicity {text}")
        p = parse_polynomial(text)
        for image in [p] + [apply_linear(p, rand_invertible_map(rng)) for _ in range(6)]:
            kind = classify_singularity(image)
            assert kind.tag == tag
            assert multiplicity_mfrak(image, kind) == expected, image.to_string()
            if tag != CASE_C:
                # Dinf and CaseBIV: the rule agrees with the adapted polygon
                assert _principal_face_multiplicity(image, kind) == expected

    def test_double_factor_off_the_axes(self):
        # the image of x^2*y^2 + ... under (x, y) -> (x + y, x - y)
        p = apply_linear(parse_polynomial("x^2*y^2 + x^5 + y^5"), LinearMap2(1, 1, 1, -1))
        assert _multiplicity(p) == 1

    @pytest.mark.parametrize("text,tag,expected", DOUBLE_ROOT_PHASES + [("y^3 + x^6", CASE_BIV, 0)])
    def test_case_biv_reads_the_frame_without_classifying(self, text, tag, expected):
        # the weighted sextic of the cubic frame decides: no ladder climb, no
        # classification and no adapted jet once the kind is given
        p = parse_polynomial(text)
        kind = classify_singularity(p)
        with (
            mock.patch.object(classify, "_ladder", wraps=classify._ladder) as ladder,
            mock.patch.object(classify, "classify_singularity", wraps=classify_singularity) as classified,
            mock.patch.object(classify, "adapted_polynomial", wraps=adapted_polynomial) as adapted,
        ):
            assert height_report(p, kind).multiplicity == expected
        assert (ladder.call_count, classified.call_count, adapted.call_count) == (0, 0, 0)

    @pytest.mark.parametrize("text", [text for text, _, _ in PHASES])
    def test_no_branch_is_solved(self, text):
        p = parse_polynomial(text)
        kind = classify_singularity(p)
        with mock.patch.object(classify, "_branch_solve", wraps=classify._branch_solve) as spy:
            multiplicity_mfrak(p, kind)
        assert spy.call_count == 0


# -- the branch solve at doubling working precision --------------------------------


def _reference_branch_solve(f, trunc):
    """The branch solve with every Newton step at the full truncation (the oracle)."""
    fy = f.partial(1)
    psi = UnivariatePolynomial.zero(trunc)
    known = 1
    for _ in range(trunc + 2):
        residual = substitute_y(f, psi)
        if residual.order() > trunc:
            break
        pivot = substitute_y(fy, psi)
        s = pivot.order()
        if s == INFINITE_ORDER or s > 1:
            raise NormalizationFailed("degenerate branch pivot; no unique tangent branch")
        if residual.order() < known + 1 + s:
            raise NormalizationFailed(
                "no power-series branch through the origin with zero slope"
            )
        # divided as exact polynomials, past what the jets pin, as the solver does
        correction = series_divide(UnivariatePolynomial(residual.coeffs), UnivariatePolynomial(pivot.coeffs), trunc)
        psi = (psi - correction).truncate(trunc)
        known = min(trunc, 2 * known + 1 - s)
        if known >= trunc:
            residual = substitute_y(f, psi)
            if residual.order() > trunc:
                break
    else:
        raise TruncationTooSmall("branch solve did not stabilize inside the truncation")
    if psi.coefficient(0) != 0 or psi.coefficient(1) != 0:
        raise NormalizationFailed("branch is not tangent to the x-axis")
    return psi


def _pinned_degree(f, trunc):
    """Highest degree of psi the final residual check pins: T - s, with T the
    precision of f(x, psi) and s the order of the pivot f_y(x, psi)."""
    precision = trunc if f.trunc is None else min(f.trunc, trunc)
    return precision - (0 if f.coefficient(0, 1) else 1)


def _assert_same_branch(f, trunc, exact=False):
    """Both solvers raise the same error, or agree on every pinned coefficient
    (on all of psi with ``exact``) and leave no residual through ``trunc``."""
    try:
        expected = _reference_branch_solve(f, trunc)
    except (NormalizationFailed, TruncationTooSmall) as exc:
        with pytest.raises(type(exc)) as caught:
            classify._branch_solve(f, trunc)
        assert str(caught.value) == str(exc)
        return None
    psi, _ = classify._branch_solve(f, trunc)
    assert psi.trunc == expected.trunc == trunc
    assert substitute_y(f, psi).order() > trunc
    pinned = _pinned_degree(f, trunc)
    assert psi.truncate(pinned) == expected.truncate(pinned)
    if exact:
        assert psi == expected
    return psi


_COEFFS = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))


@st.composite
def _jets_with_branch(draw):
    """f = (q(x)*y - p(x)) * u(x, y), whose branch through the origin is p/q.

    u(0, 0) != 0 gives a pivot of order 0; u = c*x + y*(...) + ... gives a
    pivot of order 1.  q = 1 makes the branch a polynomial.
    """
    s = draw(st.integers(0, 1))
    p = draw(st.dictionaries(st.integers(2, 6), _COEFFS, min_size=1, max_size=3))
    q = {0: draw(_COEFFS)}
    if draw(st.booleans()):
        q.update(draw(st.dictionaries(st.integers(1, 4), _COEFFS, max_size=2)))
    units = {(0, 0): draw(_COEFFS)} if s == 0 else {(1, 0): draw(_COEFFS)}
    extra = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 3)).filter(lambda ab: ab[0] + ab[1] > s),
            _COEFFS,
            max_size=4,
        )
    )
    units.update(extra)
    line = BivariatePolynomial.var_y() * UnivariatePolynomial(q).to_bivariate()
    f = (line - UnivariatePolynomial(p).to_bivariate()) * BivariatePolynomial(units)
    trunc = draw(st.integers(4, 40))
    offset = draw(st.sampled_from([None, 0, 1, 2]))
    f = f if offset is None else f.truncate(trunc - offset)
    return f, trunc, UnivariatePolynomial(p), UnivariatePolynomial(q)


def _cap_kind(p):
    """The ladder's cap line on its own, the reference every rung must match:
    one classification of p at ``default_truncation(p)``."""
    taylor_support(p)
    return classify._classify(p, classify.default_truncation(p), classify._Orders(p), classify._cubic_lines(p))[0]


def _branch_equation(p):
    """The jet the classifier solved for p on the rung that decided its kind,
    with the kind, frame and truncation: f_y of the normalized phase (D rows),
    or f_yy after the triple-direction normalization (E rows); None for the
    other kinds."""
    kind, trunc, solve = classify._ladder(p)
    if solve is None or not kind.is_supported:
        return None
    f = apply_linear(p, solve.frame).truncate(trunc)
    for _ in range(solve.k):
        f = f.partial(1)
    return kind, solve.frame, f, trunc


def _row_images(row):
    """A corpus row's phase, a linear image and a shear image of it."""
    rng = random.Random(f"branch {row.phase}")
    p = parse_polynomial(row.phase)
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    k = rng.choice([2, 3])
    return [p, apply_linear(p, rand_invertible_map(rng)), apply_shear(p, UnivariatePolynomial({k: c}))]


class TestBranchSolve:
    @settings(max_examples=150, deadline=None)
    @given(case=_jets_with_branch())
    def test_matches_full_precision_newton(self, case):
        f, trunc, p, q = case
        psi = _assert_same_branch(f, trunc)
        # the pinned coefficients are those of the branch p/q itself
        pinned = _pinned_degree(f, trunc)
        assert psi.truncate(pinned) == series_divide(p, q, pinned)

    @pytest.mark.parametrize("row", CORPUS, ids=[row.kind_label for row in CORPUS])
    def test_corpus_rows_and_images(self, row):
        for i, image in enumerate(_row_images(row)):
            equation = _branch_equation(image)
            if equation is not None:
                _, _, f, trunc = equation
                _assert_same_branch(f, trunc, exact=i == 0)

    def test_degenerate_pivot(self):
        # f_y = 2*x^2 along the branch: pivot of order two
        _assert_same_branch(parse_polynomial("x^2*y - x^5 + y^3"), 12)
        with pytest.raises(NormalizationFailed, match="degenerate branch pivot"):
            classify._branch_solve(parse_polynomial("x^2*y - x^5 + y^3"), 12)

    def test_no_zero_slope_branch(self):
        # y = x/2 is the only branch: slope one half
        _assert_same_branch(parse_polynomial("2*y - x + y^2"), 12)
        with pytest.raises(NormalizationFailed, match="zero slope"):
            classify._branch_solve(parse_polynomial("2*y - x + y^2"), 12)


# -- the branches the outputs carry -------------------------------------------------

_SUPPORTED_ROWS = [row for row in CORPUS if row.kind_label not in ("D4", "CaseC")]
_E_ROWS = [row for row in CORPUS if row.kind_label in ("E6", "E7", "E8", "CaseBIV")]


class TestPinnedBranch:
    @pytest.mark.parametrize("row", _SUPPORTED_ROWS, ids=[row.kind_label for row in _SUPPORTED_ROWS])
    def test_outputs_end_at_the_pinned_degree(self, row):
        # psi holds only the coefficients the residual pins, so the adapted
        # jet ends at that degree too
        for image in _row_images(row):
            equation = _branch_equation(image)
            if equation is None:  # a shear that cancels a rank-one branch leaves a marker
                continue
            kind, frame, f, trunc = equation
            pinned = _pinned_degree(f, trunc)
            branch = _reference_branch_solve(f, trunc).truncate(pinned)
            if kind.tag == D_TYPE:
                psi = d_normal_form(image).psi
                assert psi.trunc == pinned
                assert psi == branch
            adapted = adapted_polynomial(image)
            assert adapted.trunc == pinned
            assert adapted == apply_shear(apply_linear(image, frame), branch)

    @pytest.mark.parametrize("row", _E_ROWS, ids=[row.kind_label for row in _E_ROWS])
    def test_cubic_branch_orders_are_the_adapted_slices(self, row):
        # the classifier reads k0 and k1 along the branch without shearing;
        # the sheared jet must show them as its y^0 and y^1 slices, with no y^2 slice
        for image in _row_images(row):
            kind = classify_singularity(image)
            adapted = adapted_polynomial(image)
            assert adapted.y_slice(2).is_zero()
            assert (adapted.y_slice(0).order(), adapted.y_slice(1).order()) == (kind.k0, kind.k1)


# -- the truncation ladder ---------------------------------------------------------


def _outcome(p, at_cap=False):
    """The kind classify_singularity gives (with ``at_cap``, the kind the cap
    alone gives), or the type of the error it raises."""
    try:
        return _cap_kind(p) if at_cap else classify_singularity(p)
    except Exception as exc:
        return type(exc)


_UNITS = st.integers(-3, 3).filter(bool)
_LINEAR_MAPS = st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda e: e[0] * e[3] != e[1] * e[2])
_HIGHER_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ab: 2 <= sum(ab) <= 3), _UNITS, max_size=2
).map(BivariatePolynomial)
_CORPUS_PHASES = [parse_polynomial(row.phase) for row in CORPUS]


@st.composite
def _corpus_images(draw):
    """A corpus phase under a linear map, a shear y -> y + c*x^k, a shear then
    a linear map, or a map (x + P, y + Q) with P and Q of order two or three;
    perhaps plus a term of degree 10 to 40, so that orders can lie beyond the
    low rungs."""
    p = draw(st.sampled_from(_CORPUS_PHASES))
    how = draw(st.sampled_from(["linear", "shear", "shear_linear", "higher"]))
    if how == "higher":
        x, y = BivariatePolynomial.var_x(), BivariatePolynomial.var_y()
        p = compose(p, x + draw(_HIGHER_TERMS), y + draw(_HIGHER_TERMS))
    else:
        if how != "linear":
            p = apply_shear(p, UnivariatePolynomial({draw(st.integers(2, 4)): draw(_UNITS)}))
        if how != "shear":
            p = apply_linear(p, LinearMap2(*draw(_LINEAR_MAPS)))
    if draw(st.booleans()):
        degree = draw(st.integers(10, 40))
        b = draw(st.integers(0, 3))
        p = p + BivariatePolynomial.monomial(degree - b, b, draw(_UNITS))
    return p


_DEGREE_128 = "x*(y - x^3)^2 + x^9 + y^4*(y^3 + y*x^3)*(-1/3 + y^10 - y)^12"


def _leading(jet):
    """The order of a jet and its coefficient there (None for an infinite order)."""
    order = jet.order()
    return order, None if order == INFINITE_ORDER else jet.coefficient(order)


class TestTruncationLadder:
    # x*B^2 + B*y^D with B = (1-x)*y - x^2, near the ladder's cap 2*deg + 16.
    # At the cap, D = 10 reads n = 39, one past the degree 38 that the final
    # residual pins, so this guards the branch solve's division past its jets.
    # D >= 11 reads Dinf today, the cap defect of ROADMAP item 12; those rows
    # are not pinned.
    @pytest.mark.parametrize(
        "phase,label,trunc",
        [
            ("x*((1-x)*y - x^2)^2 + ((1-x)*y - x^2)*y^2", "D8", 16),
            ("x*((1-x)*y - x^2)^2 + ((1-x)*y - x^2)*y^4", "D16", 28),
            ("x*((1-x)*y - x^2)^2 + ((1-x)*y - x^2)*y^8", "D32", 36),
            ("x*((1-x)*y - x^2)^2 + ((1-x)*y - x^2)*y^10", "D40", 40),
            ("x*((1-x)*y - x^2)^2", "Dinf", 26),
            ("x*((1-x)*y - x^2)^2*(1 + x^60)", "Dinf", 146),
        ],
    )
    def test_label_and_deciding_truncation_near_the_cap(self, phase, label, trunc):
        kind, used, _ = classify._ladder(parse_polynomial(phase))
        assert (kind.label(), used) == (label, trunc)

    @settings(max_examples=150, deadline=None)
    @given(p=_corpus_images())
    def test_corpus_images_match_the_cap(self, p):
        assert _outcome(p) == _outcome(p, at_cap=True)

    @settings(max_examples=150, deadline=None)
    @given(text=PHASE_TEXTS)
    def test_analyze_grammar_matches_the_cap(self, text):
        try:
            p = parse_polynomial(text)
        except ParseError:
            reject()
        # the reference at the cap can take seconds above degree 64
        assume(p.total_degree() <= 64)
        assert _outcome(p) == _outcome(p, at_cap=True)

    @settings(max_examples=100, deadline=None)
    @given(p=_corpus_images())
    def test_output_jets_are_prefixes_of_the_cap_jets(self, p):
        # the reference is the cap line's own solve, as in _cap_kind
        assume(p.total_degree() <= 64)
        try:
            kind, solve = classify._classify(p, classify.default_truncation(p), classify._Orders(p), classify._cubic_lines(p))
        except (NormalizationFailed, TruncationTooSmall) as exc:
            with pytest.raises(type(exc)):
                d_normal_form(p)
            with pytest.raises(type(exc)):
                adapted_polynomial(p)
            return
        if solve is not None and solve.k == 1:
            nf = d_normal_form(p)
            psi, b0 = solve.branch(), substitute_y(solve.image, solve.psi)
            assert ((nf.m, nf.omega0), (nf.n, nf.beta0)) == (_leading(psi), _leading(b0))
            assert nf.normal_map == solve.frame
            assert nf.psi == psi.truncate(nf.psi.trunc)
            assert nf.b0 == b0.truncate(nf.b0.trunc)
        else:
            with pytest.raises(NormalizationFailed):
                d_normal_form(p)
        if not kind.is_supported:
            with pytest.raises(UnsupportedKindError):
                adapted_polynomial(p)
        elif solve is None:
            assert adapted_polynomial(p) is p
        else:
            adapted = adapted_polynomial(p)
            assert adapted == apply_shear(solve.image, solve.branch()).truncate(adapted.trunc)

    def test_degree_128_phase_is_decided_on_a_low_rung(self):
        # 2*deg + 16 = 272; at that truncation the solve did not finish in 100 s
        kind, trunc, _ = classify._ladder(parse_polynomial(_DEGREE_128))
        assert (kind.label(), kind.m, kind.n) == ("D10", 3, 9)
        assert trunc <= 32

    def test_degree_128_outputs_are_read_on_the_deciding_rung(self):
        # solving again at the cap did not finish in 30 s
        p = parse_polynomial(_DEGREE_128)
        _, _, f, trunc = _branch_equation(p)
        assert trunc <= 32
        nf = d_normal_form(p)
        assert (nf.m, nf.n) == (3, 9)
        assert nf.psi.trunc == _pinned_degree(f, trunc)
        adapted = adapted_polynomial(p)
        assert adapted.trunc == nf.psi.trunc
        assert build_polygon(taylor_support(adapted)).distance == F(9, 5)

    @pytest.mark.parametrize(
        "text,label,trunc",
        [
            ("y^3 + x^4", "E6", 16),  # k1 infinite: psi = 0 is an exact root
            ("y^3*(1 + x^30) + x^4", "E6", 64),  # the same, once a rung holds the term x^30*y^3
            ("(y - x^2)^2", "Dinf", 16),  # n infinite on the polynomial branch x^2
            ("x*y^2 + x^5", "D6", 16),  # m infinite at rank zero
            ("x^2*y + y^3", "D4", 16),
            ("x^4 + y^4", "CaseC", 16),
            ("x*(y - x^2)^2 + x^15", "D16", 32),  # n = 15 lies above the pinned degree 16 - 1 - 1
            ("(y - x^2)^2 + x^20", "D21", 32),  # n = 20 is not in the jet at 16
            # b0 = -5*x^18 reads zero in the jet at 16, which holds the whole
            # phase, but y^6 along psi = x^3 has degree 18 > 15: no certificate
            ("(y - x^3)^2 + y^6 - 6*x^15*y", "D19", 32),
            ("y^2 + x^40", NONDEGENERATE_OR_RANK_POSITIVE, 64),
            ("((1 + x)*y - x^2)^2", "Dinf", 24),  # the branch x^2/(1 + x) is no polynomial: the cap
        ],
    )
    def test_rungs(self, text, label, trunc):
        p = parse_polynomial(text)
        kind, used, _ = classify._ladder(p)
        assert (kind.label(), used) == (label, trunc)
        assert kind == _cap_kind(p)

    def test_a_truncated_input_has_no_polynomial_certificate(self):
        # a jet says nothing about the terms beyond its truncation
        p = parse_polynomial("y^3 + x^4").truncate(8)
        with pytest.raises(TruncationTooSmall, match="k1 unresolved"):
            classify._ladder(p)  # rung 16 goes up, and the cap raises as always
        assert _outcome(p) is TruncationTooSmall

    def test_one_traced_call_per_classification(self):
        # three rungs, one call of the module attribute that tracers wrap
        p = parse_polynomial("x*(y - x^2)^2 + x^40")
        with mock.patch.object(classify, "classify_singularity", wraps=classify_singularity) as spy:
            assert height_report(p, classify.classify_singularity(p)).h == F(80, 41)
        assert spy.call_count == 1
        assert classify._ladder(p)[1] == 64
