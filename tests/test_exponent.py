from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nphk import exponent as expo
from nphk.classify import CASE_C, SingularityKind, UnsupportedKindError, NONDEGENERATE_OR_RANK_POSITIVE
from nphk.exponent import (
    BoundednessAnchor,
    PiecewiseLinear,
    interpolation_envelope,
    knapp_exponent,
    knapp_exponent_nla,
    kp_point,
    kp_profile,
    sugimoto_inf_threshold,
    sugimoto_q_threshold,
    verify_nla_identity,
)
from nphk.polyring import INFINITE_ORDER

F = Fraction

D25 = SingularityKind.d_type(2, 5)
D27 = SingularityKind.d_type(2, 7)
D2INF = SingularityKind.d_type(2, INFINITE_ORDER)
E7 = SingularityKind("E7", k1=3)
CASEC = SingularityKind.marker(CASE_C)


class TestKpPoint:
    def test_adapted_evaluation(self):
        assert kp_point(D25, 1) == F(12, 5)

    def test_two_line_maximum(self):
        assert kp_point(D27, 1) == F(17, 7)

    def test_zero_at_p_two(self):
        for kind in (D25, D27, D2INF, E7, CASEC, SingularityKind.d4()):
            assert kp_point(kind, 2) == 0

    def test_infinite_order_compared_by_value(self):
        # any float infinity is the infinite order, not only the sentinel object
        equal_inf = SingularityKind.d_type(2, float("inf"))
        for p in (F(1), F(4, 3), F(5, 3), F(2)):
            assert kp_point(equal_inf, p) == kp_point(D2INF, p)
        assert kp_profile(equal_inf).segments == kp_profile(D2INF).segments

    def test_infinite_n_branch_comparison(self):
        # 1/p - 1/2 = 1/10 at p = 5/3
        assert kp_point(D2INF, F(5, 3)) == F(12, 25)

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedKindError):
            kp_point(SingularityKind.marker(NONDEGENERATE_OR_RANK_POSITIVE), 1)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            kp_point(D25, F(5, 2))

    def test_nonincreasing_in_p(self):
        grid = [F(1) + F(j, 40) for j in range(41)]
        for kind in (D25, D27, D2INF, E7, CASEC):
            values = [kp_point(kind, p) for p in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestKpProfile:
    def test_two_segments_with_crossover(self):
        profile = kp_profile(D27)
        assert len(profile.segments) == 2
        first, second = profile.segments
        assert first.slope == F(24, 5) and first.intercept == 0
        assert second.slope == F(36, 7) and second.intercept == F(5, 14) - F(1, 2)
        assert first.x_hi == F(5, 12)  # (2m+1)/(4m+4) at m=2
        assert first.slope * F(5, 12) + first.intercept == second.slope * F(5, 12) + second.intercept

    def test_single_segment_slopes(self):
        assert kp_profile(E7).segments[0].slope == F(44, 9)
        assert kp_profile(CASEC).segments[0].slope == 5

    def test_profile_matches_pointwise(self):
        profile = kp_profile(D27)
        for j in range(11):
            p = F(1) + F(j, 10)
            assert profile.value_at_p(p) == kp_point(D27, p)

    def test_convexity(self):
        for kind in (D27, D2INF, SingularityKind.d_type(3, 9)):
            segs = kp_profile(kind).segments
            slopes = [s.slope for s in segs]
            assert slopes == sorted(slopes)


# Heights of the single-line classes, and the two lines of a D(m, n) with
# 2m+1 < n, written out independently of the module.
_HEIGHTS = {"D4": F(3, 2), "E6": F(12, 7), "E7": F(9, 5), "E8": F(15, 8), "CaseBIV": F(2), "CaseC": F(2)}


def _expected_kp(kind, u):
    if kind.tag != "D":
        return (6 - 2 / _HEIGHTS[kind.tag]) * u
    m, n = kind.m, kind.n
    inv_n = F(0) if n == INFINITE_ORDER else F(1, n)
    if n != INFINITE_ORDER and n <= 2 * m + 1:
        h = 2 / (1 + inv_n)  # 2n/(n+1)
        return (6 - 2 / h) * u
    return max((5 - F(1, 2 * m + 1)) * u, (6 - (2 * m + 2) * inv_n) * u + F(2 * m + 1, 2) * inv_n - F(1, 2))


_SUPPORTED_KINDS = st.one_of(
    st.sampled_from(sorted(_HEIGHTS)).map(SingularityKind),
    st.builds(
        SingularityKind.d_type,
        st.integers(2, 6),
        st.one_of(st.integers(3, 40), st.just(INFINITE_ORDER)),
    ),
)


@settings(max_examples=200, deadline=None)
@given(kind=_SUPPORTED_KINDS, u=st.fractions(0, F(1, 2), max_denominator=1000))
def test_profile_is_the_written_out_curve(kind, u):
    profile = kp_profile(kind)
    xs = [x for x, _ in profile.points]
    slopes = [seg.slope for seg in profile.segments]
    assert xs[0] == 0 and xs[-1] == F(1, 2)
    assert profile.value(0) == 0
    # convex and canonical: slopes strictly increase from joint to joint
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert PiecewiseLinear(profile.points).points == profile.points
    for x in xs + [u]:
        assert profile.value(x) == _expected_kp(kind, x)
    assert profile.value_at_p(1 / (u + F(1, 2))) == _expected_kp(kind, u)
    assert kp_point(kind, 1 / (u + F(1, 2))) == _expected_kp(kind, u)


class TestPiecewiseLinear:
    def test_coerces_and_drops_collinear_joints(self):
        f = PiecewiseLinear(((0, 0), (1, 2), (2, 4), (F(5, 2), 5), (3, 5)))
        assert f.points == ((0, 0), (F(5, 2), 5), (3, 5))
        assert all(type(v) is Fraction for point in f.points for v in point)
        assert f.value(1) == 2 and f.value(3) == 5

    def test_segments(self):
        seg = PiecewiseLinear(((0, 1), (2, 5), (3, 5))).segments
        assert seg[0] == (2, 1, 0, 2) and seg[1].slope == 0 and seg[1].intercept == 5

    def test_repeated_or_decreasing_x_rejected(self):
        for points in (((0, 0), (0, 1), (1, 1)), ((1, 0), (0, 1))):
            with pytest.raises(ValueError, match="strictly increasing"):
                PiecewiseLinear(points)

    def test_fewer_than_two_joints_rejected(self):
        for points in ((), ((0, 0),)):
            with pytest.raises(ValueError, match="two joints"):
                PiecewiseLinear(points)

    def test_value_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PiecewiseLinear(((0, 0), (1, 1))).value(F(3, 2))


class TestSugimotoThresholds:
    def test_q_threshold_weighted_anchor(self):
        anchor = sugimoto_q_threshold(3, F(1, 2) + F(1, 3), 6)
        assert anchor.inv_p == F(11, 12) and anchor.k == 2

    def test_q_threshold_m3(self):
        anchor = sugimoto_q_threshold(3, F(1, 2) + F(1, 4), 8)
        assert anchor.inv_p == F(15, 16) and anchor.k == F(17, 8)

    def test_q_threshold_unweighted(self):
        anchor = sugimoto_q_threshold(3, 0, 2)
        assert anchor.inv_p == F(3, 4) and anchor.k == F(5, 2)

    def test_q_below_two_rejected(self):
        with pytest.raises(ValueError):
            sugimoto_q_threshold(3, 0, F(3, 2))

    def test_inf_threshold_reproduces_upper_bound(self):
        assert sugimoto_inf_threshold(3, F(3, 5), 1) == F(12, 5)

    def test_inf_threshold_edges(self):
        assert sugimoto_inf_threshold(3, 1, 2) == 0
        assert sugimoto_inf_threshold(3, 1, 1) == 2


class TestEnvelope:
    def test_linear_interpolation(self):
        env = interpolation_envelope(
            [BoundednessAnchor(F(1, 2), F(0), "trivial-L2"), BoundednessAnchor(F(1), F(1), "Sugi1")]
        )
        assert env.value(F(3, 4)) == F(1, 2)

    def test_collinear_anchors_collapse(self):
        env = interpolation_envelope(
            [
                BoundednessAnchor(F(1, 2), F(0), "trivial-L2"),
                BoundednessAnchor(F(11, 12), F(2), "Sugi1"),
                BoundednessAnchor(F(1), F(12, 5), "Sugi1"),
            ]
        )
        assert len(env.segments) == 1
        assert env.segments[0][0] == F(24, 5)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            interpolation_envelope(
                [BoundednessAnchor(F(1, 2), F(0), "a"), BoundednessAnchor(F(1, 2), F(1), "b")]
            )

    def test_upper_point_dropped(self):
        env = interpolation_envelope(
            [
                BoundednessAnchor(F(1, 2), F(0), "a"),
                BoundednessAnchor(F(3, 4), F(10), "b"),
                BoundednessAnchor(F(1), F(1), "c"),
            ]
        )
        assert len(env.segments) == 1


class TestNlaIdentity:
    @pytest.mark.parametrize("m,n", [(2, 7), (3, 9), (2, INFINITE_ORDER), (4, 24)])
    def test_identity_holds(self, m, n):
        assert verify_nla_identity(m, n)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            verify_nla_identity(2, 5)
        with pytest.raises(ValueError):
            verify_nla_identity(1, 9)

    @pytest.mark.parametrize(
        "m,n", [(0, 5), (1, 9), (2.5, 9), (F(5, 2), 9), (2, 5), (2, 9.0), (2, "9"), (3, 7)]
    )
    def test_one_domain_check_for_both(self, m, n):
        with pytest.raises(ValueError):
            verify_nla_identity(m, n)
        with pytest.raises(ValueError):
            knapp_exponent_nla(m, n, 1, 0)

    def test_any_float_infinity_accepted(self):
        assert verify_nla_identity(3, float("inf"))
        assert knapp_exponent_nla(3, float("inf"), 1, 0) == knapp_exponent_nla(3, INFINITE_ORDER, 1, 0)

    @pytest.mark.parametrize("m,n", [(2, 7), (3, INFINITE_ORDER)])
    @pytest.mark.parametrize("anchor", [1, 2])
    def test_moved_anchor_detected(self, monkeypatch, m, n, anchor):
        original = expo._nla_anchors

        def moved(m, n):
            anchors = original(m, n)
            a = anchors[anchor]
            anchors[anchor] = BoundednessAnchor(a.inv_p, a.k + F(1, 1000), a.source)
            return anchors

        monkeypatch.setattr(expo, "_nla_anchors", moved)
        assert not verify_nla_identity(m, n)

    def test_breakpoint_pinned_to_closed_form(self, monkeypatch):
        # lines and anchors of D(3, 9) agree with each other, but cross at
        # 7/16 instead of the 5/12 that m = 2 requires
        lines, anchors = expo._nla_lines, expo._nla_anchors
        monkeypatch.setattr(expo, "_nla_lines", lambda m, n: lines(3, 9))
        monkeypatch.setattr(expo, "_nla_anchors", lambda m, n: anchors(3, 9))
        assert not verify_nla_identity(2, 9)
        assert verify_nla_identity(3, 9)

    @pytest.mark.parametrize("m,n", [(2, 7), (3, INFINITE_ORDER)])
    @pytest.mark.parametrize("line,part", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_moved_line_detected(self, monkeypatch, m, n, line, part):
        original = expo._nla_lines

        def moved(m, n):
            lines = [list(pair) for pair in original(m, n)]
            lines[line][part] += F(1, 1000)
            return tuple(tuple(pair) for pair in lines)

        monkeypatch.setattr(expo, "_nla_lines", moved)
        assert not verify_nla_identity(m, n)


class TestKnapp:
    def test_bounded_side(self):
        assert knapp_exponent((F(1, 3), F(1, 3)), 1, F(12, 5)) == F(-1, 15)

    def test_unbounded_witness(self):
        assert knapp_exponent((F(1, 3), F(1, 3)), 1, F(7, 3) - F(1, 100)) == F(1, 100)

    def test_degenerate_weights(self):
        assert knapp_exponent((0, 0), 2, F(3)) == -3

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            knapp_exponent((F(-1, 3), F(1, 3)), 1, 0)

    def test_nla_threshold_exactness(self):
        assert knapp_exponent_nla(2, 7, 1, F(17, 7)) == 0
        assert knapp_exponent_nla(2, 7, 1, F(17, 7) - F(1, 100)) == F(1, 100)

    def test_nla_at_p_two_negative(self):
        for n in (7, 9, 15):
            assert knapp_exponent_nla(2, n, 2, 0) < 0

    def test_nla_never_positive_at_kp(self):
        for n in (7, 9, INFINITE_ORDER):
            kind = SingularityKind.d_type(2, n)
            for j in range(11):
                p = F(1) + F(j, 10)
                assert knapp_exponent_nla(2, n, p, kp_point(kind, p)) <= 0

    def test_nla_domain_guard(self):
        with pytest.raises(ValueError):
            knapp_exponent_nla(2, 5, 1, 0)
        with pytest.raises(ValueError):
            knapp_exponent_nla(0, 5, 1, 0)


class TestSandwich:
    @pytest.mark.parametrize(
        "kind",
        [D25, D27, D2INF, E7, CASEC, SingularityKind.d4(), SingularityKind.d_type(3, 9)],
        ids=lambda k: k.label(),
    )
    def test_height_bounds(self, kind):
        from nphk.classify import height, linear_height

        h, h_lin = height(kind), linear_height(kind)
        for j in range(9):
            p = F(1) + F(j, 8)
            u = F(1) / p - F(1, 2)
            lower = (F(6) - F(2) / h_lin) * u
            upper = (F(6) - F(2) / h) * u
            k = kp_point(kind, p)
            assert lower <= k <= upper
            assert sugimoto_inf_threshold(3, F(1) / h, p) == upper
            if h == h_lin:
                assert lower == k == upper
