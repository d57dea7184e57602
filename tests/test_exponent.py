from fractions import Fraction

import pytest

from nphk.classify import CASE_C, SingularityKind, UnsupportedKindError, NONDEGENERATE_OR_RANK_POSITIVE
from nphk.exponent import (
    BoundednessAnchor,
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
        assert first.u_hi == F(5, 12)  # (2m+1)/(4m+4) at m=2
        assert first.value(F(5, 12)) == second.value(F(5, 12))

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
