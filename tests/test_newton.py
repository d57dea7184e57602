import random
from fractions import Fraction

import pytest

from nphk.newton import (
    EDGE,
    RAY_HORIZONTAL,
    RAY_VERTICAL,
    VERTEX,
    Face,
    FaceNotIncident,
    NotCriticalAtOrigin,
    _staircase,
    build_polygon,
    face_part,
    taylor_support,
)
from nphk.polyring import LinearMap2, apply_linear, parse_polynomial
from conftest import rand_support

F = Fraction


def oracle_distance(points):
    """Scan every supporting line with a normal from pairwise differences or an axis.

    d is the largest c/(u1+u2) over directions u >= 0, where c = min u . alpha.
    """
    pts = sorted(points)
    dirs = {(1, 0), (0, 1), (1, 1)}
    for a in pts:
        for b in pts:
            u = (a[1] - b[1], b[0] - a[0])
            if u != (0, 0) and u[0] >= 0 and u[1] >= 0:
                dirs.add(u)
    best = F(0)
    for u1, u2 in dirs:
        c = min(u1 * a + u2 * b for a, b in pts)
        if c > 0:
            best = max(best, F(c, u1 + u2))
    return best


class TestTaylorSupport:
    def test_examples(self):
        assert taylor_support(parse_polynomial("x^2 + y^2")) == frozenset({(2, 0), (0, 2)})
        assert taylor_support(parse_polynomial("(y - x^2)^2 + x^7")) == frozenset(
            {(0, 2), (2, 1), (4, 0), (7, 0)}
        )
        assert taylor_support(parse_polynomial("x^2*y + y^3")) == frozenset({(2, 1), (0, 3)})

    def test_rejects_linear_terms(self):
        with pytest.raises(NotCriticalAtOrigin):
            taylor_support(parse_polynomial("x + y^2"))
        with pytest.raises(NotCriticalAtOrigin):
            taylor_support(parse_polynomial("1 + x^2"))


class TestBuildPolygon:
    def test_symmetric_edge(self):
        poly = build_polygon({(2, 0), (0, 2)})
        assert poly.vertices == ((0, 2), (2, 0))
        assert poly.edges[0].weight == (F(1, 2), F(1, 2))

    def test_collinear_and_dominated_points_absorbed(self):
        poly = build_polygon({(0, 2), (2, 1), (4, 0), (7, 0)})
        assert poly.vertices == ((0, 2), (4, 0))
        assert poly.edges[0].weight == (F(1, 4), F(1, 2))

    def test_two_point_edge_weight(self):
        poly = build_polygon({(1, 2), (7, 0)})
        assert poly.vertices == ((1, 2), (7, 0))
        assert poly.edges[0].weight == (F(1, 7), F(3, 7))

    def test_rays_present(self):
        poly = build_polygon({(2, 0), (0, 2)})
        kinds = [f.kind for f in poly.faces]
        assert kinds[0] == RAY_VERTICAL and kinds[-1] == RAY_HORIZONTAL

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            build_polygon(set())


class TestNewtonDistance:
    def test_symmetric(self):
        poly = build_polygon({(2, 0), (0, 2)})
        d, principal = poly.distance, poly.principal_face
        assert d == 1 and principal.kind == EDGE

    def test_cubic_edge(self):
        poly = build_polygon({(2, 1), (0, 3)})
        d, principal = poly.distance, poly.principal_face
        assert d == F(3, 2) and principal.kind == EDGE

    def test_ray_intersection(self):
        poly = build_polygon({(0, 2)})
        d, principal = poly.distance, poly.principal_face
        assert d == 2 and principal.kind == RAY_HORIZONTAL

    def test_vertex_principal(self):
        poly = build_polygon({(2, 2), (4, 4)})
        d, principal = poly.distance, poly.principal_face
        assert d == 2 and principal.kind == VERTEX and principal.points[0] == (2, 2)


class TestFacePart:
    def test_principal_edge_selection(self):
        p = parse_polynomial("x^2*y + y^3 + x^5")
        poly = build_polygon(taylor_support(p))
        assert face_part(p, poly.principal_face) == parse_polynomial("x^2*y + y^3")

    def test_whole_diagram(self):
        p = parse_polynomial("x^2 + y^2")
        poly = build_polygon(taylor_support(p))
        assert face_part(p, poly.edges[0]) == p

    def test_edge_of_sheared_square(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        poly = build_polygon(taylor_support(p))
        assert face_part(p, poly.edges[0]) == parse_polynomial("y^2 - 2*x^2*y + x^4")

    def test_foreign_face_rejected(self):
        p = parse_polynomial("x^2 + y^2")
        stranger = Face(EDGE, ((F(0), F(3)), (F(3), F(0))), (F(1, 3), F(1, 3)))
        with pytest.raises(FaceNotIncident):
            face_part(p, stranger)


class TestDistanceUnderLinear:
    @staticmethod
    def distance(p, m):
        return build_polygon(taylor_support(apply_linear(p, m))).distance

    def test_identity(self):
        p = parse_polynomial("(y - x^2)^2 + x^7")
        assert self.distance(p, LinearMap2.identity()) == F(4, 3)

    def test_full_rank_quadratic_stays_one(self):
        p = parse_polynomial("x^2 + y^2")
        m = LinearMap2(1, 1, -1, 1)
        assert self.distance(p, m) == 1

    def test_shear_to_principal_axis(self):
        p = parse_polynomial("(x + y)^2")
        m = LinearMap2(1, 0, -1, 1)  # (x, y) -> (x, y - x)
        assert self.distance(p, m) == 2


class TestAgainstOracle:
    def test_random_supports(self, rng):
        for _ in range(60):
            support = rand_support(rng)
            assert build_polygon(support).distance == oracle_distance(support)

    def test_monotone_under_added_points(self, rng):
        for _ in range(40):
            support = set(rand_support(rng))
            d_before = build_polygon(support).distance
            a, b = rng.randint(0, 20), rng.randint(0, 20)
            if a + b < 2:
                a = 2
            support.add((a, b))
            assert build_polygon(support).distance <= d_before

    def test_weight_identity_on_edges(self, rng):
        for _ in range(40):
            poly = build_polygon(rand_support(rng))
            for face in poly.edges:
                k1, k2 = face.weight
                for t1, t2 in face.points:
                    assert k1 * t1 + k2 * t2 == 1

    def test_principal_face_contains_bisectrix_point(self, rng):
        for _ in range(40):
            poly = build_polygon(rand_support(rng))
            d = poly.distance
            assert poly.principal_face.contains(d, d)
            if (d, d) in {(F(a), F(b)) for a, b in poly.vertices}:
                assert poly.principal_face.kind == VERTEX


def _criterion_4_supports():
    """The 200 seeded supports of acceptance criterion 4."""
    rng = random.Random(1729)
    return [rand_support(rng, max_points=12, max_coord=20) for _ in range(200)]


class TestCriterion4Supports:
    def test_staircase_is_the_set_of_minimal_points(self):
        for support in _criterion_4_supports():
            minimal = [q for q in support if not any(p != q and p[0] <= q[0] and p[1] <= q[1] for p in support)]
            assert _staircase(support) == sorted(minimal)

    def test_principal_face_is_the_vertex_or_the_one_face_at_the_bisectrix(self):
        for support in _criterion_4_supports():
            poly = build_polygon(support)
            d = poly.distance
            if (d, d) in poly.vertices:
                assert poly.principal_face == Face(VERTEX, ((d, d),))
            else:
                assert [f for f in poly.faces if f.contains(d, d)] == [poly.principal_face]
