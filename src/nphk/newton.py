"""Lattice geometry of Newton polygons for bivariate phases.

The polygon of a support S is the convex hull of the shifted quadrants
alpha + R+^2 over alpha in S.  Its boundary is a vertical ray, a chain of
compact edges of increasing slope, and a horizontal ray.  Every compact edge
carries the unique supporting weight kappa with kappa . t = 1 along the edge;
rays carry a weight with one zero component when their supporting line does
not pass through the origin.  The distance d is where the bisectrix t1 = t2
crosses the boundary, and the principal face is the smallest face containing
(d, d).  All computations are exact over the rationals.

``build_polygon`` reads the staircase of minimal points off one sorted pass
over the support, and the principal face off the faces whose weight attains
d: one such face is the principal face, and two share the vertex (d, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Tuple

from .polyring import BivariatePolynomial

LatticeSet = FrozenSet[Tuple[int, int]]

VERTEX = "vertex"
EDGE = "compact-edge"
RAY_VERTICAL = "ray-vertical"
RAY_HORIZONTAL = "ray-horizontal"


class NotCriticalAtOrigin(ValueError):
    """The phase has constant or linear terms, so the origin is not a critical point."""


class FaceNotIncident(ValueError):
    """A face was queried against a polygon it does not belong to."""


@dataclass(frozen=True)
class Face:
    """One boundary face: a vertex, a compact edge, or an unbounded ray.

    ``points`` holds the vertex, or both edge endpoints ordered by t1; rays
    store their base vertex and extend along the positive axis direction.
    ``weight`` is the supporting (kappa1, kappa2) normalized to kappa . t = 1,
    or None when no such normalization exists (rays lying on an axis).
    """

    kind: str
    points: Tuple[Tuple[Fraction, Fraction], ...]
    weight: Optional[Tuple[Fraction, Fraction]] = None

    def contains(self, t1: Fraction, t2: Fraction) -> bool:
        if self.kind == VERTEX:
            return (t1, t2) == self.points[0]
        if self.kind == EDGE:
            (a1, a2), (b1, b2) = self.points
            if not (min(a1, b1) <= t1 <= max(a1, b1)):
                return False
            return (b1 - a1) * (t2 - a2) == (b2 - a2) * (t1 - a1)
        base1, base2 = self.points[0]
        if self.kind == RAY_VERTICAL:
            return t1 == base1 and t2 >= base2
        return t2 == base2 and t1 >= base1


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertices, boundary faces, and bisectrix data of one Newton polygon."""

    vertices: Tuple[Tuple[int, int], ...]
    faces: Tuple[Face, ...]
    distance: Fraction
    principal_face: Face

    @property
    def edges(self) -> Tuple[Face, ...]:
        return tuple(f for f in self.faces if f.kind == EDGE)


def taylor_support(p: BivariatePolynomial) -> LatticeSet:
    """Exponent pairs with nonzero coefficient; rejects non-critical phases."""
    points = set(p._nums)
    bad = [ab for ab in points if ab[0] + ab[1] <= 1]
    if bad:
        raise NotCriticalAtOrigin(
            f"phase has terms of total degree <= 1 at exponents {sorted(bad)}"
        )
    return frozenset(points)


def _staircase(points) -> list:
    """Minimal points of the support under componentwise domination, in one
    pass: in lexicographic order, a point is minimal exactly when its second
    coordinate is below that of every earlier point."""
    keep: list = []
    for q in sorted(points):
        if not keep or q[1] < keep[-1][1]:
            keep.append(q)
    return keep


def lower_hull(points: list) -> list:
    """Lower convex chain of points sorted by increasing first coordinate.

    Cross-product test keeps only points where the chain turns
    counter-clockwise.  On an antichain these are the points extreme for the
    hull of the shifted quadrants; on the points of a graph, the corners of
    its lower convex envelope.
    """
    chain: list = []
    for q in points:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            cross = (x2 - x1) * (q[1] - y1) - (y2 - y1) * (q[0] - x1)
            if cross <= 0:  # clockwise or collinear: middle point is not extreme
                chain.pop()
            else:
                break
        chain.append(q)
    return chain


def _edge_weight(v, w) -> Tuple[Fraction, Fraction]:
    """Solve kappa . v = kappa . w = 1 for the edge through lattice points v, w."""
    det = Fraction(v[0]) * w[1] - Fraction(v[1]) * w[0]
    k1 = (Fraction(w[1]) - v[1]) / det
    k2 = (Fraction(v[0]) - w[0]) / det
    return (k1, k2)


def build_polygon(support) -> NewtonPolygon:
    """Build the polygon of a nonempty support set of nonnegative lattice points."""
    pts = set(tuple(p) for p in support)
    if not pts:
        raise ValueError("empty support")
    for a, b in pts:
        if a < 0 or b < 0:
            raise ValueError(f"support point {(a, b)} outside the positive quadrant")

    verts = lower_hull(_staircase(pts))
    faces = []
    top = verts[0]
    bottom = verts[-1]

    vweight = (Fraction(1, top[0]), Fraction(0)) if top[0] > 0 else None
    faces.append(Face(RAY_VERTICAL, ((Fraction(top[0]), Fraction(top[1])),), vweight))
    for v, w in zip(verts, verts[1:]):
        faces.append(
            Face(
                EDGE,
                ((Fraction(v[0]), Fraction(v[1])), (Fraction(w[0]), Fraction(w[1]))),
                _edge_weight(v, w),
            )
        )
    hweight = (Fraction(0), Fraction(1, bottom[1])) if bottom[1] > 0 else None
    faces.append(Face(RAY_HORIZONTAL, ((Fraction(bottom[0]), Fraction(bottom[1])),), hweight))

    # d is the largest 1/|kappa| over supporting lines: every face's line keeps
    # the polygon in {kappa . t >= 1}, and (d, d) saturates the one through it.
    # A line through (d, d) meets the polygon in its face, so the faces that
    # attain d are the one face containing (d, d), or the two that meet there.
    reach = [(Fraction(1) / (f.weight[0] + f.weight[1]), f) for f in faces if f.weight is not None]
    d = max(r for r, _ in reach)
    attained = [f for r, f in reach if r == d]
    principal = attained[0] if len(attained) == 1 else Face(VERTEX, ((d, d),))

    return NewtonPolygon(tuple(verts), tuple(faces), d, principal)


def face_part(p: BivariatePolynomial, face: Face) -> BivariatePolynomial:
    """Sum of the terms of p whose exponents lie on the given face of its polygon."""
    poly = build_polygon(taylor_support(p))
    known = set(poly.faces)
    known.update(Face(VERTEX, ((Fraction(v[0]), Fraction(v[1])),)) for v in poly.vertices)
    if face not in known:
        raise FaceNotIncident(f"face {face} is not a face of the polygon of {p.to_string()}")
    out = {
        (a, b): c
        for (a, b), c in p.terms.items()
        if face.contains(Fraction(a), Fraction(b))
    }
    return BivariatePolynomial(out, p.trunc)
