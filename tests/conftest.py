"""Shared generators for seeded randomized tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from nphk.corpus import CORPUS
from nphk.corpus import random_invertible_map as rand_invertible_map  # re-exported for the tests
from nphk.polyring import BivariatePolynomial, UnivariatePolynomial


def rand_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def rand_poly(rng: random.Random, max_terms: int = 6, max_deg: int = 6) -> BivariatePolynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a) if a < max_deg else 0
        terms[(a, b)] = rand_coeff(rng)
    return BivariatePolynomial(terms)


def rand_critical_poly(rng: random.Random, max_terms: int = 6, max_deg: int = 6) -> BivariatePolynomial:
    """Random phase with no constant or linear terms."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            a = rng.randint(0, max_deg)
            b = rng.randint(0, max_deg - a) if a < max_deg else 0
            if a + b >= 2:
                break
        terms[(a, b)] = rand_coeff(rng)
    return BivariatePolynomial(terms)


def rand_univariate(rng: random.Random, max_deg: int = 5) -> UnivariatePolynomial:
    coeffs = {d: rand_coeff(rng) for d in rng.sample(range(max_deg + 1), rng.randint(1, 3))}
    return UnivariatePolynomial(coeffs)


def rand_support(rng: random.Random, max_points: int = 12, max_coord: int = 20):
    count = rng.randint(1, max_points)
    pts = set()
    while len(pts) < count:
        a = rng.randint(0, max_coord)
        b = rng.randint(0, max_coord)
        if a + b >= 2:
            pts.add((a, b))
    return frozenset(pts)


@pytest.fixture
def rng():
    return random.Random(20260808)


# -- the phase text grammar of the analyze properties ---------------------------


def join_terms(parts, ops):
    return "".join(part + op for part, op in zip(parts, ops)) + parts[-1]


_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "0", "1", "2", "3/2", "-1/3"]),
    st.builds("{}^{}".format, st.sampled_from(["x", "y"]), st.integers(0, 12)),
)
_SUMS = st.lists(_LEAVES, min_size=1, max_size=3).flatmap(
    lambda parts: st.builds(
        join_terms, st.just(parts), st.lists(st.sampled_from([" + ", " - ", "*", " "]), min_size=len(parts) - 1, max_size=len(parts) - 1)
    )
)
_FACTORS = st.one_of(
    _LEAVES,
    st.builds("({})^{}".format, _SUMS, st.integers(0, 12)),
    st.sampled_from([f"({row.phase})" for row in CORPUS]),
)
# well-formed phase text: sums and products of leaves, powers of sums and corpus phases
PHASE_TEXTS = st.lists(_FACTORS, min_size=1, max_size=4).flatmap(
    lambda parts: st.builds(
        join_terms, st.just(parts), st.lists(st.sampled_from([" + ", " - ", "*"]), min_size=len(parts) - 1, max_size=len(parts) - 1)
    )
)
