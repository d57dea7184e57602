"""Built-in classified corpus and the exact identity suites the CLI replays.

Each row pins the classification outcome and exponent data of one phase:
kind label, branch orders (m, n) where applicable, height, linear height,
adaptedness, and the exact k_p at p = 1.  The identity suites cover the
two-line interpolation identity, the height sandwich for k_p, the threshold
coherence of the concentrated-sequence growth exponents, and a seeded
affine-invariance spot check.  Only the row check classifies a row's phase;
the sandwich and the invariance check compare with the pinned row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import classify as cls
from . import exponent as expo
from .polyring import INFINITE_ORDER, LinearMap2, apply_linear, parse_polynomial

OrderValue = Union[int, float]


@dataclass(frozen=True)
class CorpusRow:
    phase: str
    kind_label: str
    m: Optional[OrderValue]
    n: Optional[OrderValue]
    h: Fraction
    h_lin: Fraction
    linearly_adapted: bool
    kp_at_1: Fraction


CORPUS: Tuple[CorpusRow, ...] = (
    CorpusRow("x^2*y + y^3", "D4", None, None, Fraction(3, 2), Fraction(3, 2), True, Fraction(7, 3)),
    CorpusRow("(y - x^2)^2 + x^5", "D6", 2, 5, Fraction(5, 3), Fraction(5, 3), True, Fraction(12, 5)),
    CorpusRow("(y - x^2)^2 + x^7", "D8", 2, 7, Fraction(7, 4), Fraction(5, 3), False, Fraction(17, 7)),
    CorpusRow("(y - x^3)^2 + x^9", "D10", 3, 9, Fraction(9, 5), Fraction(7, 4), False, Fraction(22, 9)),
    CorpusRow("(y - x^2)^2", "Dinf", 2, INFINITE_ORDER, Fraction(2), Fraction(5, 3), False, Fraction(5, 2)),
    CorpusRow("y^3 + x^4", "E6", None, None, Fraction(12, 7), Fraction(12, 7), True, Fraction(29, 12)),
    CorpusRow("y^3 + y*x^3", "E7", None, None, Fraction(9, 5), Fraction(9, 5), True, Fraction(22, 9)),
    CorpusRow("y^3 + x^5", "E8", None, None, Fraction(15, 8), Fraction(15, 8), True, Fraction(37, 15)),
    CorpusRow("y^3 + x^6", "CaseBIV", None, None, Fraction(2), Fraction(2), True, Fraction(5, 2)),
    CorpusRow("x^4 + y^4", "CaseC", None, None, Fraction(2), Fraction(2), True, Fraction(5, 2)),
)

SANDWICH_P_VALUES = (Fraction(1), Fraction(6, 5), Fraction(4, 3), Fraction(3, 2), Fraction(2))


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f": {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name}{suffix}"


def _kind_problems(kind: cls.SingularityKind, row: CorpusRow) -> List[str]:
    """Where a classification differs from the row's pinned label and (m, n)."""
    problems = []
    if kind.label() != row.kind_label:
        problems.append(f"kind: expected {row.kind_label}, got {kind.label()}")
    if row.m is not None and kind.m != row.m:
        problems.append(f"m: expected {row.m}, got {kind.m}")
    if row.n is not None and kind.n != row.n:
        problems.append(f"n: expected {row.n}, got {kind.n}")
    return problems


def check_row(row: CorpusRow) -> CheckResult:
    """Classify the row's phase and compare every pinned field exactly."""
    kind = cls.classify_singularity(parse_polynomial(row.phase))
    problems = _kind_problems(kind, row)
    if kind.is_supported:
        h = cls.height(kind)
        h_lin = cls.linear_height(kind)
        if h != row.h:
            problems.append(f"h: expected {row.h}, got {h}")
        if h_lin != row.h_lin:
            problems.append(f"h_lin: expected {row.h_lin}, got {h_lin}")
        la = h == h_lin
        if la != row.linearly_adapted:
            problems.append(f"LA: expected {row.linearly_adapted}, got {la}")
        kp1 = expo.kp_point(h, h_lin, 1)
        if kp1 != row.kp_at_1:
            problems.append(f"k_p(1): expected {row.kp_at_1}, got {kp1}")
    else:
        problems.append(f"kind {kind.tag} is unsupported")
    return CheckResult(f"corpus {row.phase} [{row.kind_label}]", not problems, "; ".join(problems))


def check_sandwich(row: CorpusRow) -> CheckResult:
    """(6 - 2/h_lin) u <= k_p <= (6 - 2/h) u exactly, equalities when adapted,
    on the row's pinned h and h_lin (``check_row`` checks them)."""
    problems = []
    for p in SANDWICH_P_VALUES:
        u = Fraction(1) / p - Fraction(1, 2)
        lower = (Fraction(6) - Fraction(2) / row.h_lin) * u
        upper = (Fraction(6) - Fraction(2) / row.h) * u
        kp = expo.kp_point(row.h, row.h_lin, p)
        if not (lower <= kp <= upper):
            problems.append(f"p={p}: {lower} <= {kp} <= {upper} fails")
        if row.linearly_adapted and not (lower == kp == upper):
            problems.append(f"p={p}: adapted equality fails")
    return CheckResult(f"sandwich {row.phase}", not problems, "; ".join(problems))


def check_nla_sweep() -> CheckResult:
    """The interpolation identity on every non-adapted D(m, n), m = 2..6, n <= 24 or infinite."""
    problems = []
    for m in range(2, 7):
        for n in list(range(2 * m + 2, 25)) + [INFINITE_ORDER]:
            kind = cls.SingularityKind.d_type(m, n)
            if not expo.verify_nla_identity(cls.height(kind), cls.linear_height(kind)):
                problems.append(f"(m={m}, n={n})")
    return CheckResult("interpolation identity sweep", not problems, "; ".join(problems))


def check_knapp_threshold() -> CheckResult:
    """k_p(1) = 17/7 for D(2, 7), and its concentrated-sequence growth flips sign exactly there."""
    kind = cls.SingularityKind.d_type(2, 7)
    h, h_lin = cls.height(kind), cls.linear_height(kind)  # 7/4, 5/3
    k_star = expo.kp_point(h, h_lin, 1)
    problems = [] if k_star == Fraction(17, 7) else [f"k_p(1) = {k_star} != 17/7"]
    for eps in (Fraction(0), Fraction(1, 100), Fraction(1, 10**6)):
        below = expo.knapp_exponent_nla(h, h_lin, 1, k_star - eps)
        above = expo.knapp_exponent_nla(h, h_lin, 1, k_star + eps)
        if (below, above) != (eps, -eps):
            problems.append(f"g(k*-{eps})={below}, g(k*+{eps})={above}")
    return CheckResult("knapp threshold D(2,7)", not problems, "; ".join(problems))


def random_invertible_map(rng: random.Random) -> LinearMap2:
    """Integer linear map with entries in [-3, 3] and nonzero determinant."""
    while True:
        vals = [rng.randint(-3, 3) for _ in range(4)]
        try:
            return LinearMap2(*vals)
        except ValueError:
            continue


def check_affine_invariance(rows: Sequence[CorpusRow], seed: int, per_row: int = 2) -> CheckResult:
    """Seeded spot check that linear images of each phase keep the row's pinned kind and (m, n)."""
    rng = random.Random(seed)
    problems = []
    for row in rows:
        phi = parse_polynomial(row.phase)
        for _ in range(per_row):
            m = random_invertible_map(rng)
            kind = cls.classify_singularity(apply_linear(phi, m))
            problems += [f"{row.phase} under {m}: {p}" for p in _kind_problems(kind, row)]
    return CheckResult(f"affine invariance (seed {seed})", not problems, "; ".join(problems))


def run_corpus(tag_filter: Optional[str] = None, seed: int = 0) -> List[CheckResult]:
    """Run the built-in classification table and the exact identity suites.

    ``tag_filter`` keeps only rows whose kind label contains the tag, and
    skips the identity suites.
    """
    rows = CORPUS
    if tag_filter:
        rows = tuple(r for r in rows if tag_filter in r.kind_label)
    results = [check_row(row) for row in rows]
    results += [check_sandwich(row) for row in rows]
    if not tag_filter:
        results.append(check_nla_sweep())
        results.append(check_knapp_threshold())
        results.append(check_affine_invariance(rows, seed))
    return results
