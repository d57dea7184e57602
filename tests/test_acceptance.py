"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two numerical criteria (5 and 6) dominate the runtime; everything
else is exact rational arithmetic and finishes in seconds.
"""

import random
import time

from nphk.corpus import (
    CORPUS,
    check_affine_invariance,
    check_knapp_threshold,
    check_nla_sweep,
    check_row,
    check_sandwich,
)
from nphk.newton import build_polygon
from nphk.oscint import (
    DEFAULT_LAMBDA_GRID,
    AmplitudeSpec,
    fit_decay,
    randol_lq_scan,
)
from nphk.polyring import parse_polynomial
from conftest import rand_support
from test_newton import oracle_distance


def _report(number, label, failures, elapsed, limit):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {label}: {status} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures)
    assert elapsed < limit, f"criterion {number} exceeded its time budget: {elapsed:.1f}s"


def test_criterion_1_classification_corpus():
    start = time.time()
    failures = [r.line() for r in map(check_row, CORPUS) if not r.ok]
    _report(1, "classification corpus (exact)", failures, time.time() - start, 5.0)


def test_criterion_2_interpolation_identity_sweep():
    start = time.time()
    result = check_nla_sweep()
    failures = [] if result.ok else [result.line()]
    _report(2, "two-line interpolation identity", failures, time.time() - start, 1.0)


def test_criterion_3_height_sandwich():
    start = time.time()
    failures = [r.line() for r in map(check_sandwich, CORPUS) if not r.ok]
    _report(3, "height sandwich for k_p", failures, time.time() - start, 5.0)


def test_criterion_4_distance_oracle():
    start = time.time()
    rng = random.Random(1729)
    failures = []
    for i in range(200):
        support = rand_support(rng, max_points=12, max_coord=20)
        got = build_polygon(support).distance
        want = oracle_distance(support)
        if got != want:
            failures.append(f"support {sorted(support)}: {got} != {want}")
    _report(4, "distance vs supporting-line oracle (200 seeded)", failures, time.time() - start, 10.0)


def test_criterion_5_decay_fits():
    start = time.time()
    rows = [
        ("x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), 1.0, 0.05),
        ("x^2*y + y^3", AmplitudeSpec(radius=0.6, order=2), 2.0 / 3.0, 0.07),
        ("(y - x^2)^2 + x^5", AmplitudeSpec(radius=0.4, order=2), 3.0 / 5.0, 0.07),
    ]
    failures = []
    for text, amp, target, tol in rows:
        fit = fit_decay(parse_polynomial(text), amp, DEFAULT_LAMBDA_GRID, s=(0.0, 0.0))
        assert fit.skipped == ()
        gap = abs(fit.gamma_hat - target)
        print(f"    decay {text}: gamma_hat={fit.gamma_hat:.4f} target={target:.4f} gap={gap:.4f}")
        if gap > tol:
            failures.append(f"{text}: gamma_hat={fit.gamma_hat:.4f} off {target:.4f} by {gap:.4f} > {tol}")
        if max(fit.quadrature_error_bound) >= 1e-3:
            failures.append(f"{text}: quadrature error bound {max(fit.quadrature_error_bound):.2e}")
    _report(5, "decay exponents at desk scale", failures, time.time() - start, 600.0)


def test_criterion_6_randol_lq_probe():
    start = time.time()
    scan = randol_lq_scan(
        parse_polynomial("(y - x^2)^2"),
        AmplitudeSpec(),
        2,
        q_list=(2.0, 8.0),
    )
    failures = []
    q2_ratio = scan.q_report[2.0][2]
    q8_ratio = scan.q_report[8.0][2]
    print(f"    L^q refinement ratios: q=2 -> {q2_ratio:.3f}, q=8 -> {q8_ratio:.3f}")
    if not (0.8 <= q2_ratio <= 1.25):
        failures.append(f"q=2 ratio {q2_ratio:.3f} outside [0.8, 1.25]")
    if not q8_ratio > 1.5:
        failures.append(f"q=8 ratio {q8_ratio:.3f} not > 1.5")
    _report(6, "maximal-function L^q integrability probe", failures, time.time() - start, 900.0)


def test_criterion_7_knapp_threshold_coherence():
    start = time.time()
    result = check_knapp_threshold()
    failures = [] if result.ok else [result.line()]
    _report(7, "concentrated-sequence threshold at k_p", failures, time.time() - start, 5.0)


def test_criterion_8_affine_invariance():
    start = time.time()
    result = check_affine_invariance(CORPUS, seed=31337, per_row=5)  # 50 seeded applications
    failures = [] if result.ok else [result.line()]
    _report(8, "affine invariance of the classification", failures, time.time() - start, 30.0)


def test_supplementary_faithful_branch_rate():
    """Non-criterion demonstration: a rank-zero squared-branch phase with the
    same height 5/3 measures the same predicted rate 3/5."""
    fit = fit_decay(
        parse_polynomial("x*y^2 + x^5"),
        AmplitudeSpec(radius=0.6, order=2),
        [float(2**j) for j in range(6, 14)],
    )
    assert fit.skipped == ()
    print(f"    faithful branch phase: gamma_hat={fit.gamma_hat:.4f} (predicted 0.6)")
    assert abs(fit.gamma_hat - 0.6) < 0.05
