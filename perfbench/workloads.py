"""The three workloads: seeded inputs, one round of work, and its checks.

Each workload builds all its inputs from the seed during set-up.  The
program receives only phase strings and ``AmplitudeSpec`` values.  A round
is the unit of work a run repeats; every call into nphk is an operation that
either passes its check or counts as failed.
"""

from __future__ import annotations

import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from nphk import cli, corpus, oscint, polyring

# Exit statuses cli documents; any other status is a failed operation.
DOCUMENTED_STATUS = frozenset({cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_PARSE, cli.EXIT_OUT_OF_SCOPE, cli.EXIT_NUMERIC})

# The label the classifier gives a rank-one D row whose branch a shear cancelled
# (the known defect: (y - x^3)^2 + x^9 under y -> y + x^3 becomes y^2 + x^9).
DEFECT_LABEL = "NondegenerateOrRankPositive"

ANALYZE_P = (Fraction(1), Fraction(4, 3), Fraction(2))
LINEAR_ENTRY = 3
SHEAR_DEGREES = (2, 3)
SHEAR_COEFFS = (-3, -2, -1, 1, 2, 3)
# Images per corpus row in one exact_analyze round.  The cheap shear images put
# the median and the 95th percentile inside dense clusters of the latency
# distribution; with two shears per row the 95th percentile sat on the jump
# from about 150 ms to 200 ms and moved by a quarter between runs.
ROUND_MIX = (("linear", 1), ("shear", 5), ("shear_linear", 1))

# phase id, phase, amplitude radius, target 1/h, tolerance on the fitted rate
DECAY_ROWS = (
    ("nondeg", "x^2 + y^2", 0.4, 1.0, 0.05),
    ("D4", "x^2*y + y^3", 0.6, 2.0 / 3.0, 0.07),
    ("D6", "(y - x^2)^2 + x^5", 0.4, 3.0 / 5.0, 0.07),
    ("xy2x5", "x*y^2 + x^5", 0.6, 0.6, 0.05),
)
DECAY_LAMBDAS = oscint.dyadic_grid(64.0, 4096.0)
QUAD_ERR_LIMIT = 1e-3

SCAN_PHASE = "(y - x^2)^2"
SCAN_M = 2
SCAN_Q = (2.0, 8.0)
SCAN_Q2_RANGE = (0.8, 1.25)
SCAN_Q8_MIN = 1.5

# Inputs are drawn for this many rounds; a longer run starts over at round 0.
MAX_ROUNDS = 64
# Seed of the map and shear stream that exact_analyze shares across seeds.
SHARED_STREAM = 2403


def substitute(text: str, x: str, y: str) -> str:
    """The phase text with x and y replaced simultaneously by the given forms."""
    return re.sub(r"[xy]", lambda m: f"({x})" if m.group() == "x" else f"({y})", text)


def linear_form(terms: Sequence[Tuple[int, str]]) -> str:
    """Integer combination such as ``2*x - y`` (zero terms dropped)."""
    out = ""
    for coef, var in terms:
        if coef == 0:
            continue
        mag = "" if abs(coef) == 1 else f"{abs(coef)}*"
        if not out:
            out = ("-" if coef < 0 else "") + mag + var
        else:
            out += (" - " if coef < 0 else " + ") + mag + var
    return out


def reflect(text: str, rng: random.Random) -> str:
    """The phase under x -> +-x, y -> +-y.

    A linear change of variables keeps the class; a radial bump and a
    symmetric offset grid are invariant under it, so |I(lambda, 0)| and the
    maximal-function sums are unchanged, and so are the node grids' shapes.
    """
    return substitute(text, rng.choice(("x", "-x")), rng.choice(("y", "-y")))


# -- exact_analyze -----------------------------------------------------------------


@dataclass(frozen=True)
class Image:
    text: str
    row: int
    kind: str
    expected: str
    cancels_branch: bool


def _branch_degree(row: corpus.CorpusRow) -> Optional[int]:
    """m for a rank-one D row written as (y - x^m)^2 + ..., else None."""
    if isinstance(row.m, int) and row.phase.startswith(f"(y - x^{row.m})^2"):
        return row.m
    return None


def _random_linear(rng: random.Random) -> Tuple[int, int, int, int]:
    while True:
        a, b, c, d = (rng.randint(-LINEAR_ENTRY, LINEAR_ENTRY) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


def make_image(row_index: int, kind: str, rng: random.Random) -> Image:
    row = corpus.CORPUS[row_index]
    text = row.phase
    cancels = False
    if kind in ("shear", "shear_linear"):
        k = rng.choice(SHEAR_DEGREES)
        c = rng.choice(SHEAR_COEFFS)
        text = substitute(text, "x", linear_form([(1, "y"), (c, f"x^{k}")]))
        cancels = _branch_degree(row) == k and c == 1
    if kind in ("linear", "shear_linear"):
        a, b, c, d = _random_linear(rng)
        text = substitute(text, linear_form([(a, "x"), (b, "y")]), linear_form([(c, "x"), (d, "y")]))
    return Image(text, row_index, kind, row.kind_label, cancels)


def exact_inputs(seed: int, rounds: int = MAX_ROUNDS, rows: Optional[Sequence[int]] = None, mix=ROUND_MIX):
    """Rounds of images of the corpus rows, each round followed by a corpus replay.

    The maps and shears come from one stream that every seed shares (common
    random numbers); the seed picks a reflection of each image, the order of
    the images and the replay's seed.  A run holds only about ten images of
    each costly kind, so with maps drawn per seed the p95 latency moved by
    8-20% between seeds; shared draws keep runs comparable while the seed
    still changes every input text.
    """
    shared = random.Random(SHARED_STREAM)
    rng = random.Random(seed)
    rows = range(len(corpus.CORPUS)) if rows is None else rows
    out = []
    for r in range(rounds):
        images = [make_image(i, kind, shared) for i in rows for kind, count in mix for _ in range(count)]
        images = [Image(reflect(img.text, rng), img.row, img.kind, img.expected, img.cancels_branch) for img in images]
        rng.shuffle(images)
        out.append({"images": images, "replay_seed": seed * MAX_ROUNDS + r})
    return out


# -- decay_fit ---------------------------------------------------------------------


@dataclass(frozen=True)
class DecayCase:
    phase_id: str
    text: str
    amp: oscint.AmplitudeSpec
    target: float
    tol: float


def decay_inputs(seed: int, rounds: int = MAX_ROUNDS, rows=DECAY_ROWS, lambdas=DECAY_LAMBDAS):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        cases = [
            DecayCase(pid, reflect(text, rng), oscint.AmplitudeSpec(radius=radius, order=2), target, tol)
            for pid, text, radius, target, tol in rows
        ]
        rng.shuffle(cases)
        out.append({"cases": cases, "lambdas": tuple(lambdas)})
    return out


# -- randol_scan -------------------------------------------------------------------


def scan_inputs(seed: int, rounds: int = MAX_ROUNDS, lambdas=oscint.DEFAULT_LAMBDA_GRID):
    rng = random.Random(seed)
    return [
        {"text": reflect(SCAN_PHASE, rng), "amp": oscint.AmplitudeSpec(), "lambdas": tuple(lambdas)}
        for _ in range(rounds)
    ]


# -- running and checking ----------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with per-operation latencies."""

    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    latencies_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    records: Dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str, known_defect: bool = False) -> None:
        self.failed += 1
        self.known_defect += known_defect
        if len(self.failures) < 20:
            self.failures.append(what)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_exact_round(inputs: Dict[str, Any], tally: Tally, tracer=None) -> None:
    for op, img in enumerate(inputs["images"]):
        if tracer is not None:
            tracer.op = op
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            report, status = cli.build_report(img.text, ANALYZE_P)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            tally.latencies_s.append(time.perf_counter() - t0)
            tally.fail(f"{img.text}: {_error(exc)}")
            continue
        tally.latencies_s.append(time.perf_counter() - t0)
        label = report["kind_label"]
        if status not in DOCUMENTED_STATUS:
            tally.fail(f"{img.text}: undocumented status {status}")
        elif label != img.expected:
            defect = img.cancels_branch and label == DEFECT_LABEL
            tally.fail(f"{img.text}: {label} != {img.expected}", known_defect=defect)
    if tracer is not None:
        tracer.op = len(inputs["images"])
    try:
        results = corpus.run_corpus(seed=inputs["replay_seed"])
    except Exception as exc:
        tally.attempted += 1
        tally.fail(f"corpus replay: {_error(exc)}")
        return
    for res in results:
        tally.attempted += 1
        if not res.ok:
            tally.fail(res.line())


def _check_fit(case: DecayCase, fit, tally: Tally) -> None:
    gap = abs(fit.gamma_hat - case.target)
    tally.records.setdefault("gamma_hat", {})[case.phase_id] = fit.gamma_hat
    tally.records.setdefault("gamma_gap", {})[case.phase_id] = gap
    err = max(fit.quadrature_error_bound)
    tally.records["quad_err_max"] = max(tally.records.get("quad_err_max", 0.0), err)
    if gap > case.tol:
        tally.fail(f"{case.phase_id} {case.text}: gamma_hat {fit.gamma_hat:.4f} off {case.target:.4f} by {gap:.4f}")
    elif err >= QUAD_ERR_LIMIT:
        tally.fail(f"{case.phase_id} {case.text}: quadrature error bound {err:.2e}")


def run_decay_round(inputs: Dict[str, Any], tally: Tally) -> Dict[str, Any]:
    """fit_decay per phase; returns the fits by phase text for a traced replay."""
    fits = {}
    for case in inputs["cases"]:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            phi = polyring.parse_polynomial(case.text)
            fit = oscint.fit_decay(phi, case.amp, inputs["lambdas"], s=(0.0, 0.0))
        except Exception as exc:
            tally.latencies_s.append(time.perf_counter() - t0)
            tally.fail(f"{case.phase_id} {case.text}: {_error(exc)}")
            continue
        tally.latencies_s.append(time.perf_counter() - t0)
        fits[case.text] = fit
        _check_fit(case, fit, tally)
    return fits


def run_decay_round_traced(inputs: Dict[str, Any], tally: Tally, tracer, fits: Dict[str, Any]) -> None:
    """The public steps fit_decay composes, which must give the untraced fit exactly."""
    lams = inputs["lambdas"]
    for op, case in enumerate(inputs["cases"]):
        tracer.op = op
        tally.attempted += 1
        reference = fits.get(case.text)
        try:
            phi = polyring.parse_polynomial(case.text)
            if not oscint.check_amplitude_support(phi, case.amp):
                raise ValueError("phase has critical points separated from the origin inside the support")
            values = [oscint.eval_oscillatory(phi, case.amp, lam) for lam in lams]
            errors = reference.quadrature_error_bound if reference else [math.nan] * len(lams)
            fit = oscint.fit_decay_from_samples(lams, values, errors)
        except Exception as exc:
            tally.fail(f"{case.phase_id} {case.text} (traced): {_error(exc)}")
            continue
        if reference is None or fit.values != reference.values:
            tally.fail(f"{case.phase_id} {case.text}: traced steps differ from fit_decay")


def _check_scan(scan, tally: Tally) -> None:
    q2 = scan.q_report[2.0][2]
    q8 = scan.q_report[8.0][2]
    tally.records["scan_ratio"] = {"q2": q2, "q8": q8}
    tally.records["scan_s_points"] = len(scan.s_grid) * 5  # coarse grid plus the 2x refined one
    if not SCAN_Q2_RANGE[0] <= q2 <= SCAN_Q2_RANGE[1]:
        tally.fail(f"q=2 ratio {q2:.4f} outside {SCAN_Q2_RANGE}")
    elif not q8 > SCAN_Q8_MIN:
        tally.fail(f"q=8 ratio {q8:.4f} not > {SCAN_Q8_MIN}")


def run_scan_round(inputs: Dict[str, Any], tally: Tally):
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        phi = polyring.parse_polynomial(inputs["text"])
        scan = oscint.randol_lq_scan(
            phi, inputs["amp"], SCAN_M, q_list=SCAN_Q, lambda_grid=inputs["lambdas"]
        )
    except Exception as exc:
        tally.latencies_s.append(time.perf_counter() - t0)
        tally.fail(f"scan {inputs['text']}: {_error(exc)}")
        return None
    tally.latencies_s.append(time.perf_counter() - t0)
    _check_scan(scan, tally)
    return scan


def run_scan_round_traced(inputs: Dict[str, Any], tally: Tally, tracer, reference) -> None:
    """One scan per lambda, validated then not; the running max must rebuild the full scan."""
    tally.attempted += 1
    try:
        phi = polyring.parse_polynomial(inputs["text"])
    except Exception as exc:
        tally.fail(f"scan {inputs['text']}: {_error(exc)}")
        return
    running = None
    for op, lam in enumerate(inputs["lambdas"]):
        tracer.op = op
        for validate in (True, False):
            tally.attempted += 1
            try:
                scan = oscint.randol_lq_scan(
                    phi, inputs["amp"], SCAN_M, q_list=SCAN_Q, lambda_grid=(lam,), validate=validate
                )
            except Exception as exc:
                tally.fail(f"scan lambda={lam:g} validate={validate}: {_error(exc)}")
                continue
            values = np.asarray(scan.M_values)
            if validate:
                running = values if running is None else np.maximum(running, values)
    if reference is None or running is None or not np.array_equal(running, np.asarray(reference.M_values)):
        tally.fail("per-lambda scans do not rebuild the full scan's maximal function")


WORKLOADS = ("exact_analyze", "decay_fit", "randol_scan")


def make_inputs(workload: str, seed: int) -> List[Dict[str, Any]]:
    if workload == "exact_analyze":
        return exact_inputs(seed)
    if workload == "decay_fit":
        return decay_inputs(seed)
    if workload == "randol_scan":
        return scan_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
