"""Per-layer metrics derived from one traced round's spans and checks.

Every ``<layer>.<what>_s`` is summed self time (a span's duration minus the
time its child spans cover), except ``corpus.replay_s``, the whole duration
of ``run_corpus``.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from workloads import DECAY_LAMBDAS, DECAY_ROWS
from nphk.oscint import DEFAULT_LAMBDA_GRID


def _lam(value: float) -> str:
    return f"lam{int(value)}"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {
        "cli.build_report_self_s": "s",
        "polyring.parse_s": "s",
        "polyring.parse_calls": "count",
        "polyring.terms": "count",
        "newton.polygon_s": "s",
        "newton.polygon_calls": "count",
        "newton.vertices": "count",
        "classify.classify_s": "s",
        "classify.classify_calls": "count",
        "classify.classify_p95_ms": "ms",
        "classify.heights_s": "s",
        "classify.errors": "count",
        "exponent.profile_s": "s",
        "exponent.nla_identity_s": "s",
        "exponent.calls": "count",
        "corpus.replay_s": "s",
        "corpus.checks": "count",
        "corpus.failed": "count",
        "oscint.support_check_s": "s",
    }
    units.update({f"oscint.eval_s.{_lam(lam)}": "s" for lam in DECAY_LAMBDAS})
    units.update({
        "oscint.eval_calls": "count",
        "oscint.not_converged": "count",
        "oscint.eval_peak_mb": "MB",
        "oscint.fit_s": "s",
        "oscint.quad_err_max": "ratio",
    })
    units.update({f"oscint.gamma_gap.{pid}": "1" for pid, *_ in DECAY_ROWS})
    units.update({f"oscint.scan_lambda_s.{_lam(lam)}": "s" for lam in DEFAULT_LAMBDA_GRID})
    units.update({
        "oscint.scan_s": "s",
        "oscint.scan_validate_share": "ratio",
        "oscint.scan_s_points": "count",
        "oscint.scan_peak_mb": "MB",
        "oscint.scan_ratio.q2": "ratio",
        "oscint.scan_ratio.q8": "ratio",
        "trace_overhead_s": "s",
        "trace.accounted_share": "ratio",
    })
    return units


def layer_metrics(spans: Sequence, records: Dict, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    by_name: Dict[str, List] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def each(*names: str) -> Iterable:
        for name in names:
            yield from by_name[name]

    def self_s(*names: str) -> float:
        return sum(s.self_s for s in each(*names))

    def calls(*names: str) -> int:
        return sum(1 for _ in each(*names))

    def counted(name: str, key: str) -> float:
        return sum(s.counts[key] for s in each(name) if s.counts and key in s.counts)

    classify_ms = [s.duration * 1e3 for s in each("classify.classify_singularity")]
    if len(classify_ms) >= 2:
        classify_p95 = statistics.quantiles(classify_ms, n=20, method="inclusive")[18]
    else:
        classify_p95 = classify_ms[0] if classify_ms else 0.0

    out: Dict[str, float] = {
        "cli.build_report_self_s": self_s("cli.build_report"),
        "polyring.parse_s": self_s("polyring.parse_polynomial"),
        "polyring.parse_calls": calls("polyring.parse_polynomial"),
        "polyring.terms": counted("polyring.parse_polynomial", "terms"),
        "newton.polygon_s": self_s("newton.taylor_support", "newton.build_polygon"),
        "newton.polygon_calls": calls("newton.build_polygon"),
        "newton.vertices": counted("newton.build_polygon", "vertices"),
        "classify.classify_s": self_s("classify.classify_singularity"),
        "classify.classify_calls": calls("classify.classify_singularity"),
        "classify.classify_p95_ms": classify_p95,
        "classify.heights_s": self_s("classify.height", "classify.linear_height", "classify.multiplicity_mfrak"),
        "classify.errors": sum(1 for s in each("classify.classify_singularity") if s.error),
        "exponent.profile_s": self_s("exponent.kp_profile", "exponent.value_at_p"),
        "exponent.nla_identity_s": self_s("exponent.verify_nla_identity"),
        "exponent.calls": calls("exponent.kp_profile", "exponent.value_at_p", "exponent.verify_nla_identity"),
        "corpus.replay_s": sum(s.duration for s in each("corpus.run_corpus")),
        "corpus.checks": counted("corpus.run_corpus", "checks"),
        "corpus.failed": counted("corpus.run_corpus", "failed"),
        "oscint.support_check_s": self_s("oscint.check_amplitude_support"),
    }

    evals = list(each("oscint.eval_oscillatory"))
    for lam in DECAY_LAMBDAS:
        out[f"oscint.eval_s.{_lam(lam)}"] = sum(
            s.self_s for s in evals if s.counts and s.counts.get("lambda") == lam
        )
    out["oscint.eval_calls"] = len(evals)
    out["oscint.not_converged"] = sum(1 for s in evals if s.error == "QuadratureNotConverged")
    out["oscint.eval_peak_mb"] = max((s.counts["peak_mb"] for s in evals if s.counts), default=0.0)
    out["oscint.fit_s"] = self_s("oscint.fit_decay_from_samples")
    out["oscint.quad_err_max"] = records.get("quad_err_max", 0.0)
    for pid, *_ in DECAY_ROWS:
        out[f"oscint.gamma_gap.{pid}"] = records.get("gamma_gap", {}).get(pid, 0.0)

    scans = list(each("oscint.randol_lq_scan"))
    validated: Dict[Tuple[float, ...], float] = {}
    plain: Dict[Tuple[float, ...], float] = {}
    for s in scans:
        if s.counts:
            key = tuple(s.counts["lambdas"])
            (validated if s.counts["validate"] else plain)[key] = s.self_s
    for lam in DEFAULT_LAMBDA_GRID:
        out[f"oscint.scan_lambda_s.{_lam(lam)}"] = validated.get((lam,), 0.0)
    scan_s = sum(validated.values())
    validate_s = sum(v - plain.get(k, v) for k, v in validated.items())
    out["oscint.scan_s"] = scan_s
    out["oscint.scan_validate_share"] = validate_s / scan_s if scan_s > 0 else 0.0
    out["oscint.scan_s_points"] = records.get("scan_s_points", 0)
    out["oscint.scan_peak_mb"] = max((s.counts["peak_mb"] for s in scans if s.counts), default=0.0)
    out["oscint.scan_ratio.q2"] = records.get("scan_ratio", {}).get("q2", 0.0)
    out["oscint.scan_ratio.q8"] = records.get("scan_ratio", {}).get("q8", 0.0)

    top_level_s = sum(s.duration for s in spans if s.parent is None)
    out["trace_overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.accounted_share"] = top_level_s / traced_wall_s if traced_wall_s > 0 else 0.0
    return out


def self_time_by_span(spans: Sequence) -> Dict[str, float]:
    """Summed self time per span name: with the harness remainder, the traced wall time."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.self_s
    return dict(sorted(totals.items()))
