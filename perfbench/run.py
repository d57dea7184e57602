"""nphk benchmark: one workload, one seed, one JSON result on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact_analyze --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round
untraced and the same round traced, writes the spans under
``perfbench/out/`` and prints the per-layer metrics.  nphk is imported from
``src/`` of the checkout; without it the run exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Seconds one round takes on a 2-core x86 machine with OpenBLAS 0.3.31 at the
# commit that added the benchmark; a run does --seconds worth of rounds.
NOMINAL_ROUND_S = {"exact_analyze": 3.0, "decay_fit": 10.5, "randol_scan": 7.0}
# Set-ups measured per run; setup_s is their median.
SETUP_PROBES = 7
EXIT_NO_PROGRAM = 2


def import_nphk() -> None:
    """Import nphk from this checkout's src/, or exit without a result."""
    if not (SRC / "nphk" / "__init__.py").is_file():
        print(f"error: no nphk package under {SRC.relative_to(ROOT)}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import nphk

    if Path(nphk.__file__).resolve().parent != SRC / "nphk":
        print(f"error: nphk imported from {nphk.__file__}, not from src/", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> List[float]:
    """Process start to ready (nphk and numpy imported, inputs generated), several times."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with status {code}")
        samples.append(ready)
    return samples


def quantile(values: List[float], index: int) -> float:
    """The index-th of the 20-quantiles (9 is the median, 18 the 95th percentile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """The rounds of one workload, untraced or traced."""

    def __init__(self, workload: str, inputs: List[Dict[str, Any]]):
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.inputs = inputs
        self.tally = wl.Tally()
        self.reference: Any = None  # the untraced round's fits or scan, checked by the traced round

    def round(self, index: int) -> float:
        """Run one untraced round; returns its wall time."""
        wl = self.wl
        inputs = self.inputs[index % len(self.inputs)]
        t0 = time.perf_counter()
        if self.workload == "exact_analyze":
            wl.run_exact_round(inputs, self.tally)
        elif self.workload == "decay_fit":
            self.reference = wl.run_decay_round(inputs, self.tally)
        else:
            self.reference = wl.run_scan_round(inputs, self.tally)
        return time.perf_counter() - t0

    def traced_round(self, index: int, tracer) -> float:
        """The same round with spans; decay and scan use their step-by-step call pattern."""
        wl = self.wl
        inputs = self.inputs[index % len(self.inputs)]
        tracer.install()
        try:
            t0 = time.perf_counter()
            if self.workload == "exact_analyze":
                wl.run_exact_round(inputs, self.tally, tracer)
            elif self.workload == "decay_fit":
                wl.run_decay_round_traced(inputs, self.tally, tracer, self.reference)
            else:
                wl.run_scan_round_traced(inputs, self.tally, tracer, self.reference)
            return time.perf_counter() - t0
        finally:
            tracer.uninstall()

    def timed(self, seconds: float) -> List[float]:
        """A fixed number of rounds sized from ``seconds``, so that both sides of a
        comparison do the same work; a run that overstays its time fourfold stops early."""
        rounds = max(1, int(seconds / NOMINAL_ROUND_S[self.workload]))
        times: List[float] = []
        start = time.perf_counter()
        while len(times) < rounds:
            times.append(self.round(len(times)))
            if time.perf_counter() - start > 4 * seconds:
                break
        return times


def end_to_end(runner: Runner, round_times: List[float], setup: List[float]) -> Dict[str, Dict[str, Any]]:
    lat_ms = [v * 1e3 for v in runner.tally.latencies_s]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.fmean(round_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "op_p50_ms": {"value": quantile(lat_ms, 9), "unit": "ms"},
        "op_p95_ms": {"value": quantile(lat_ms, 18), "unit": "ms"},
    }


OP_NAMES = {
    "exact_analyze": "build_report call",
    "decay_fit": "fit_decay call",
    "randol_scan": "randol_lq_scan call",
}


def measure(workload: str, inputs: List[Dict[str, Any]], seconds: float, trace: int,
            setup: List[float]) -> Dict[str, Any]:
    """Run the workload on the given inputs; the result holds the metrics and the checks."""
    runner = Runner(workload, inputs)
    result: Dict[str, Any] = {"workload": workload, "seconds": seconds, "trace": trace}
    if trace:
        from layers import layer_metrics, per_layer_units, self_time_by_span
        from tracing import Tracer

        untraced_s = runner.round(0)
        tracer = Tracer()
        traced_s = runner.traced_round(0, tracer)
        values = layer_metrics(tracer.spans, runner.tally.records, traced_s, untraced_s)
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
        result["untraced_round_s"] = untraced_s
        result["traced_round_s"] = traced_s
        result["self_s_by_span"] = self_time_by_span(tracer.spans)
        result["spans"] = tracer.records()
    else:
        round_times = runner.timed(seconds)
        result["metrics"] = end_to_end(runner, round_times, setup)
        result["round_s"] = round_times
        result["setup_samples_s"] = setup
        result["op_latency_s"] = runner.tally.latencies_s
    tally = runner.tally
    result.update({
        # Every failure must be the known defect; those still count as failed.
        "correct": tally.failed == tally.known_defect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_defect": tally.known_defect,
        "failures": tally.failures,
        "records": tally.records,
    })
    return result


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines, each metric with its unit and sample count."""
    m = result["metrics"]
    name = result["workload"]
    if result["trace"]:
        print(f"{name}: traced round {result['traced_round_s']:.3f} s, untraced {result['untraced_round_s']:.3f} s, "
              f"{len(result['spans'])} spans")
    else:
        rounds = len(result["round_s"])
        ops = len(result["op_latency_s"])
        print(f"{name}: {rounds} rounds, closed loop, 1 caller")
        print(f"  setup_s     = {m['setup_s']['value']:.4f} s (median of {len(result['setup_samples_s'])} set-ups)")
        print(f"  wall_s      = {m['wall_s']['value']:.4f} s per round ({rounds} rounds)")
        print(f"  peak_rss_mb = {m['peak_rss_mb']['value']:.1f} MB")
        for key in ("op_p50_ms", "op_p95_ms"):
            print(f"  {key:11s} = {m[key]['value']:.3f} ms over {ops} {OP_NAMES[name]}s")
    share = result["failed"] / result["attempted"]
    print(f"  failed_ops  = {share:.4f} ({result['failed']} of {result['attempted']} operations; "
          f"{result['known_defect']} are the known rank-one shear defect)")
    for line in result["failures"][:5]:
        print(f"    failed: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exact_analyze", "decay_fit", "randol_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_nphk()
    import workloads as wl

    if args.setup_probe:
        wl.make_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from machine import machine_record

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = wl.make_inputs(args.workload, args.seed)
    result = measure(args.workload, inputs, args.seconds, args.trace, setup)
    result["seed"] = args.seed
    result["machine"] = machine_record(ROOT)
    report(result)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
