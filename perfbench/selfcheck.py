"""Reduced-size check of the benchmark harness itself.

Runs each workload on one phase (decay_fit: three lambda values, the fewest
a fit takes; randol_scan: two), untraced and traced, and checks that

* every metric BENCHMARK.json names is emitted, with its unit;
* a bad input (``x + y^2``, not critical at the origin) is counted as a
  failed operation instead of ending the run.

Usage, from the repository root (about ten seconds):

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

BAD_PHASE = "x + y^2"


def small_inputs(workload: str, wl):
    if workload == "exact_analyze":
        inputs = wl.exact_inputs(seed=1, rounds=1, rows=[0], mix=(("linear", 1),))
        inputs[0]["images"].append(wl.Image(BAD_PHASE, 0, "bad", "D4", False))
        return inputs
    if workload == "decay_fit":
        return wl.decay_inputs(seed=1, rounds=1, rows=wl.DECAY_ROWS[:1], lambdas=(64.0, 128.0, 256.0))
    return wl.scan_inputs(seed=1, rounds=1, lambdas=(64.0, 128.0))


def main() -> int:
    run.import_nphk()
    import workloads as wl

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        setup = run.measure_setup(workload, 1, probes=1)
        for trace in (0, 1):
            result = run.measure(workload, small_inputs(workload, wl), 0.0, trace, setup)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a metric value is not a number")
            if result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: no operation attempted")
            if workload == "exact_analyze":
                bad = [f for f in result["failures"] if f.startswith(BAD_PHASE) and "NotCriticalAtOrigin" in f]
                if not bad or result["correct"]:
                    problems.append(f"exact_analyze trace {trace}: the bad input was not counted as failed")
            print(f"{workload} trace {trace}: {len(got)} metrics, {result['failed']} of "
                  f"{result['attempted']} operations failed")
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
