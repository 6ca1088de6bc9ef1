"""Op cost: in-process microseconds per operation of the two in-process workloads.

Runs stratum-sweep and verify-scrambled of benchmarks/workloads.py on their
seeded inputs in this process and prints JSON with, per workload, the number
of inputs, `us_per_op`: the shortest of 7 timed passes over the inputs,
divided by their count, and `by_stratum`: per stratum of the inputs (vertex,
edge, interior), the shortest of the same 7 passes' time on that stratum's
inputs, divided by their count. A pass reads the clock once per op, which adds
a fraction of a µs to each. Every pass is preceded by the workload's own
`warmup()` inputs, run untimed; the inputs are drawn before any timing, and
outputs are neither checked nor kept (tools/parity.py compares outputs).
The figure is the compute of one op without the benchmark's process start,
closed loop and reference sampling, so two checkouts compare on one machine.

Usage: python tools/opcost.py [--seed 611] [--inputs N]
With no --inputs the workloads run 640 and 300 inputs (ten stratum-sweep
blocks, a hundred verify-scrambled cycles); --inputs N runs N of each.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twinscope"
DEFAULT_INPUTS = {"stratum-sweep": 640, "verify-scrambled": 300}
PASSES = 7


def op_costs(workload, n: int) -> tuple[float, dict[str, float]]:
    """µs per input of the shortest of PASSES timed passes over the first n inputs, and by stratum.

    The stratum figures are the shortest, over the same passes, of the time spent on
    each stratum's inputs, per input of that stratum.
    """
    inputs = list(itertools.islice(workload.inputs(), n))
    strata = [getattr(x, "state", x).stratum for x in inputs]  # a verify input holds its state
    counts = collections.Counter(strata)
    warmup = workload.warmup()
    clock = time.perf_counter
    best, best_by = float("inf"), dict.fromkeys(counts, float("inf"))
    for _ in range(PASSES):
        for x in warmup:
            workload.op(x)
        stamps = [clock()]
        for x in inputs:
            workload.op(x)
            stamps.append(clock())
        best = min(best, stamps[-1] - stamps[0])
        spent = dict.fromkeys(counts, 0.0)
        for stratum, start, end in zip(strata, stamps, stamps[1:]):
            spent[stratum] += end - start
        best_by = {k: min(best_by[k], spent[k]) for k in counts}
    return best / n * 1e6, {k: best_by[k] / counts[k] * 1e6 for k in sorted(counts)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=611)
    parser.add_argument("--inputs", type=int, help="inputs per workload")
    args = parser.parse_args()
    if args.inputs is not None and args.inputs < 1:
        parser.error("--inputs must be at least 1")
    inputs = {name: n if args.inputs is None else args.inputs for name, n in DEFAULT_INPUTS.items()}

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from twinscope import cli

    if Path(cli.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"twinscope was imported from {cli.__file__}, not from {PACKAGE}")

    report = {
        "seed": args.seed,
        "passes": PASSES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as workdir:
        for cls in (workloads.StratumSweep, workloads.VerifyScrambled):
            n = inputs[cls.name]
            cost, by_stratum = op_costs(cls(args.seed, Path(workdir)), n)
            report["workloads"][cls.name] = {
                "inputs": n,
                "us_per_op": round(cost, 2),
                "by_stratum": {k: round(v, 2) for k, v in by_stratum.items()},
            }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
