"""Op cost: in-process microseconds per operation of the two in-process workloads.

Runs stratum-sweep and verify-scrambled of benchmarks/workloads.py on their
seeded inputs in this process and prints JSON with, per workload, the number
of inputs and `us_per_op`: the shortest of 7 timed passes over the inputs,
divided by their count. Every pass is preceded by the workload's own
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


def us_per_op(workload, n: int) -> float:
    """The shortest of PASSES timed passes over the first n inputs, per input, in µs."""
    inputs = list(itertools.islice(workload.inputs(), n))
    warmup = workload.warmup()
    best = float("inf")
    for _ in range(PASSES):
        for x in warmup:
            workload.op(x)
        start = time.perf_counter()
        for x in inputs:
            workload.op(x)
        best = min(best, time.perf_counter() - start)
    return best / n * 1e6


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
            cost = us_per_op(cls(args.seed, Path(workdir)), n)
            report["workloads"][cls.name] = {"inputs": n, "us_per_op": round(cost, 2)}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
