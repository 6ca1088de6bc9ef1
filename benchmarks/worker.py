"""One workload in a fresh interpreter; prints one JSON object as its last line.

    python benchmarks/worker.py --workload NAME --seed N --workdir DIR \
        --mode setup|measure|trace [--seconds S]

setup    import twinscope, build the workload and draw its first stratum
         cycle of inputs, then print the perf_counter reading; run.py times
         set-up from its own reading taken before it started this process
         (both read CLOCK_MONOTONIC).
measure  the same set-up, then the closed loop for S seconds on the
         unwrapped program: latency, throughput, failures, peak RSS.
trace    the first `trace_ops` inputs four times, unwrapped and traced in
         turn: per-function calls and self time per op, and the tracing
         overhead. The two traced passes must give identical call counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent


def set_up(args):
    import twinscope  # from src/, which run.py puts on PYTHONPATH

    if Path(twinscope.__file__).resolve().parent != ROOT / "src" / "twinscope":
        sys.exit(f"worker: imported twinscope from {twinscope.__file__}, not from src/")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    stream = wl.inputs()
    first = list(itertools.islice(stream, wl.block))
    return wl, itertools.chain(first, stream)


def run_op(wl, x, tracer=None):
    """Time one op: (seconds, output, failure reason if it raised)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out, reason = wl.op(x, tracer), None
    except Exception as exc:  # an op that raises is a failed op
        out, reason = None, f"{type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    return dt, out, reason


def check(wl, x, out, reason):
    """The failure reason of an op, None when its output is correct."""
    if reason is not None:
        return reason
    try:
        return wl.check(x, out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def percentile(sorted_ms: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return sorted_ms[max(1, math.ceil(p / 100 * len(sorted_ms))) - 1]


def latency_metrics(latencies: list[float], done: int, tail: float) -> tuple[dict, dict]:
    """End-to-end timing metrics, and the latency quantiles for the record."""
    ms = sorted(1e3 * v for v in latencies)
    metrics = {
        "throughput_ops_per_s": done / sum(latencies),
        "latency_ms.p50": statistics.median(ms),
        "latency_ms.tail": percentile(ms, tail),
    }
    return metrics, {p: percentile(ms, p) for p in (10, 50, 75, 90, 95, 99, 99.9)}


def measure(wl, stream, seconds: float) -> dict:
    """Closed loop for `seconds`; each op's time is also reported at the
    nominal machine speed, from the workload's reference sampled right
    before and right after it."""
    for x in wl.warmup():
        wl.op(x)
    raw, scaled, failures, first = [], [], [], None
    start = time.perf_counter()
    before = wl.reference.sample()
    for x in stream:
        if time.perf_counter() - start >= seconds:
            break
        dt, out, reason = run_op(wl, x)
        after = wl.reference.sample()
        raw.append(dt)
        scaled.append(reference.nominal(dt, wl.reference, before, after))
        before = after
        reason = check(wl, x, out, reason)
        if reason:
            failures.append(reason)
        if first is None:
            first = (x, out)
    done = len(raw) - len(failures)
    attempted = len(raw)
    if hasattr(wl, "repeat") and first[1] is not None:
        attempted += 1
        reason = wl.repeat(*first)
        if reason:
            failures.append(reason)
    metrics, quantiles = latency_metrics(scaled, done, wl.tail_percentile)
    raw_metrics, _ = latency_metrics(raw, done, wl.tail_percentile)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-oneshot" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "raw": raw_metrics,
        "tail": {
            "percentile": wl.tail_percentile,
            "samples": len(raw),
            "beyond": len(raw) - math.ceil(wl.tail_percentile / 100 * len(raw)),
        },
        "quantiles_ms": quantiles,
    }


def run_pass(wl, inputs, tracer=None) -> tuple[int, list[str]]:
    elapsed, failures = 0.0, []
    for i, x in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        dt, out, reason = run_op(wl, x, tracer)
        elapsed += dt
        reason = check(wl, x, out, reason)
        if reason:
            failures.append(reason)
    return round(elapsed * 1e9), failures


def trace(wl, stream, names: list[str]) -> dict:
    from tracer import LAYERS, Tracer

    inputs = list(itertools.islice(stream, wl.trace_ops))
    n = len(inputs)
    for x in wl.warmup():
        wl.op(x)
    # unwrapped and traced passes alternate, so drift hits both alike
    tracer = Tracer()
    untraced, passes, failures = [], [], []
    for _ in range(2):
        elapsed_ns, more = run_pass(wl, inputs)
        untraced.append(elapsed_ns)
        failures += more
        tracer.reset()
        tracer.install()
        elapsed_ns, more = run_pass(wl, inputs, tracer)
        tracer.uninstall()
        failures += more
        passes.append((elapsed_ns, tracer.summary()))
    counts = [
        {k: (v["calls"], v["raised"]) for k, v in s["functions"].items()} for _, s in passes
    ]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        failures.append(f"call counts differ between two traced passes: {differ[:8]}")

    def mean_us(per_pass) -> float:
        return statistics.fmean(per_pass(elapsed, s) for elapsed, s in passes) / 1e3 / n

    def fn(summary, key, field):
        return summary["functions"].get(key, {}).get(field, 0)

    summary0 = passes[0][1]
    traced_ns = statistics.fmean(elapsed for elapsed, _ in passes)
    nullspace = summary0["functions"].get("linalg.real_nullspace", {"calls": 0, "raised": {}})
    metrics = {
        "unattributed_us_per_op": mean_us(lambda elapsed, s: elapsed - s["top_ns"]),
        "linalg.real_nullspace.ambiguous_frac": (
            nullspace["raised"].get("RankDecisionError", 0) / nullspace["calls"] if nullspace["calls"] else 0.0
        ),
        "trace.overhead_frac": traced_ns / statistics.fmean(untraced) - 1,
    }
    for name in names:
        head, _, stat = name.rpartition(".")
        if name in metrics or stat not in ("calls_per_op", "self_us_per_op"):
            continue
        if stat == "calls_per_op":
            metrics[name] = fn(summary0, head, "calls") / n
        elif head in LAYERS:
            metrics[name] = mean_us(
                lambda _, s: sum(v["self_ns"] for k, v in s["functions"].items() if k.startswith(head + "."))
            )
        else:
            metrics[name] = mean_us(lambda _, s: fn(s, head, "self_ns"))
    return {
        "attempted": 4 * n,
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "ops_per_pass": n,
        # every wrapped function called: calls per op and inclusive microseconds per call
        "functions": {
            k: [v["calls"] / n, v["total_ns"] / v["calls"] / 1e3] for k, v in sorted(summary0["functions"].items())
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    wl, stream = set_up(args)
    if args.mode == "setup":
        result = {"ready": time.perf_counter()}
    elif args.mode == "measure":
        result = measure(wl, stream, args.seconds)
    else:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = trace(wl, stream, [m["name"] for m in bench["per_layer"]])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
