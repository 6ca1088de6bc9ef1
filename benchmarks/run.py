"""twinscope benchmark: one workload per invocation, run from a checkout root.

    python3 benchmarks/run.py --workload cli-oneshot|stratum-sweep|verify-scrambled \
        --seed N --seconds S --trace 0|1

--trace 0 sets up five times in fresh interpreters (median = setup_s), then
runs the workload's closed loop for S seconds in another fresh interpreter
on the unwrapped program, and reports the end-to-end metrics of
BENCHMARK.json. --trace 1 runs the workload's fixed traced passes and the
import-time children, and reports the per-layer metrics. Every op is
checked; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Earlier lines describe the
environment, the tail percentile and any failures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict:
    """The environment for children: twinscope is imported from src/, by the
    workers and by the CLI processes they start."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_rev": git_rev(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        # with bytecode writing off every process compiles twinscope's sources
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "loadavg_start": os.getloadavg(),
    }


def worker(args, workdir: Path, mode: str) -> dict:
    workdir.mkdir()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
        "--mode", mode, "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"run.py: {mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(args, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreter to twinscope imported and first inputs drawn, raw
    and at the nominal speed of a bare interpreter start sampled between
    the set-ups."""
    start_speed = reference.ProcessStart()
    raw, scaled = [], []
    before = start_speed.sample()
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        ready = worker(args, workdir / f"setup{k}", "setup")["ready"]
        raw.append(ready - start)
        after = start_speed.sample()
        scaled.append(reference.nominal(raw[-1], start_speed, before, after))
        before = after
    return raw, scaled


def parse_importtime(stderr: str) -> dict:
    """import.* metrics from `python -X importtime -c "import twinscope"`.

    numpy and scipy count each module family once, at its outermost import
    (a numpy module first imported by scipy counts as scipy)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))
    totals = {"total": 0, "numpy": 0, "scipy": 0, "twinscope_own": 0}
    ancestors: list[str] = []
    for depth, name, self_us, cum_us in reversed(entries):  # parents before children
        ancestors = ancestors[:depth]
        family = name.split(".")[0]
        if depth == 0 and name == "twinscope":
            totals["total"] = cum_us
        if family == "twinscope":
            totals["twinscope_own"] += self_us
        for lib in ("numpy", "scipy"):
            if name.startswith(lib) and not any(a.startswith(("numpy", "scipy")) for a in ancestors):
                totals[lib] += cum_us
        ancestors.append(name)
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}


def process_costs() -> dict:
    """Import breakdown and bare interpreter start, median of a few children each."""
    env = child_env()
    breakdowns, bare = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twinscope"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        breakdowns.append(parse_importtime(proc.stderr))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, timeout=60, check=True)
        bare.append(1e3 * (time.perf_counter() - start))
    costs = {k: statistics.median(b[k] for b in breakdowns) for k in breakdowns[0]}
    costs["python.bare_start_ms"] = statistics.median(bare)
    return costs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twinscope" / "__init__.py").is_file():
        sys.exit(f"run.py: no twinscope sources under {ROOT / 'src'}; run it from a twinscope checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    env = environment(args.seed)

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            result = worker(args, workdir / "trace", "trace")
            result["metrics"].update(process_costs())
        else:
            raw_setups, setups = setup_seconds(args, workdir)
            result = worker(args, workdir / "measure", "measure")
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["raw"]["setup_s"] = statistics.median(raw_setups)
            result["setup_s_samples"] = setups

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.exit(f"run.py: the worker produced no value for {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    print("env " + json.dumps(env))
    for key in ("raw", "tail", "quantiles_ms", "setup_s_samples", "ops_per_pass", "functions"):
        if key in result:
            print(f"{key} " + json.dumps(result[key]))
    for reason in result["failures"]:
        print(f"failed op: {reason}")
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
