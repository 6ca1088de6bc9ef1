"""The benchmark harness runs end to end on the current sources.

Timings are not checked; they are too noisy to gate on. The run exercises the harness's own calls into twinscope, such as
the positional make_context(rho, None, tol, seed) of verify-scrambled, and
the cli-oneshot workload's check that a repeated call gives a byte-identical report.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def assert_benchmark_runs(workload):
    result = subprocess.run(
        [
            sys.executable,
            "benchmarks/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["failed"] == 0
    assert report["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in bench["end_to_end"]:
        assert metric["name"] in report["metrics"]


def test_verify_scrambled_benchmark_runs():
    assert_benchmark_runs("verify-scrambled")


def test_stratum_sweep_benchmark_runs():
    assert_benchmark_runs("stratum-sweep")


def test_cli_oneshot_benchmark_runs():
    assert_benchmark_runs("cli-oneshot")
