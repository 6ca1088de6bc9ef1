"""The op-cost tool runs end to end on the current sources.

Its timings depend on the machine, so the smoke run checks only that both
in-process workloads are reported with a positive cost per op, overall and
for each stratum their inputs were drawn in.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_opcost_reports_both_in_process_workloads():
    result = subprocess.run(
        [sys.executable, "tools/opcost.py", "--seed", "611", "--inputs", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["seed"] == 611 and report["passes"] == 7
    assert set(report["workloads"]) == {"stratum-sweep", "verify-scrambled"}
    for cost in report["workloads"].values():
        assert cost["inputs"] == 2 and cost["us_per_op"] > 0
    # the first two verify-scrambled inputs are a vertex and an edge (its stratum cycle)
    by_stratum = report["workloads"]["verify-scrambled"]["by_stratum"]
    assert set(by_stratum) == {"bell_vertex", "binary_edge"}
    sweep = report["workloads"]["stratum-sweep"]["by_stratum"]
    assert sweep and set(sweep) <= {"bell_vertex", "binary_edge", "generic_interior"}
    assert all(cost > 0 for cost in [*by_stratum.values(), *sweep.values()])
