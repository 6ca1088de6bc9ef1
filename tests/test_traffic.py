"""The traffic map runs end to end on the current sources.

Which functions and statements the workloads reach depends on their inputs,
so the smoke run checks only the report's shape and one function that no
kernel calls.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traffic_map_runs():
    result = subprocess.run(
        [sys.executable, "tools/traffic.py", "--inputs", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["workloads"]) == {"stratum-sweep", "verify-scrambled", "cli-oneshot"}
    # linalg.eigh is public API that no kernel of the package calls
    assert "linalg.eigh" in report["not_entered"]
    assert isinstance(report["not_executed"], list)
