"""The parity digests run end to end on the current sources.

The digests themselves change with any output, so the smoke run checks
only that every workload is reported.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_parity_digests_run():
    result = subprocess.run(
        [sys.executable, "tools/parity.py", "--inputs", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["workloads"]) == {"stratum-sweep", "verify-scrambled", "cli-oneshot"}
