"""The tools reject an out-of-range flag where they parse it.

An --inputs below 1 would digest or time no input at all, and a negative
--seed cannot seed a workload, so each tool exits with a usage error (exit
2) before it imports any workload.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flag", [("--inputs", "0"), ("--seed", "-1")])
@pytest.mark.parametrize("tool", ["parity.py", "traffic.py", "opcost.py"])
def test_tool_rejects_an_out_of_range_flag(tool, flag):
    result = subprocess.run(
        [sys.executable, f"tools/{tool}", *flag],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert f"{flag[0]} must be at least" in result.stderr
