"""The repo's pytest settings: a failing hypothesis property fails its test, not the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

A_FAILING_PROPERTY_THEN_A_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_after_it():
    pass
"""


def test_a_failing_property_leaves_the_rest_of_the_session_running(tmp_path):
    (tmp_path / "test_property.py").write_text(A_FAILING_PROPERTY_THEN_A_TEST, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = result.stdout + result.stderr
    # exit code 3 is an INTERNALERROR, which skips every later test
    assert result.returncode == 1, report
    assert "PASSED test_property.py::test_after_it" in report
    assert "1 failed, 1 passed" in report
