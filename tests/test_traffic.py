"""The traffic map runs end to end on the current sources.

Which functions and statements the workloads reach depends on their inputs,
so the smoke run checks only the report's shape and one function that no
workload calls. The keying of its entries is checked on a small traced module.
"""

import importlib.util
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
    # cli.main is the console-script entry point; the workloads call cli.run
    assert "cli.main" in report["not_entered"]
    assert isinstance(report["not_executed"], list)


def _load_traffic():
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = """\
def sign(x):
    if x < 0:
        return -1
    return 1


def unused():
    return 0
"""


def _map_of(traffic, monkeypatch, directory, source):
    """The traffic map of one module file holding source, after tracing sign(1)."""
    directory.mkdir()
    path = directory / "mod.py"
    path.write_text(source, encoding="utf-8")
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    recorder = traffic.Recorder({str(path)})
    previous = sys.gettrace()
    sys.settrace(recorder)
    try:
        namespace["sign"](1)
    finally:
        sys.settrace(previous)
    monkeypatch.setattr(traffic, "PACKAGE", directory)
    return traffic.traffic_map(recorder)


def test_entries_are_keyed_within_their_function(tmp_path, monkeypatch):
    traffic = _load_traffic()
    plain = _map_of(traffic, monkeypatch, tmp_path / "plain", MODULE)
    assert plain == (["mod.unused"], ["mod.sign:+2: return -1"])
    # lines added above a function move no entry of it
    shifted_source = "import math\n\n# a comment\n" + MODULE
    shifted = _map_of(traffic, monkeypatch, tmp_path / "shifted", shifted_source)
    assert shifted == plain
