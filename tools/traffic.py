"""Traffic map: which package functions and statements the benchmark workloads run.

Runs each workload of benchmarks/workloads.py on its seeded inputs under
sys.settrace, limited to the files of src/twinscope/, and prints JSON with
two lists:

  * `not_entered`: functions (module.qualname) that no workload calls;
  * `not_executed`: statements of entered functions that no workload runs,
    as "module.qualname:line: source".

Each workload's set-up and seeded input draws are traced with its operations.
stratum-sweep and verify-scrambled run their timed `op`; cli-oneshot's calls
run in-process through `cli.run`, which executes the same source lines as
`python -m twinscope` (stdout and stderr are captured and dropped). Module
bodies run at import are not counted. A line counts as run when the tracer
sees a line event on it in any frame, so a statement reached only through a
nested comprehension or lambda counts too.

Usage: python tools/traffic.py [--seed 611] [--inputs N]
With no --inputs each workload runs 704, 300 and 70 inputs (stratum-sweep,
verify-scrambled, cli-oneshot); --inputs N runs N inputs of each.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twinscope"
DEFAULT_INPUTS = {"stratum-sweep": 704, "verify-scrambled": 300, "cli-oneshot": 70}


def _header_end(stmt: ast.stmt) -> int:
    """The last line of a statement's own code: its header when it has a body."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return max(stmt.lineno, body[0].lineno - 1)
    return stmt.end_lineno


def _own_statements(fn: ast.AST):
    """The statements of fn's body, through compound statements but not nested scopes."""
    stack = list(fn.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack += getattr(stmt, field, [])
        stack += [s for h in getattr(stmt, "handlers", []) for s in h.body]
        stack += [s for c in getattr(stmt, "cases", []) for s in c.body]


def _functions(tree: ast.Module, prefix: str = ""):
    """(qualname, first line as the code object counts it, node) of every def in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first, node
            yield from _functions(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def _code_lines(code) -> set[int]:
    """Every line an instruction of code, or of a code object nested in it, starts on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class Recorder:
    """A settrace hook that records, per package file, entered code and run lines."""

    def __init__(self, files: set[str]) -> None:
        self.files = files
        self.entered: set[tuple[str, int]] = set()
        self.lines: dict[str, set[int]] = {f: set() for f in files}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            return None
        self.entered.add((filename, frame.f_code.co_firstlineno))
        lines = self.lines[filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def run_workloads(seed: int, inputs: dict[str, int], recorder: Recorder) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from twinscope import cli

    if Path(cli.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"twinscope was imported from {cli.__file__}, not from {PACKAGE}")

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        sys.settrace(recorder)
        try:
            for cls in (workloads.StratumSweep, workloads.VerifyScrambled, workloads.CliOneshot):
                workload = cls(seed, Path(workdir))
                for x in itertools.islice(workload.inputs(), inputs[cls.name]):
                    if cls is workloads.CliOneshot:
                        cli.run(list(x.argv))
                    else:
                        workload.op(x)
        finally:
            sys.settrace(None)


def traffic_map(recorder: Recorder) -> tuple[list[str], list[str]]:
    not_entered, not_executed = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        runnable = _code_lines(compile(source, str(path), "exec"))
        run = recorder.lines[str(path)]
        text = source.splitlines()
        for qualname, first, fn in _functions(tree):
            name = f"{path.stem}.{qualname}"
            if (str(path), first) not in recorder.entered:
                not_entered.append(name)
                continue
            for stmt in sorted(_own_statements(fn), key=lambda s: s.lineno):
                span = set(range(stmt.lineno, _header_end(stmt) + 1))
                if span & runnable and not span & run:
                    not_executed.append(f"{name}:{stmt.lineno}: {text[stmt.lineno - 1].strip()}")
    return not_entered, not_executed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=611)
    parser.add_argument("--inputs", type=int, help="inputs per workload")
    args = parser.parse_args()
    inputs = {name: n if args.inputs is None else args.inputs for name, n in DEFAULT_INPUTS.items()}
    recorder = Recorder({str(p) for p in PACKAGE.glob("*.py")})
    run_workloads(args.seed, inputs, recorder)
    not_entered, not_executed = traffic_map(recorder)
    report = {
        "seed": args.seed,
        "workloads": inputs,
        "not_entered": not_entered,
        "not_executed": not_executed,
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
