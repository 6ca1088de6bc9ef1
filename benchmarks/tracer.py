"""Layer spans recorded from outside the program.

`Tracer.install` wraps every public function of each twinscope module and
rebinds the wrapper on every twinscope module namespace (and module-level
dict, such as the CLI's handler table) that binds the original. A wrapper
passes its arguments, return value and exception through unchanged; while
the tracer is active it records one span per call: the op it belongs to,
the function, the span that caused it, start and end. Spans stay in memory
and are folded into per-function counts and self times by `summary`.

Run as a script, this file is the traced CLI child:

    python benchmarks/tracer.py --out SUMMARY.json -- classify --t=0,0,1

installs the tracer, runs `python -m twinscope <args>` in-process through
runpy, and writes the span summary to SUMMARY.json before exiting with the
CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("linalg", "mds", "schmidt", "twins", "verify", "report", "cli")


def public_functions(module) -> dict:
    """Functions defined (not imported) in a module whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op: int | None = None
        # one list per call: [op, key, parent span index, start ns, end ns, exception name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._absorbed: list[dict] = []
        self._patched: list[tuple] = []  # (namespace dict, key, original function)

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"twinscope.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "twinscope" and not modname.startswith("twinscope."):
                continue
            namespaces = [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patched.append((namespace, key, value))
                        namespace[key] = wrappers[value]
        return self

    def uninstall(self) -> None:
        """Put the original functions back."""
        for namespace, key, original in self._patched:
            namespace[key] = original
        self._patched = []

    def _wrap(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [tracer.op, key, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[3] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = perf_counter_ns()
                stack.pop()

        return traced

    def absorb(self, summary: dict) -> None:
        """Add a summary recorded in another process (a traced CLI child)."""
        self._absorbed.append(summary)

    def reset(self) -> None:
        self.spans = []
        self._absorbed = []

    def summary(self) -> dict:
        """Per-function calls, self and inclusive time and raised exceptions,
        plus the time covered by top-level spans (time under any layer)."""
        child_ns = [0] * len(self.spans)
        for op, key, parent, start, end, exc in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        functions: dict[str, dict] = {}
        top_ns = 0
        for i, (op, key, parent, start, end, exc) in enumerate(self.spans):
            entry = functions.setdefault(key, {"calls": 0, "self_ns": 0, "total_ns": 0, "raised": {}})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            entry["total_ns"] += end - start
            if exc is not None:
                entry["raised"][exc] = entry["raised"].get(exc, 0) + 1
            if parent < 0:
                top_ns += end - start
        for other in self._absorbed:
            top_ns += other["top_ns"]
            for key, theirs in other["functions"].items():
                entry = functions.setdefault(key, {"calls": 0, "self_ns": 0, "total_ns": 0, "raised": {}})
                for field in ("calls", "self_ns", "total_ns"):
                    entry[field] += theirs[field]
                for exc, n in theirs["raised"].items():
                    entry["raised"][exc] = entry["raised"].get(exc, 0) + n
        return {"functions": functions, "top_ns": top_ns}


def _cli_child(argv: list[str]) -> None:
    import runpy

    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        sys.exit("usage: tracer.py --out SUMMARY.json -- <twinscope arguments>")
    out, cli_args = argv[1], argv[3:]
    tracer = Tracer().install()
    tracer.active = True
    sys.argv = ["twinscope", *cli_args]
    try:
        runpy.run_module("twinscope", run_name="__main__", alter_sys=True)
    finally:
        tracer.active = False
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    _cli_child(sys.argv[1:])
