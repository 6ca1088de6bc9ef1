"""Parity digests: SHA-256 of what each benchmark workload computes on its seeded inputs.

Runs the workloads of benchmarks/workloads.py on their seeded inputs and
prints JSON with, per workload, the number of inputs run and one SHA-256
digest per part of what it computes, plus `all` over every part:

  * stratum-sweep: `inputs` (stratum, t and where it was drawn) and
    `outputs` (what its op returns: the class, the twin space, the PPT
    verdict and the operator Schmidt data);
  * verify-scrambled: `inputs` (the drawn state, the scrambled matrix and
    the seed), `strata` (the state's class), `checks` (name, verdict and
    detail of every check run), `frames` (the canonical form), `moves` (the
    seeded move and the canonical form of the moved coordinates) and
    `oracles` (the oracle twin spaces of the state and of the moved state,
    and the pulled-back closed-form space);
  * cli-oneshot: `reports` (each call's argv, exit code, stdout and stderr,
    run in-process through `cli.run`, with the work directory's path in them
    replaced by `<workdir>`).

verify-scrambled runs what its op runs (make_context, then run_verification)
and reads the state's parts afterwards. Arrays are hashed with their dtype,
shape and bytes, real scalars by their exact value (float.hex), so equal
digests in two checkouts mean bitwise-equal outputs.

Usage: python tools/parity.py [--seed 611] [--inputs N]
With no --inputs each workload runs 704, 300 and 70 inputs (stratum-sweep,
verify-scrambled, cli-oneshot); --inputs N runs N inputs of each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twinscope"
DEFAULT_INPUTS = {"stratum-sweep": 704, "verify-scrambled": 300, "cli-oneshot": 70}
# the stored fields of the package's plain classes; their cached properties are derived
STORED = {
    "TwinSpace": ("rows", "singular_value_gap"),
    "OperatorSchmidt": ("coefficients", "rows", "schmidt_rank", "degeneracy"),
}


def feed(h, x) -> None:
    """Add a canonical encoding of x to the hash h."""
    if isinstance(x, np.ndarray):
        h.update(f"array {x.dtype.str} {x.shape}\n".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_)):
        h.update(b"true\n" if x else b"false\n")
    elif isinstance(x, (int, np.integer)):
        h.update(f"int {int(x)}\n".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(f"float {float(x).hex()}\n".encode())
    elif isinstance(x, (str, bytes)):
        data = x.encode() if isinstance(x, str) else x
        h.update(f"{type(x).__name__} {len(data)}\n".encode() + data)
    elif x is None:
        h.update(b"none\n")
    elif isinstance(x, tuple) and hasattr(x, "_fields"):
        feed(h, (type(x).__name__, *((f, getattr(x, f)) for f in x._fields)))
    elif isinstance(x, (tuple, list)):
        h.update(f"seq {len(x)}\n".encode())
        for item in x:
            feed(h, item)
    elif type(x).__name__ in STORED:
        fields = STORED[type(x).__name__]
        feed(h, (type(x).__name__, *((f, getattr(x, f)) for f in fields)))
    else:
        raise TypeError(f"parity cannot encode a {type(x).__name__}")


class Digests:
    """One running SHA-256 per named part, and one over every part."""

    def __init__(self, *parts: str) -> None:
        self.parts = {p: hashlib.sha256() for p in parts}
        self.all = hashlib.sha256()

    def add(self, part: str, x) -> None:
        feed(self.parts[part], x)
        feed(self.all, (part, x))

    def hexdigests(self) -> dict[str, str]:
        return {**{p: h.hexdigest() for p, h in self.parts.items()}, "all": self.all.hexdigest()}


def _drawn(s) -> tuple:
    return s.stratum, s.t, s.vertex, s.axis, s.case


def sweep(workloads, seed: int, n: int, workdir: Path) -> dict[str, str]:
    workload = workloads.StratumSweep(seed, workdir)
    d = Digests("inputs", "outputs")
    for x in itertools.islice(workload.inputs(), n):
        d.add("inputs", _drawn(x))
        d.add("outputs", workload.op(x))
    return d.hexdigests()


def verify_scrambled(workloads, seed: int, n: int, workdir: Path) -> dict[str, str]:
    from twinscope import mds, verify

    workload = workloads.VerifyScrambled(seed, workdir)
    d = Digests("inputs", "strata", "checks", "frames", "moves", "oracles")
    for x in itertools.islice(workload.inputs(), n):
        ctx = verify.make_context(x.rho, None, workloads.TOL, x.seed)
        results = verify.run_verification(ctx)
        d.add("inputs", (_drawn(x.state), x.rho, x.seed))
        d.add("strata", ctx.cls)
        d.add("checks", results)
        d.add("frames", ctx.frame)
        d.add("moves", (ctx.moved, mds._canonical_form(ctx.moved[2])))
        d.add("oracles", (ctx.space, ctx.moved_space, ctx.analytic))
    return d.hexdigests()


def cli_oneshot(workloads, seed: int, n: int, workdir: Path) -> dict[str, str]:
    from twinscope import cli

    workload = workloads.CliOneshot(seed, workdir)
    d = Digests("reports")
    for x in itertools.islice(workload.inputs(), n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(x.argv))
        argv, stdout, stderr = (
            [a.replace(str(workdir), "<workdir>") for a in x.argv],
            out.getvalue().replace(str(workdir), "<workdir>"),
            err.getvalue().replace(str(workdir), "<workdir>"),
        )
        d.add("reports", (argv, code, stdout, stderr))
    return d.hexdigests()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=611)
    parser.add_argument("--inputs", type=int, help="inputs per workload")
    args = parser.parse_args()
    inputs = {name: n if args.inputs is None else args.inputs for name, n in DEFAULT_INPUTS.items()}

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from twinscope import cli

    if Path(cli.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"twinscope was imported from {cli.__file__}, not from {PACKAGE}")

    runs = {"stratum-sweep": sweep, "verify-scrambled": verify_scrambled, "cli-oneshot": cli_oneshot}
    report = {"seed": args.seed, "workloads": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for name, run in runs.items():
            digests = run(workloads, args.seed, inputs[name], Path(workdir))
            report["workloads"][name] = {"inputs": inputs[name], "sha256": digests}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
