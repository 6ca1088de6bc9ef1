"""The three workloads: seeded inputs, the operation a user runs, and its check.

Each workload class has
  * `inputs()`: the seeded input stream, the same for a given seed however
    fast the program runs (a fresh generator restarts it);
  * `block`: inputs per stratum cycle, drawn during set-up;
  * `warmup()`: inputs from a separate stream, run untimed before a pass;
  * `op(x, tracer=None)`: the timed call into twinscope;
  * `check(x, out)`: None when the output matches the paper's closed forms,
    otherwise a one-line reason;
  * `trace_ops`: how many inputs a traced pass runs (fixed, so call counts
    repeat exactly);
  * `tail_percentile`: the percentile reported as `latency_ms.tail`;
  * `reference`: the machine-speed reference sampled around each op (see
    reference.py).
Inputs come from twinscope's documented samplers (`random_interior_t`,
`random_edge_t`, `bell_t_vector`) unchanged; none is filtered or redrawn.
Checks reimplement the closed forms with numpy and run outside the timed
region, with the tracer inactive.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import twinscope as ts
from reference import InProcess, ProcessStart
from twinscope import mds, verify

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"

VERTEX, EDGE, INTERIOR = mds.BELL_VERTEX, mds.BINARY_EDGE, mds.GENERIC_INTERIOR
TWIN_DIMENSION = {VERTEX: 4, EDGE: 2, INTERIOR: 1}
EDGES = tuple((axis, case) for axis in (1, 2, 3) for case in "AB")
TOL = mds.DEFAULT_TOL

_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
_ZZ = np.kron(_PAULI[3], _PAULI[3])


@dataclass(frozen=True)
class State:
    """A sampled Bell-diagonal state and where it was drawn."""

    stratum: str
    t: np.ndarray
    vertex: int | None = None
    axis: int | None = None
    case: str | None = None


def draw_state(rng: np.random.Generator, stratum: str, where=None) -> State:
    """Draw a state in a stratum; `where` fixes the vertex or the (axis, case)."""
    if stratum == VERTEX:
        k = int(rng.integers(4)) if where is None else where
        return State(VERTEX, mds.bell_t_vector(k), vertex=k)
    if stratum == EDGE:
        axis, case = EDGES[int(rng.integers(len(EDGES)))] if where is None else where
        return State(EDGE, mds.random_edge_t(rng, axis, case), axis=axis, case=case)
    return State(INTERIOR, mds.random_interior_t(rng))


def local_unitary(rng: np.random.Generator) -> np.ndarray:
    return np.kron(ts.random_unitary(rng), ts.random_unitary(rng))


def closed_form_twins(state: State) -> list[ts.ObservablePair]:
    """The paper's twin basis for a stratum, from twinscope's closed forms."""
    if state.stratum == VERTEX:
        return list(ts.analytic_vertex_twins(state.vertex).basis)
    if state.stratum == EDGE:
        cls = mds.MdsClass(
            kind=EDGE,
            weights=mds.weights_from_t(state.t),
            detail="",
            axis=state.axis,
            case=state.case,
            edge_parameter=0.0,
        )
        return list(ts.analytic_edge_twins(cls).basis)
    return [ts.ObservablePair(a1=_PAULI[0] / 2, a2=_PAULI[0] / 2)]


def _unit_pauli_rows(pairs) -> np.ndarray:
    rows = np.array(
        [
            np.concatenate(
                [np.einsum("kij,ji->k", _PAULI, p.a1).real, np.einsum("kij,ji->k", _PAULI, p.a2).real]
            )
            for p in pairs
        ]
    )
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def span_residual(a, b) -> float:
    """Largest distance of a unit basis vector of either span from the other."""
    ra, rb = _unit_pauli_rows(a), _unit_pauli_rows(b)
    qa, _ = np.linalg.qr(ra.T)
    qb, _ = np.linalg.qr(rb.T)
    return float(
        max(
            np.linalg.norm(ra.T - qb @ (qb.T @ ra.T), axis=0).max(),
            np.linalg.norm(rb.T - qa @ (qa.T @ rb.T), axis=0).max(),
        )
    )


def bell_weights(t: np.ndarray) -> np.ndarray:
    t1, t2, t3 = t
    return np.array([1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3]) / 4


def ppt_mismatch(t: np.ndarray, separable: bool) -> str | None:
    """PPT verdict against 'max Bell weight <= 1/2'; either verdict is
    accepted within the rank tolerance of the boundary."""
    wmax = float(bell_weights(t).max())
    if abs(wmax - 0.5) > TOL and separable != (wmax <= 0.5):
        return f"PPT says separable={separable} at max Bell weight {wmax!r}"
    return None


def schmidt_spectrum(t: np.ndarray) -> np.ndarray:
    """Operator Schmidt coefficients of T(t): sort(1, |t|) / sqrt(1 + |t|^2)."""
    a = np.abs(np.asarray(t, dtype=float))
    return np.sort(np.concatenate([[1.0], a]))[::-1] / np.sqrt(1 + a @ a)


def spectrum_error(t: np.ndarray, coefficients) -> float:
    got = np.zeros(4)
    got[: len(coefficients)] = coefficients
    return float(np.abs(got - schmidt_spectrum(t)).max())


class StratumSweep:
    """Batch sweep: classify, build_T, twin oracle, PPT and operator Schmidt
    per state, over blocks of 54 interior states, the six edge cases and the
    four vertices in seeded order."""

    name = "stratum-sweep"
    _BLOCK = [(INTERIOR, None)] * 54 + [(EDGE, e) for e in EDGES] + [(VERTEX, k) for k in range(4)]
    block = len(_BLOCK)
    trace_ops = 10 * block
    tail_percentile = 99
    reference = InProcess(quanta=1)

    def __init__(self, seed: int, workdir: Path) -> None:
        self._seeds = np.random.SeedSequence(seed).spawn(2)

    def _blocks(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            for j in rng.permutation(len(self._BLOCK)):
                yield draw_state(rng, *self._BLOCK[j])

    def inputs(self):
        return self._blocks(self._seeds[0])

    def warmup(self):
        return list(itertools.islice(self._blocks(self._seeds[1]), self.block))

    def op(self, x: State, tracer=None):
        cls = ts.classify(x.t)
        rho = ts.build_T(x.t)
        space = ts.twin_space(rho)
        separable, _ = ts.ppt_separable(rho)
        schmidt = ts.operator_schmidt(rho)
        return cls, space, separable, schmidt

    def check(self, x: State, out) -> str | None:
        cls, space, separable, schmidt = out
        if (cls.kind, cls.vertex, cls.axis, cls.case) != (x.stratum, x.vertex, x.axis, x.case):
            return f"classify gave {cls.kind} ({cls.detail}) for a {x.stratum} state"
        if space.dimension != TWIN_DIMENSION[x.stratum]:
            return f"twin dimension {space.dimension} on {x.stratum}"
        residual = span_residual(space.basis, closed_form_twins(x))
        if residual > 1e-9:
            return f"oracle vs closed-form span residual {residual:.3e}"
        reason = ppt_mismatch(x.t, separable)
        if reason:
            return reason
        err = spectrum_error(x.t, schmidt.coefficients)
        if err > 1e-10:
            return f"operator Schmidt spectrum off by {err:.3e}"
        return None


@dataclass(frozen=True)
class Scrambled:
    state: State
    rho: np.ndarray
    seed: int


class VerifyScrambled:
    """`verify` on raw matrices: T(t) over the three strata in turn, each
    scrambled by seeded local unitaries, canonicalized by make_context and
    checked by run_verification."""

    name = "verify-scrambled"
    _CYCLE = (VERTEX, EDGE, INTERIOR)
    block = len(_CYCLE)
    trace_ops = 20 * block
    tail_percentile = 95
    reference = InProcess(quanta=3)

    def __init__(self, seed: int, workdir: Path) -> None:
        self._seeds = np.random.SeedSequence(seed).spawn(2)

    def _states(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            for stratum in self._CYCLE:
                state = draw_state(rng, stratum)
                u = local_unitary(rng)
                rho = u @ ts.build_T(state.t) @ u.conj().T
                yield Scrambled(state, rho, int(rng.integers(2**31)))

    def inputs(self):
        return self._states(self._seeds[0])

    def warmup(self):
        return list(itertools.islice(self._states(self._seeds[1]), 2 * self.block))

    def op(self, x: Scrambled, tracer=None):
        ctx = verify.make_context(x.rho, None, TOL, x.seed)
        return ctx.cls.kind, verify.run_verification(ctx)

    def check(self, x: Scrambled, out) -> str | None:
        kind, results = out
        if kind != x.state.stratum:
            return f"make_context classified a {x.state.stratum} state as {kind}"
        failed = [r.name for r in results if not r.passed]
        if not results or failed:
            return f"verify checks failed: {failed or 'none ran'}"
        return None


COMMANDS = ("classify", "schmidt", "twins", "verify", "separability", "correlate", "canonicalize")
# (input kind, stratum): pure-state files exist only for vertices
COMBOS = tuple((kind, s) for kind in ("t", "weights", "matrix") for s in (VERTEX, EDGE, INTERIOR)) + (
    ("pure", VERTEX),
)


@dataclass(frozen=True)
class Call:
    command: str
    kind: str
    state: State
    rho: np.ndarray
    argv: tuple[str, ...]


def _complex_tokens(values) -> str:
    return " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in np.asarray(values).ravel())


def result_fields(report: str) -> dict[str, str]:
    """`key: value` lines directly under the report's `result:` section."""
    fields: dict[str, str] = {}
    inside = False
    for line in report.splitlines():
        if not line.startswith(" "):
            inside = line == "result:"
        elif inside and not line.startswith("   ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            fields[key] = value
    return fields


def _floats(value: str) -> list[float]:
    return [float(v) for v in value.strip("[]").split(", ")]


class CliOneshot:
    """One `python -m twinscope <cmd>` process per op, one client, closed loop.

    The set-up draws one state per (subcommand, input kind, stratum): 7
    subcommands times 10 combinations, with matrix and pure-state files
    written to the work directory. Round r runs each subcommand once, in a
    seeded order, on its r-th combination (each subcommand walks its own
    seeded permutation of the 10), so every window of 7 calls has the same
    command mix.
    """

    name = "cli-oneshot"
    block = len(COMMANDS)
    trace_ops = 2 * block
    tail_percentile = 70
    reference = ProcessStart()

    def __init__(self, seed: int, workdir: Path) -> None:
        calls_seed, self._order_seed = np.random.SeedSequence(seed).spawn(2)
        self._rng = np.random.default_rng(calls_seed)
        self._workdir = workdir
        self._calls = {}
        for c in COMMANDS:
            for kind, stratum in COMBOS:
                self._calls[c, kind, stratum] = self._make_call(c, kind, stratum, len(self._calls))
        self._walk = {c: self._rng.permutation(len(COMBOS)) for c in COMMANDS}
        self._n_trace_files = 0

    def _make_call(self, command: str, kind: str, stratum: str, n: int) -> Call:
        state = draw_state(self._rng, stratum)
        rho = ts.build_T(state.t)
        if kind == "t":
            spec = ["--t=" + ",".join(repr(float(v)) for v in state.t)]
        elif kind == "weights":
            spec = ["--weights=" + ",".join(repr(float(v)) for v in mds.weights_from_t(state.t))]
        else:
            u = local_unitary(self._rng)
            path = self._workdir / f"state{n:02d}.txt"
            if kind == "matrix":
                rho = u @ rho @ u.conj().T
                path.write_text("matrix 4 4\n" + _complex_tokens(rho) + "\n", encoding="utf-8")
            else:
                phi = u @ mds.bell_state(state.vertex)[0]
                rho = np.outer(phi, phi.conj())
                path.write_text("pure 4\n" + _complex_tokens(phi) + "\n", encoding="utf-8")
            spec = ["--input", str(path)]
        if command == "correlate":
            spec += ["--a1=0,0,0,1", "--a2=0,0,0,1"]
        return Call(command, kind, state, rho, (command, *spec))

    def inputs(self):
        rng = np.random.default_rng(self._order_seed)
        for r in itertools.count():
            for j in rng.permutation(len(COMMANDS)):
                c = COMMANDS[j]
                yield self._calls[(c, *COMBOS[self._walk[c][r % len(COMBOS)]])]

    def warmup(self):
        return [self._calls["classify", "t", INTERIOR]]

    def op(self, x: Call, tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "twinscope", *x.argv]
        else:
            out = self._workdir / f"trace{self._n_trace_files}.json"
            self._n_trace_files += 1
            argv = [sys.executable, str(TRACER), "--out", str(out), "--", *x.argv]
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=60)
        if tracer is not None:
            tracer.absorb(json.loads(out.read_text(encoding="utf-8")))
            out.unlink()
        return proc

    def check(self, x: Call, proc) -> str | None:
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            return f"{' '.join(x.argv)} exited {proc.returncode}: {err[-1] if err else ''}"
        report = proc.stdout.decode()
        f = result_fields(report)
        s = x.state
        try:
            if x.command == "classify" and f["class"] != s.stratum:
                return f"classify reported {f['class']} for {s.stratum}"
            if x.command == "twins" and int(f["dimension"]) != TWIN_DIMENSION[s.stratum]:
                return f"twins reported dimension {f['dimension']} on {s.stratum}"
            if x.command == "verify" and (f["stratum"] != s.stratum or f["failed"] != "0"):
                return f"verify reported stratum {f['stratum']}, failed {f['failed']}"
            if x.command == "separability":
                return ppt_mismatch(s.t, f["separable"] == "true")
            if x.command == "schmidt":
                err = spectrum_error(s.t, _floats(f["coefficients"]))
                if err > 1e-10:
                    return f"schmidt coefficients off by {err:.3e}"
            if x.command == "correlate":
                expected = (1 - np.trace(_ZZ @ x.rho).real) / 2
                err = abs(float(f["mismatch_probability"]) - expected)
                if err > 1e-9:
                    return f"correlate mismatch probability off by {err:.3e}"
            if x.command == "canonicalize":
                err = np.abs(np.sort(np.abs(_floats(f["t"]))) - np.sort(np.abs(s.t))).max()
                if err > 1e-9 or float(f["residual"]) > 1e-9:
                    return f"canonical |t| off by {err:.3e}, residual {f['residual']}"
        except (KeyError, ValueError) as exc:
            return f"{x.command} report lacks a parsable field: {exc!r}"
        return None

    def repeat(self, x: Call, proc) -> str | None:
        """Run a call once more: its report must be byte-identical."""
        again = self.op(x)
        reason = self.check(x, again)
        if reason is None and again.stdout != proc.stdout:
            reason = f"repeated {' '.join(x.argv)} gave a different report"
        return reason


WORKLOADS = {w.name: w for w in (CliOneshot, StratumSweep, VerifyScrambled)}
