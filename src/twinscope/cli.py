"""Command-line front end.

Subcommands: classify | schmidt | twins | verify | separability |
correlate | canonicalize. A state arrives as exactly one of --t, --weights,
or --input (a matrix/pure-state file), and becomes one `state.State`,
which validates what it is given; the subcommands only read it. Reports
are deterministic key/value trees on standard output; error messages go
to standard error. `schmidt` and `verify` are imported inside the one
handler that runs each, so no other command pays for loading them.

Exit codes: 0 success, 1 input or validation failure, 2 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .linalg import DEFAULT_TOL, RANK_GUARD, STATE_VALIDATION_TOL, RankDecisionError
from .mds import NON_STATE, InternalConsistencyError, MdsClass, edge_mixture, t_from_weights
from .report import parse_state_file, render
from .state import State
from .twins import (
    TwinSpace,
    _correlation_report,
    _pauli_tables,
    _ppt_separable,
    subspace_residual,
)

def _parse_floats(text: str, count: int, label: str) -> np.ndarray:
    parts = text.split(",")
    for n, part in enumerate(parts, 1):
        if not part.strip():
            raise ValueError(f"{label}: field {n} of {text!r} is empty")
    if len(parts) != count:
        raise ValueError(f"{label} expects {count} comma-separated values, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} values must be finite, got {text!r}")
    return values


def load_state_spec(args: argparse.Namespace) -> tuple[State, dict]:
    """The one State of the parsed flags, and the input tree the report echoes."""
    # an empty value is given too: `--t=` is a field error, not a missing flag
    given = [name for name in ("t", "weights", "input") if getattr(args, name, None) is not None]
    if len(given) != 1:
        raise ValueError(
            "exactly one of --t, --weights, --input must be given "
            f"(got {', '.join(given) if given else 'none'})"
        )
    if args.t is not None:
        t = _parse_floats(args.t, 3, "--t")
        return State(args.tol, args.seed, t=t), {"kind": "t", "t": t}
    if args.weights is not None:
        w = _parse_floats(args.weights, 4, "--weights")
        if abs(w.sum() - 1) > STATE_VALIDATION_TOL:
            raise ValueError(f"--weights must sum to 1, got {w.sum():.12g}")
        state = State(args.tol, args.seed, t=t_from_weights(w))
        return state, {"kind": "weights", "weights": w}
    if not args.input:
        raise ValueError("--input: the path is empty")
    variant, data = parse_state_file(args.input)
    state = State(args.tol, args.seed, **{variant: data})
    state.rho  # a file is gated where it is read
    # a matrix echoes its exact Hermitian part: what passed the gate, and what every command reads
    echo = state.rho if variant == "matrix" else data
    return state, {"kind": variant, variant: echo, "source": args.input}


def _tol_flag(text: str) -> float:
    """Parse --tol: a finite relative cut in (0, 1/RANK_GUARD); argparse names the flag.

    At or above 1/RANK_GUARD no kept value can clear the guard band (every
    value is at most 1 relative to the largest), so such a cut decides nothing.
    """
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not (np.isfinite(tol) and 0 < tol < 1 / RANK_GUARD):
        raise argparse.ArgumentTypeError(
            f"must be finite and in (0, {1 / RANK_GUARD:g}), got {text}"
        )
    return tol


def _seed_flag(text: str) -> int:
    """Parse --seed: a non-negative integer, as numpy's generators require."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinscope",
        description=(
            "Analyze two-qubit states: Bell-diagonal classification, operator "
            "Schmidt decompositions, twin observables, separability, and "
            "distant-measurement correlations."
        ),
    )
    parser.add_argument("--version", action="version", version=f"twinscope {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__, description=handler.__doc__)
        p.add_argument("--t", help="comma-separated correlation components t1,t2,t3")
        p.add_argument("--weights", help="comma-separated Bell weights w0,w1,w2,w3")
        p.add_argument("--input", help="path to a 'matrix 4 4' or 'pure 4' state file")
        p.add_argument(
            "--tol",
            type=_tol_flag,
            default=DEFAULT_TOL,
            help=f"rank-decision tolerance in (0, {1 / RANK_GUARD:g}) (default {DEFAULT_TOL:g})",
        )
        p.add_argument(
            "--seed",
            type=_seed_flag,
            default=0,
            help="non-negative seed for sampled checks (default 0)",
        )
        if name == "correlate":
            p.add_argument(
                "--a1",
                required=True,
                help="first-subsystem observable as Pauli components c0,c1,c2,c3",
            )
            p.add_argument(
                "--a2",
                required=True,
                help="second-subsystem observable as Pauli components c0,c1,c2,c3",
            )
    return parser


def _class_tree(cls: MdsClass) -> dict:
    tree: dict = {"class": cls.kind, "weights": cls.weights}
    if cls.vertex is not None:
        tree["vertex"] = cls.vertex
    if cls.axis is not None:
        tree["axis"] = cls.axis
        tree["case"] = cls.case
        tree["edge_parameter"] = cls.edge_parameter
        mixture = edge_mixture(cls)
        tree["mixture"] = {f"T{k}": w for k, w in sorted(mixture.items())}
    tree["detail"] = cls.detail
    return tree


def cmd_classify(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Locate a state on the Bell tetrahedron (vertex/edge/interior)."""
    diagnostics: dict = {}
    cf = state.frame
    if cf is None:
        raise ValueError(
            "input state does not have maximally disordered subsystems; "
            "classification on the tetrahedron does not apply"
        )
    if state.t is None:
        diagnostics["canonicalization_residual"] = cf.residual
        diagnostics["canonical_t"] = cf.t
    cls = state.cls
    diagnostics["min_weight"] = cls.verdict.min_weight
    diagnostics["min_eigenvalue"] = cls.verdict.min_eigenvalue
    return {"result": _class_tree(cls), "diagnostics": diagnostics}, 0


def cmd_schmidt(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Operator Schmidt data; adds pure-state Schmidt data for pure input."""
    from .schmidt import _operator_schmidt, correlation_operator, pure_schmidt

    os_ = _operator_schmidt(state.coords, state.tol)
    result: dict = {
        "hs_norm": float(np.linalg.norm(state.rho)),
        "coefficients": os_.coefficients,
        "schmidt_rank": os_.schmidt_rank,
        "degeneracy": os_.degeneracy,
        "left_ops": os_.left_ops,
        "right_ops": os_.right_ops,
    }
    if state.pure is not None:
        ps = pure_schmidt(state.pure, state.tol)
        pure_tree: dict = {
            "coefficients": ps.coefficients,
            "schmidt_rank": ps.schmidt_rank,
            "degeneracy": ps.degeneracy,
            "left_vectors": ps.left_vectors,
            "right_vectors": ps.right_vectors,
        }
        ua = correlation_operator(ps)
        pure_tree["correlation_operator"] = {**ua._asdict(), "partial": ua.partial}
        result["pure"] = pure_tree
    return {"result": result}, 0


def _basis_tree(space: TwinSpace) -> list[dict]:
    """The stored rows of a twin space, one a1/a2 pair of Pauli components each."""
    rows = space.rows + 0.0  # a sign flip of an exact zero prints as 0, not -0
    return [{"a1_pauli": row[:4], "a2_pauli": row[4:]} for row in rows]


def cmd_twins(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Brute-force twin space, with the closed-form basis when available."""
    diagnostics: dict = {}
    cf = state.frame
    if cf is not None and state.t is None:
        diagnostics["canonical_t"] = cf.t
        diagnostics["canonicalization_residual"] = cf.residual
    space = state.space
    result: dict = {
        "dimension": space.dimension,
        "has_nontrivial": space.has_nontrivial,
        "singular_value_gap": space.singular_value_gap,
        "basis": _basis_tree(space),
    }
    cls = state.cls
    if cls is not None and cls.kind != NON_STATE:
        pulled = state.analytic
        if pulled is not None:
            result["analytic"] = {
                "stratum": cls.kind,
                "basis": _basis_tree(pulled),
                "agreement_residual": subspace_residual(space, pulled),
            }
        else:
            result["analytic"] = {
                "stratum": cls.kind,
                "note": "no nontrivial closed-form twins on this stratum",
            }
    return {"result": result, "diagnostics": diagnostics}, 0


def cmd_verify(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Run all invariant checks applicable to the input state."""
    from .verify import run_verification

    state.rho  # a --t outside the tetrahedron fails here, before any check
    results = run_verification(state)
    passed = sum(1 for r in results if r.passed)
    tree = {
        "result": {
            "stratum": state.cls.kind,
            "checks": [r._asdict() for r in results],
            "passed": passed,
            "failed": len(results) - passed,
        },
        "diagnostics": {"canonical_t": state.frame.t, "seed": state.seed},
    }
    return tree, 0 if passed == len(results) else 2


def cmd_separability(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Positive-partial-transpose verdict."""
    separable, min_eig = _ppt_separable(state.rho, state.tol)
    return {
        "result": {
            "separable": separable,
            "min_partial_transpose_eigenvalue": min_eig,
        }
    }, 0


def cmd_correlate(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Joint outcome statistics of an observable pair on the state."""
    coords = state.coords
    c1 = _parse_floats(args.a1, 4, "--a1")
    c2 = _parse_floats(args.a2, 4, "--a2")
    # one Pauli row (c1, c2), read as perfect-correlation reads twin rows: no lift, no guard
    report = _correlation_report(*_pauli_tables(np.concatenate([c1, c2])[None], coords))
    return {"result": {"a1_pauli": c1, "a2_pauli": c2, **report._asdict()}}, 0


def cmd_canonicalize(args: argparse.Namespace, state: State) -> tuple[dict, int]:
    """Local unitaries onto the diagonal-correlation form."""
    cf = state.canonical
    return {
        "result": {
            "t": cf.t,
            "u1": cf.u1,
            "u2": cf.u2,
            "residual": cf.residual,
        }
    }, 0


# the one command table: a handler's docstring is its --help text
_HANDLERS = {
    "classify": cmd_classify,
    "schmidt": cmd_schmidt,
    "twins": cmd_twins,
    "verify": cmd_verify,
    "separability": cmd_separability,
    "correlate": cmd_correlate,
    "canonicalize": cmd_canonicalize,
}
COMMANDS = tuple(_HANDLERS)


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, and print the report. Returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors; usage
        # errors are input failures here
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("twinscope: error: a subcommand is required", file=sys.stderr)
        return 1
    # RankDecisionError is a ValueError, so the exit-2 branch comes first
    try:
        state, input_tree = load_state_spec(args)
        tree, code = _HANDLERS[args.command](args, state)
    except (InternalConsistencyError, RankDecisionError) as exc:
        print(f"twinscope {args.command}: internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"twinscope {args.command}: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "version": __version__,
        "tolerances": {
            "rank": args.tol,
            "state_validation": STATE_VALIDATION_TOL,
        },
        "input": input_tree,
    }
    report.update({k: v for k, v in tree.items() if v != {}})
    sys.stdout.write(render(report))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
