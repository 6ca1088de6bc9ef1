"""Command-line front end.

Subcommands: classify | schmidt | twins | verify | separability |
correlate | canonicalize. A state arrives as exactly one of --t, --weights,
or --input (a matrix/pure-state file). Reports are deterministic key/value
trees on standard output; error messages go to standard error.

Exit codes: 0 success, 1 input or validation failure, 2 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .linalg import RankDecisionError, from_pauli, hs_norm
from .mds import (
    NON_STATE,
    DEFAULT_TOL,
    STATE_VALIDATION_TOL,
    CanonicalForm,
    InternalConsistencyError,
    MdsClass,
    build_T,
    canonicalize,
    classify,
    edge_mixture,
    is_mds,
    is_state,
    t_from_weights,
    validate_density_matrix,
)
from .report import matrix_tree, parse_state_file, render
from .schmidt import correlation_operator, operator_schmidt, pure_schmidt
from .twins import (
    ObservablePair,
    analytic_twins,
    distant_correlation,
    pair_parameters,
    ppt_separable,
    pull_back,
    subspace_residual,
    twin_space,
)
from .verify import make_context, run_verification

COMMANDS = (
    "classify",
    "schmidt",
    "twins",
    "verify",
    "separability",
    "correlate",
    "canonicalize",
)


@dataclass
class StateSpec:
    """Parsed state input: exactly one variant is populated."""

    kind: str  # "t" | "weights" | "matrix" | "pure"
    t: np.ndarray | None = None
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    pure: np.ndarray | None = None
    source: str | None = None


def _parse_floats(text: str, count: int, label: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise ValueError(f"{label} expects {count} comma-separated values, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} values must be finite, got {text!r}")
    return values


def load_state_spec(args: argparse.Namespace) -> StateSpec:
    given = [name for name in ("t", "weights", "input") if getattr(args, name, None)]
    if len(given) != 1:
        raise ValueError(
            "exactly one of --t, --weights, --input must be given "
            f"(got {', '.join(given) if given else 'none'})"
        )
    if args.t:
        t = _parse_floats(args.t, 3, "--t")
        return StateSpec(kind="t", t=t)
    if args.weights:
        w = _parse_floats(args.weights, 4, "--weights")
        if abs(w.sum() - 1) > STATE_VALIDATION_TOL:
            raise ValueError(f"--weights must sum to 1, got {w.sum():.12g}")
        return StateSpec(kind="weights", weights=w)
    variant, data = parse_state_file(args.input)
    if variant == "matrix":
        validate_density_matrix(data, STATE_VALIDATION_TOL)
        return StateSpec(kind="matrix", matrix=data, source=args.input)
    norm = np.linalg.norm(data)
    if abs(norm - 1) > STATE_VALIDATION_TOL:
        raise ValueError(f"pure state vector has norm {norm:.12g}, expected 1")
    return StateSpec(kind="pure", pure=data, source=args.input)


def _check_tetrahedron(t: np.ndarray, tol: float) -> None:
    """Reject a t-vector outside the tetrahedron (a Bell weight below -tol)."""
    verdict = is_state(t, tol)
    if not verdict.ok:
        raise ValueError(
            f"t-vector {t.tolist()} is outside the tetrahedron "
            f"(weight w{verdict.offending_index} = {verdict.min_weight:.12g})"
        )


def state_matrix(spec: StateSpec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix of a state spec; t/weights variants must lie in the tetrahedron."""
    if spec.kind == "matrix":
        return spec.matrix
    if spec.kind == "pure":
        return np.outer(spec.pure, spec.pure.conj())
    t = spec.t if spec.kind == "t" else t_from_weights(spec.weights)
    _check_tetrahedron(t, tol)
    return build_T(t)


def _spec_tree(spec: StateSpec) -> dict:
    tree: dict = {"kind": spec.kind}
    if spec.t is not None:
        tree["t"] = list(spec.t)
    if spec.weights is not None:
        tree["weights"] = list(spec.weights)
    if spec.matrix is not None:
        tree["matrix"] = matrix_tree(spec.matrix)
    if spec.pure is not None:
        tree["pure"] = [complex(v) for v in spec.pure]
    if spec.source is not None:
        tree["source"] = spec.source
    return tree


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
    descriptions = {
        "classify": "Locate a state on the Bell tetrahedron (vertex/edge/interior).",
        "schmidt": "Operator Schmidt data; adds pure-state Schmidt data for pure input.",
        "twins": "Brute-force twin space, with the closed-form basis when available.",
        "verify": "Run all invariant checks applicable to the input state.",
        "separability": "Positive-partial-transpose verdict.",
        "correlate": "Joint outcome statistics of an observable pair on the state.",
        "canonicalize": "Local unitaries onto the diagonal-correlation form.",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
        p.add_argument("--t", help="comma-separated correlation components t1,t2,t3")
        p.add_argument("--weights", help="comma-separated Bell weights w0,w1,w2,w3")
        p.add_argument("--input", help="path to a 'matrix 4 4' or 'pure 4' state file")
        p.add_argument(
            "--tol",
            type=float,
            default=DEFAULT_TOL,
            help=f"rank-decision tolerance (default {DEFAULT_TOL:g})",
        )
        p.add_argument(
            "--seed", type=int, default=0, help="seed for sampled checks (default 0)"
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


def _resolve(spec: StateSpec) -> tuple[np.ndarray, CanonicalForm | None]:
    """Density matrix and canonical form of the input.

    A t/weights input is its own canonical form (identity frame, residual 0)
    and is not tested for tetrahedron membership here. A matrix or pure
    input is canonicalized when its subsystems are maximally disordered;
    otherwise the form is None.
    """
    if spec.kind in ("t", "weights"):
        t = spec.t if spec.kind == "t" else t_from_weights(spec.weights)
        eye = np.eye(2, dtype=complex)
        return build_T(t), CanonicalForm(u1=eye, u2=eye, t=t, residual=0.0)
    rho = state_matrix(spec)
    return rho, canonicalize(rho) if is_mds(rho) else None


def _class_tree(cls: MdsClass) -> dict:
    tree: dict = {"class": cls.kind, "weights": list(cls.weights)}
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


def cmd_classify(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    diagnostics: dict = {}
    _, cf = _resolve(spec)
    if cf is None:
        raise ValueError(
            "input state does not have maximally disordered subsystems; "
            "classification on the tetrahedron does not apply"
        )
    if spec.kind in ("matrix", "pure"):
        diagnostics["canonicalization_residual"] = cf.residual
        diagnostics["canonical_t"] = list(cf.t)
    cls = classify(cf.t, args.tol)
    verdict = is_state(cf.t, args.tol)
    diagnostics["min_weight"] = verdict.min_weight
    diagnostics["min_eigenvalue"] = verdict.min_eigenvalue
    return {"result": _class_tree(cls), "diagnostics": diagnostics}, 0


def cmd_schmidt(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    rho = state_matrix(spec)
    norm = hs_norm(rho)
    os_ = operator_schmidt(rho, args.tol)
    result: dict = {
        "hs_norm": norm,
        "coefficients": list(os_.coefficients),
        "schmidt_rank": os_.schmidt_rank,
        "degeneracy": list(os_.degeneracy),
        "left_ops": [matrix_tree(m) for m in os_.left_ops],
        "right_ops": [matrix_tree(m) for m in os_.right_ops],
    }
    if spec.kind == "pure":
        ps = pure_schmidt(spec.pure, args.tol)
        pure_tree: dict = {
            "coefficients": list(ps.coefficients),
            "schmidt_rank": ps.schmidt_rank,
            "degeneracy": list(ps.degeneracy),
            "left_vectors": [list(v) for v in ps.left_vectors],
            "right_vectors": [list(v) for v in ps.right_vectors],
        }
        ua = correlation_operator(ps)
        pure_tree["correlation_operator"] = {
            "unitary_part": matrix_tree(ua.unitary_part),
            "rank": ua.rank,
            "partial": ua.partial,
        }
        result["pure"] = pure_tree
    return {"result": result}, 0


def _pair_tree(pair: ObservablePair) -> dict:
    x = pair_parameters(pair)
    return {"a1_pauli": list(x[:4]), "a2_pauli": list(x[4:])}


def cmd_twins(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    diagnostics: dict = {}
    rho, cf = _resolve(spec)
    if spec.kind in ("t", "weights"):
        _check_tetrahedron(cf.t, args.tol)
    elif cf is not None:
        diagnostics["canonical_t"] = list(cf.t)
        diagnostics["canonicalization_residual"] = cf.residual
    space = twin_space(rho, args.tol)
    result: dict = {
        "dimension": space.dimension,
        "has_nontrivial": space.has_nontrivial,
        "singular_value_gap": space.singular_value_gap,
        "basis": [_pair_tree(p) for p in space.basis],
    }
    if cf is not None:
        cls = classify(cf.t, args.tol)
        if cls.kind != NON_STATE:
            analytic = analytic_twins(cls)
            if analytic is not None:
                pulled = pull_back(analytic, cf.u1, cf.u2)
                result["analytic"] = {
                    "stratum": cls.kind,
                    "basis": [_pair_tree(p) for p in pulled.basis],
                    "agreement_residual": subspace_residual(space, pulled),
                }
            else:
                result["analytic"] = {
                    "stratum": cls.kind,
                    "note": "no nontrivial closed-form twins on this stratum",
                }
    return {"result": result, "diagnostics": diagnostics}, 0


def cmd_verify(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    rho, cf = _resolve(spec)
    if cf is None:
        raise ValueError("verify expects a state with maximally disordered subsystems")
    if spec.kind in ("t", "weights"):
        _check_tetrahedron(cf.t, args.tol)
    ctx = make_context(rho, cf, args.tol, args.seed)
    results = run_verification(ctx)
    passed = sum(1 for r in results if r.passed)
    tree = {
        "result": {
            "stratum": ctx.cls.kind,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
            "failed": len(results) - passed,
        },
        "diagnostics": {"canonical_t": list(ctx.t), "seed": args.seed},
    }
    return tree, 0 if passed == len(results) else 2


def cmd_separability(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    rho = state_matrix(spec)
    separable, min_eig = ppt_separable(rho, args.tol)
    return {
        "result": {
            "separable": separable,
            "min_partial_transpose_eigenvalue": min_eig,
        }
    }, 0


def cmd_correlate(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    rho = state_matrix(spec)
    c1 = _parse_floats(args.a1, 4, "--a1")
    c2 = _parse_floats(args.a2, 4, "--a2")
    report = distant_correlation(ObservablePair(a1=from_pauli(c1), a2=from_pauli(c2)), rho)
    return {
        "result": {
            "a1_pauli": list(c1),
            "a2_pauli": list(c2),
            "joint_distribution": [list(row) for row in report.joint_distribution],
            "mismatch_probability": report.mismatch_probability,
            "expectation_gap": report.expectation_gap,
            "degenerate": report.degenerate,
        }
    }, 0


def cmd_canonicalize(args: argparse.Namespace, spec: StateSpec) -> tuple[dict, int]:
    rho = state_matrix(spec)
    cf = canonicalize(rho)
    return {
        "result": {
            "t": list(cf.t),
            "u1": matrix_tree(cf.u1),
            "u2": matrix_tree(cf.u2),
            "residual": cf.residual,
        }
    }, 0


_HANDLERS = {
    "classify": cmd_classify,
    "schmidt": cmd_schmidt,
    "twins": cmd_twins,
    "verify": cmd_verify,
    "separability": cmd_separability,
    "correlate": cmd_correlate,
    "canonicalize": cmd_canonicalize,
}


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
        spec = load_state_spec(args)
        tree, code = _HANDLERS[args.command](args, spec)
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
        "input": _spec_tree(spec),
    }
    report.update({k: v for k, v in tree.items() if v != {}})
    sys.stdout.write(render(report))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
