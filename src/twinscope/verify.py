"""Named invariant checks behind the CLI verify subcommand.

Each check exercises one of the library's documented invariants against a
single input state. Checks are stratum-aware: some only make sense at a
Bell vertex (pure-state machinery) or on a binary edge (closed-form twin
bases); across the three strata the union of executed checks covers the
full invariant catalogue of the classification and twin modules.

The checks are one table, `_CHECKS`, of (name, strata, check) rows in report
order. A check returns (passed, detail) and names itself nowhere;
run_verification runs the rows whose strata hold the input's stratum and
records each as a CheckResult under its row's name.

A check reads one `state.State`, which resolves and validates the input:
this module computes no part of the state itself. Moved states and Bell components
are rotations of its Pauli coordinates R; only pure-state-commutant reads rho.
Each rotation is a frame's pair of Pauli adjoints, formed once per unitary where
the frame is made (the canonical form's o1 and o2, the seeded move's pair): the
checks read them and form none. pure-state-commutant draws its five observables
in one call, from the seed's first SeedSequence child: a stream independent of
the move's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import PROBABILITY_TOL, RESIDUAL_TOL, ROUNDING_TOL, _lapack, partial_trace
from .linalg import random_hermitian
from .mds import (
    BELL_VERTEX,
    BINARY_EDGE,
    GENERIC_INTERIOR,
    NON_STATE,
    _BELL_COORDS,
    _BELL_PROJECTORS,
    _canonical_form,
    bell_t_vector,
    build_T,
    edge_mixture,
    state_test_rounding,
    t_from_weights,
    weights_from_t,
)
from .schmidt import _pure_twin_partners
from .state import State
from .twins import (
    ObservablePair,
    _off_span,
    _pauli_spectra,
    _pauli_tables,
    _simultaneous_twins,
    _twin_residuals,
    pair_parameters,
    pull_back,
    span_distances,
    subspace_residual,
)

ALL_STRATA = (BELL_VERTEX, BINARY_EDGE, GENERIC_INTERIOR)

EXPECTED_TWIN_DIMENSION = {BELL_VERTEX: 4, BINARY_EDGE: 2, GENERIC_INTERIOR: 1}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def make_context(rho: np.ndarray, cf: None, tol: float, seed: int) -> State:
    """State(tol, seed, matrix=rho), which frames itself as every CLI input does.

    `cf` is the benchmark's four-argument slot and must be None: a caller
    gives no frame, so any other value raises TypeError.
    """
    if cf is not None:
        raise TypeError(f"make_context takes no frame: cf must be None, got {type(cf).__name__}")
    return State(tol, seed, matrix=rho)


def _check_weights_roundtrip(ctx: State) -> tuple[bool, str]:
    w = ctx.cls.weights  # classify's verdict computed weights_from_t(frame.t)
    err = np.abs(t_from_weights(w) - ctx.frame.t).max()
    err_w = np.abs(weights_from_t(t_from_weights(w)) - w).max()
    ok = err <= ROUNDING_TOL and err_w <= ROUNDING_TOL
    return ok, f"t residual {err:.3e}, weight residual {err_w:.3e}"


def _check_bell_mixture_identity(ctx: State) -> tuple[bool, str]:
    direct = (ctx.cls.weights @ _BELL_PROJECTORS.reshape(4, 16)).reshape(4, 4)
    err = np.abs(build_T(ctx.frame.t) - direct).max()
    return err <= ROUNDING_TOL, f"entrywise residual {err:.3e}"


def _check_state_test_agreement(ctx: State) -> tuple[bool, str]:
    verdict = ctx.cls.verdict
    # the two tests compute the same number, so they must agree to rounding
    rounding = state_test_rounding(ctx.cls.weights)
    ok = verdict.ok and abs(verdict.min_weight - verdict.min_eigenvalue) <= rounding
    return ok, f"min weight {verdict.min_weight:.3e}, min eigenvalue {verdict.min_eigenvalue:.3e}"


def _check_vertex_sign_table(ctx: State) -> tuple[bool, str]:
    k = ctx.cls.vertex
    err = np.abs(ctx.frame.t - bell_t_vector(k)).max()
    return err <= ctx.tol, f"sign pattern matches Bell projector {k} (residual {err:.3e})"


def _check_edge_weight_consistency(ctx: State) -> tuple[bool, str]:
    mixture = edge_mixture(ctx.cls)
    w = ctx.cls.weights
    err = max(abs(w[k] - mixture.get(k, 0.0)) for k in range(4))
    # classify calls a state an edge while its vanishing weights are below the cut
    return err <= ctx.tol, f"closed-form edge weights match within {err:.3e} ({ctx.cls.detail})"


def _check_canonical_form_roundtrip(ctx: State) -> tuple[bool, str]:
    cf, bound = _canonical_form(ctx.moved[2])
    mag_err = np.abs(np.sort(np.abs(cf.t)) - np.sort(np.abs(ctx.frame.t))).max()
    ok = cf.residual <= bound and mag_err <= RESIDUAL_TOL
    return ok, f"residual {cf.residual:.3e}, |t| multiset deviation {mag_err:.3e}"


def _check_twin_dimension_law(ctx: State) -> tuple[bool, str]:
    space = ctx.space
    expected = EXPECTED_TWIN_DIMENSION[ctx.cls.kind]
    return (
        space.dimension == expected,
        f"oracle dimension {space.dimension}, expected {expected}, "
        f"rank gap {space.singular_value_gap:.3e}",
    )


def _check_analytic_twins_in_oracle(ctx: State) -> tuple[bool, str]:
    # the membership residual is the pulled -> oracle half of the mutual one, which bounds it
    member = float(_off_span(ctx.analytic.rows, ctx.space).max())
    mutual = float(max(_off_span(ctx.space.rows, ctx.analytic).max(), member))
    return (
        mutual <= RESIDUAL_TOL,
        f"membership residual {member:.3e}, mutual span residual {mutual:.3e}",
    )


def _check_mixture_intersection_twins(ctx: State) -> tuple[bool, str]:
    w = ctx.cls.weights
    support = [k for k in range(4) if w[k] > ctx.tol]
    # the Bell components of T(frame.t), pulled back onto rho: O1^T C_k O2 in Pauli coordinates
    components = ctx.frame.o1.T @ _BELL_COORDS[support] @ ctx.frame.o2
    via_mixture = ctx.space
    via_intersection = _simultaneous_twins(components, ctx.tol)
    res = subspace_residual(via_mixture, via_intersection)
    return (
        via_mixture.dimension == via_intersection.dimension and res <= RESIDUAL_TOL,
        f"support {support}, dimensions {via_mixture.dimension}/"
        f"{via_intersection.dimension}, span residual {res:.3e}",
    )


def _check_local_unitary_covariance(ctx: State) -> tuple[bool, str]:
    o1, o2, moved_coords = ctx.moved
    space = ctx.space
    moved_space = ctx.moved_space
    if moved_space.dimension != space.dimension:
        return False, f"dimension changed {space.dimension} -> {moved_space.dimension}"
    # the move's inverse: O(v^dag) = O(v)^T
    moved = pull_back(space, o1.T, o2.T)
    worst_res = float(_twin_residuals(moved.rows, moved_coords).max())
    worst_member = float(span_distances(moved_space, moved.rows).max())
    ok = worst_res <= RESIDUAL_TOL and worst_member <= RESIDUAL_TOL
    return ok, f"twin residual {worst_res:.3e}, membership residual {worst_member:.3e}"


def _check_pure_state_commutant(ctx: State) -> tuple[bool, str]:
    eigs, v = _lapack("eigh_lo", ctx.rho)
    if eigs[:3].max() > RESIDUAL_TOL:
        return False, "input is not a rank-one projector"
    phi = v[:, -1]
    rho1 = partial_trace(ctx.rho, 1)
    # the seed's first SeedSequence child, ctx.rng().spawn(1)[0] without its parent:
    # a stream of the seed independent of the move's draws
    rng = np.random.default_rng(np.random.SeedSequence(ctx.seed, spawn_key=(0,)))
    a1 = random_hermitian(rng, size=5)
    comm = np.linalg.norm((a1 @ rho1 - rho1 @ a1).reshape(len(a1), -1), axis=1)
    failing = np.flatnonzero(comm > RESIDUAL_TOL)
    if failing.size:
        return False, f"random observable fails to commute with I/2 ({comm[failing[0]]:.3e})"
    a2 = _pure_twin_partners(a1, phi)
    worst_member = float(span_distances(ctx.space, pair_parameters(ObservablePair(a1, a2))).max())
    oracle_a1 = ctx.space.ops[:, 0]
    worst_comm = float(np.abs(oracle_a1 @ rho1 - rho1 @ oracle_a1).max())
    return (
        worst_member <= RESIDUAL_TOL and worst_comm <= RESIDUAL_TOL,
        f"transport membership residual {worst_member:.3e}, "
        f"oracle commutator residual {worst_comm:.3e}",
    )


def _check_perfect_correlation(ctx: State) -> tuple[bool, str]:
    dist, gap, degenerate = _pauli_tables(ctx.space.rows, ctx.coords)
    paired = ~degenerate
    mismatch = dist[paired, 0, 1] + dist[paired, 1, 0]
    worst_mismatch = float(mismatch.max(initial=0.0))
    worst_gap = float(gap[paired].max(initial=0.0))
    return (
        worst_mismatch <= PROBABILITY_TOL and worst_gap <= PROBABILITY_TOL,
        f"{int(paired.sum())} nondegenerate pairs, worst mismatch {worst_mismatch:.3e}, "
        f"worst expectation gap {worst_gap:.3e}",
    )


def _check_twin_spectra_match(ctx: State) -> tuple[bool, str]:
    halves = ctx.space.rows[1:].reshape(-1, 2, 4)
    deviation = _pauli_spectra(halves[:, 0]) - _pauli_spectra(halves[:, 1])
    worst = float(np.abs(deviation).max(initial=0.0))
    return worst <= RESIDUAL_TOL, f"largest sorted-spectrum deviation {worst:.3e}"


_CHECKS = (
    ("weights-roundtrip", ALL_STRATA, _check_weights_roundtrip),
    ("bell-mixture-identity", ALL_STRATA, _check_bell_mixture_identity),
    ("state-test-agreement", ALL_STRATA, _check_state_test_agreement),
    ("vertex-sign-table", (BELL_VERTEX,), _check_vertex_sign_table),
    ("edge-weight-consistency", (BINARY_EDGE,), _check_edge_weight_consistency),
    ("canonical-form-roundtrip", ALL_STRATA, _check_canonical_form_roundtrip),
    ("twin-dimension-law", ALL_STRATA, _check_twin_dimension_law),
    ("analytic-twins-in-oracle", (BELL_VERTEX, BINARY_EDGE), _check_analytic_twins_in_oracle),
    ("mixture-intersection-twins", ALL_STRATA, _check_mixture_intersection_twins),
    ("local-unitary-covariance", ALL_STRATA, _check_local_unitary_covariance),
    ("pure-state-commutant", (BELL_VERTEX,), _check_pure_state_commutant),
    ("perfect-correlation", ALL_STRATA, _check_perfect_correlation),
    ("twin-spectra-match", (BINARY_EDGE,), _check_twin_spectra_match),
)


def run_verification(ctx: State) -> list[CheckResult]:
    """Run every invariant check applicable to the input's stratum.

    A state no check applies to raises ValueError: one whose subsystems are
    not maximally disordered, or whose canonical t is outside the tetrahedron.
    """
    if ctx.cls is None:
        raise ValueError("verify expects a state with maximally disordered subsystems")
    if ctx.cls.kind == NON_STATE:
        raise ValueError(
            f"canonical t-vector {ctx.frame.t.tolist()} is outside the tetrahedron "
            f"({ctx.cls.detail})"
        )
    results = []
    for name, strata, check in _CHECKS:
        if ctx.cls.kind in strata:
            passed, detail = check(ctx)
            results.append(CheckResult(name, bool(passed), detail))
    return results
