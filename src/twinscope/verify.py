"""Named invariant checks behind the CLI verify subcommand.

Each check exercises one of the library's documented invariants against a
single input state. Checks are stratum-aware: some only make sense at a
Bell vertex (pure-state machinery) or on a binary edge (closed-form twin
bases); across the three strata the union of executed checks covers the
full invariant catalogue of the classification and twin modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import PROBABILITY_TOL, RESIDUAL_TOL, ROUNDING_TOL, local_conj, partial_trace
from .linalg import pauli_coordinates, random_hermitian, random_unitary, to_pauli
from .mds import (
    BELL_VERTEX,
    BINARY_EDGE,
    GENERIC_INTERIOR,
    NON_STATE,
    _BELL_PROJECTORS,
    CanonicalForm,
    MdsClass,
    StateVerdict,
    _canonical_form,
    _canonicalize,
    _is_mds,
    bell_t_vector,
    build_T,
    classify,
    edge_mixture,
    is_state,
    state_test_rounding,
    t_from_weights,
    validate_density_matrix,
    weights_from_t,
)
from .schmidt import pure_twin_partners
from .twins import (
    TwinSpace,
    _twin_space,
    analytic_twins,
    correlation_tables,
    pull_back,
    simultaneous_twins,
    span_distances,
    subspace_residual,
    twin_residuals,
)

ALL_STRATA = frozenset({BELL_VERTEX, BINARY_EDGE, GENERIC_INTERIOR})

EXPECTED_TWIN_DIMENSION = {BELL_VERTEX: 4, BINARY_EDGE: 2, GENERIC_INTERIOR: 1}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(eq=False)
class VerifyContext:
    """One input state, resolved once: each part is computed on first read and kept.

    The state is exactly one of `matrix`, a density matrix that
    validate_density_matrix returned, `pure`, a normalized vector, and `t`, a
    t-vector with `verdict` is_state(t, tol). `rho` is the density matrix
    every kernel reads, validated once (T(t) only inside the tetrahedron), and
    `coords` its Pauli coordinates. `frame` is the canonical form
    (u1 x u2) rho (u1 x u2)^dag = T(frame.t): the identity frame for a t,
    else the canonicalized rho, or None when the subsystems are not maximally
    disordered. `cls` classifies frame.t, `space` is the oracle twin space of
    rho and `analytic` the closed-form one, pulled back onto rho.
    """

    tol: float
    seed: int
    matrix: np.ndarray | None = None
    pure: np.ndarray | None = None
    t: np.ndarray | None = None

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    @cached_property
    def verdict(self) -> StateVerdict | None:
        return None if self.t is None else is_state(self.t, self.tol)

    @cached_property
    def rho(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        if self.pure is not None:
            return validate_density_matrix(np.outer(self.pure, self.pure.conj()))
        if not self.verdict.ok:
            raise ValueError(
                f"t-vector {self.t.tolist()} is outside the tetrahedron "
                f"(weight w{self.verdict.offending_index} = {self.verdict.min_weight:.12g})"
            )
        return validate_density_matrix(build_T(self.t))

    @cached_property
    def coords(self) -> np.ndarray:
        return pauli_coordinates(self.rho)

    @cached_property
    def frame(self) -> CanonicalForm | None:
        if self.t is not None:
            eye = np.eye(2, dtype=complex)
            return CanonicalForm(u1=eye, u2=eye, t=self.t, residual=0.0)
        return _canonicalize(self.rho, self.coords) if _is_mds(self.coords) else None

    @cached_property
    def cls(self) -> MdsClass | None:
        return None if self.frame is None else classify(self.frame.t, self.tol, self.verdict)

    @cached_property
    def space(self) -> TwinSpace:
        return _twin_space(self.rho, self.tol)

    @cached_property
    def analytic(self) -> TwinSpace | None:
        """analytic_twins(cls) pulled back onto rho; None off the vertex and edge strata."""
        closed = None if self.cls is None else analytic_twins(self.cls)
        return None if closed is None else pull_back(closed, self.frame.u1, self.frame.u2)

    @cached_property
    def moved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Seeded local unitaries (v1, v2) and the moved state (v1 x v2) rho (v1 x v2)^dag.

        Drawn once from rng() and shared by canonical-form-roundtrip and
        local-unitary-covariance; the moved state is validated once, here.
        """
        rng = self.rng()
        v1 = random_unitary(rng)
        v2 = random_unitary(rng)
        return v1, v2, validate_density_matrix(local_conj(self.rho, v1, v2))

    def pull_back_state(self, sigma: np.ndarray) -> np.ndarray:
        """(u1 x u2)^dag sigma (u1 x u2), for a 4x4 sigma or a stack (..., 4, 4)."""
        return local_conj(sigma, self.frame.u1.conj().T, self.frame.u2.conj().T)


def make_context(
    rho: np.ndarray, cf: CanonicalForm | None, tol: float, seed: int
) -> VerifyContext:
    """The context of a density matrix rho, validated and framed here.

    With `cf` None, rho is canonicalized here; otherwise `cf` is its canonical form.
    """
    ctx = VerifyContext(tol, seed, matrix=validate_density_matrix(rho))
    ctx.frame = _canonicalize(ctx.rho, ctx.coords) if cf is None else cf
    return ctx


def _check_weights_roundtrip(ctx: VerifyContext) -> CheckResult:
    w = weights_from_t(ctx.frame.t)
    err = np.abs(t_from_weights(w) - ctx.frame.t).max()
    err_w = np.abs(weights_from_t(t_from_weights(w)) - w).max()
    return CheckResult(
        "weights-roundtrip",
        bool(err <= ROUNDING_TOL and err_w <= ROUNDING_TOL),
        f"t residual {err:.3e}, weight residual {err_w:.3e}",
    )


def _check_bell_mixture_identity(ctx: VerifyContext) -> CheckResult:
    direct = (ctx.cls.weights @ _BELL_PROJECTORS.reshape(4, 16)).reshape(4, 4)
    err = np.abs(build_T(ctx.frame.t) - direct).max()
    return CheckResult(
        "bell-mixture-identity", bool(err <= ROUNDING_TOL), f"entrywise residual {err:.3e}"
    )


def _check_state_test_agreement(ctx: VerifyContext) -> CheckResult:
    verdict = ctx.cls.verdict
    # the two tests compute the same number, so they must agree to rounding
    rounding = state_test_rounding(ctx.cls.weights)
    ok = verdict.ok and abs(verdict.min_weight - verdict.min_eigenvalue) <= rounding
    return CheckResult(
        "state-test-agreement",
        bool(ok),
        f"min weight {verdict.min_weight:.3e}, min eigenvalue {verdict.min_eigenvalue:.3e}",
    )


def _check_vertex_sign_table(ctx: VerifyContext) -> CheckResult:
    k = ctx.cls.vertex
    err = np.abs(ctx.frame.t - bell_t_vector(k)).max()
    return CheckResult(
        "vertex-sign-table",
        bool(err <= ctx.tol),
        f"sign pattern matches Bell projector {k} (residual {err:.3e})",
    )


def _check_edge_weight_consistency(ctx: VerifyContext) -> CheckResult:
    mixture = edge_mixture(ctx.cls)
    w = ctx.cls.weights
    err = max(abs(w[k] - mixture.get(k, 0.0)) for k in range(4))
    return CheckResult(
        "edge-weight-consistency",
        # classify calls a state an edge while its vanishing weights are below the cut
        bool(err <= ctx.tol),
        f"closed-form edge weights match within {err:.3e} ({ctx.cls.detail})",
    )


def _check_canonical_form_roundtrip(ctx: VerifyContext) -> CheckResult:
    cf, bound = _canonical_form(ctx.moved[2], pauli_coordinates(ctx.moved[2]))
    mag_err = np.abs(np.sort(np.abs(cf.t)) - np.sort(np.abs(ctx.frame.t))).max()
    ok = cf.residual <= bound and mag_err <= RESIDUAL_TOL
    return CheckResult(
        "canonical-form-roundtrip",
        bool(ok),
        f"residual {cf.residual:.3e}, |t| multiset deviation {mag_err:.3e}",
    )


def _check_twin_dimension_law(ctx: VerifyContext) -> CheckResult:
    space = ctx.space
    expected = EXPECTED_TWIN_DIMENSION[ctx.cls.kind]
    return CheckResult(
        "twin-dimension-law",
        bool(space.dimension == expected),
        f"oracle dimension {space.dimension}, expected {expected}, "
        f"rank gap {space.singular_value_gap:.3e}",
    )


def _check_analytic_twins_in_oracle(ctx: VerifyContext) -> CheckResult:
    oracle = ctx.space
    pulled = ctx.analytic
    worst = float(span_distances(oracle, pulled.rows).max())
    mutual = subspace_residual(oracle, pulled)
    ok = worst <= RESIDUAL_TOL and mutual <= RESIDUAL_TOL
    return CheckResult(
        "analytic-twins-in-oracle",
        bool(ok),
        f"membership residual {worst:.3e}, mutual span residual {mutual:.3e}",
    )


def _check_mixture_intersection_twins(ctx: VerifyContext) -> CheckResult:
    w = ctx.cls.weights
    support = [k for k in range(4) if w[k] > ctx.tol]
    components = ctx.pull_back_state(_BELL_PROJECTORS[support])
    via_mixture = ctx.space
    via_intersection = simultaneous_twins(components, ctx.tol)
    res = subspace_residual(via_mixture, via_intersection)
    ok = via_mixture.dimension == via_intersection.dimension and res <= RESIDUAL_TOL
    return CheckResult(
        "mixture-intersection-twins",
        bool(ok),
        f"support {support}, dimensions {via_mixture.dimension}/"
        f"{via_intersection.dimension}, span residual {res:.3e}",
    )


def _check_local_unitary_covariance(ctx: VerifyContext) -> CheckResult:
    v1, v2, moved_state = ctx.moved
    space = ctx.space
    moved_space = _twin_space(moved_state, ctx.tol)
    if moved_space.dimension != space.dimension:
        return CheckResult(
            "local-unitary-covariance",
            False,
            f"dimension changed {space.dimension} -> {moved_space.dimension}",
        )
    moved = pull_back(space, v1.conj().T, v2.conj().T)
    ops = moved.ops
    worst_res = float(twin_residuals(ops[:, 0], ops[:, 1], moved_state).max())
    worst_member = float(span_distances(moved_space, moved.rows).max())
    ok = worst_res <= RESIDUAL_TOL and worst_member <= RESIDUAL_TOL
    return CheckResult(
        "local-unitary-covariance",
        bool(ok),
        f"twin residual {worst_res:.3e}, membership residual {worst_member:.3e}",
    )


def _check_pure_state_commutant(ctx: VerifyContext) -> CheckResult:
    eigs, v = np.linalg.eigh(ctx.rho)
    if eigs[:3].max() > RESIDUAL_TOL:
        return CheckResult(
            "pure-state-commutant", False, "input is not a rank-one projector"
        )
    phi = v[:, -1]
    rho1 = partial_trace(ctx.rho, 1)
    rng = ctx.rng()
    a1 = np.array([random_hermitian(rng) for _ in range(5)])
    comm = np.linalg.norm((a1 @ rho1 - rho1 @ a1).reshape(len(a1), -1), axis=1)
    failing = np.flatnonzero(comm > RESIDUAL_TOL)
    if failing.size:
        return CheckResult(
            "pure-state-commutant",
            False,
            f"random observable fails to commute with I/2 ({comm[failing[0]]:.3e})",
        )
    a2 = pure_twin_partners(a1, phi)
    worst_member = float(span_distances(ctx.space, np.hstack([to_pauli(a1), to_pauli(a2)])).max())
    oracle_a1 = ctx.space.ops[:, 0]
    worst_comm = float(np.abs(oracle_a1 @ rho1 - rho1 @ oracle_a1).max())
    ok = worst_member <= RESIDUAL_TOL and worst_comm <= RESIDUAL_TOL
    return CheckResult(
        "pure-state-commutant",
        bool(ok),
        f"transport membership residual {worst_member:.3e}, "
        f"oracle commutator residual {worst_comm:.3e}",
    )


def _check_perfect_correlation(ctx: VerifyContext) -> CheckResult:
    ops = ctx.space.ops
    dist, gap, degenerate = correlation_tables(ops[:, 0], ops[:, 1], ctx.rho)
    paired = ~degenerate
    mismatch = dist[paired, 0, 1] + dist[paired, 1, 0]
    worst_mismatch = float(mismatch.max(initial=0.0))
    worst_gap = float(gap[paired].max(initial=0.0))
    ok = worst_mismatch <= PROBABILITY_TOL and worst_gap <= PROBABILITY_TOL
    return CheckResult(
        "perfect-correlation",
        bool(ok),
        f"{int(paired.sum())} nondegenerate pairs, worst mismatch {worst_mismatch:.3e}, "
        f"worst expectation gap {worst_gap:.3e}",
    )


def _check_twin_spectra_match(ctx: VerifyContext) -> CheckResult:
    ops = ctx.space.ops[1:]
    s1 = np.sort(np.linalg.eigvalsh(ops[:, 0]))
    s2 = np.sort(np.linalg.eigvalsh(ops[:, 1]))
    worst = float(np.abs(s1 - s2).max(initial=0.0))
    return CheckResult(
        "twin-spectra-match",
        bool(worst <= RESIDUAL_TOL),
        f"largest sorted-spectrum deviation {worst:.3e}",
    )


_CHECKS = (
    (_check_weights_roundtrip, ALL_STRATA),
    (_check_bell_mixture_identity, ALL_STRATA),
    (_check_state_test_agreement, ALL_STRATA),
    (_check_vertex_sign_table, frozenset({BELL_VERTEX})),
    (_check_edge_weight_consistency, frozenset({BINARY_EDGE})),
    (_check_canonical_form_roundtrip, ALL_STRATA),
    (_check_twin_dimension_law, ALL_STRATA),
    (_check_analytic_twins_in_oracle, frozenset({BELL_VERTEX, BINARY_EDGE})),
    (_check_mixture_intersection_twins, ALL_STRATA),
    (_check_local_unitary_covariance, ALL_STRATA),
    (_check_pure_state_commutant, frozenset({BELL_VERTEX})),
    (_check_perfect_correlation, ALL_STRATA),
    (_check_twin_spectra_match, frozenset({BINARY_EDGE})),
)


def run_verification(ctx: VerifyContext) -> list[CheckResult]:
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
    for fn, strata in _CHECKS:
        if ctx.cls.kind in strata:
            results.append(fn(ctx))
    return results
