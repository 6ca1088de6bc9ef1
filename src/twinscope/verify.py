"""Named invariant checks behind the CLI verify subcommand.

Each check exercises one of the library's documented invariants against a
single input state. Checks are stratum-aware: some only make sense at a
Bell vertex (pure-state machinery) or on a binary edge (closed-form twin
bases); across the three strata the union of executed checks covers the
full invariant catalogue of the classification and twin modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hs_norm, partial_trace, random_hermitian, random_unitary, tensor
from .mds import (
    BELL_VERTEX,
    BINARY_EDGE,
    GENERIC_INTERIOR,
    CanonicalForm,
    MdsClass,
    bell_state,
    bell_t_vector,
    build_T,
    canonicalize,
    classify,
    edge_mixture,
    is_state,
    t_from_weights,
    weights_from_t,
)
from .schmidt import pure_twin_partner
from .twins import (
    ObservablePair,
    TwinSpace,
    analytic_twins,
    contains_pair,
    distant_correlation,
    is_twin_pair,
    pull_back,
    simultaneous_twins,
    subspace_residual,
    twin_space,
)

ALL_STRATA = frozenset({BELL_VERTEX, BINARY_EDGE, GENERIC_INTERIOR})

EXPECTED_TWIN_DIMENSION = {BELL_VERTEX: 4, BINARY_EDGE: 2, GENERIC_INTERIOR: 1}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyContext:
    """Input state plus its generating form: (u1 x u2) rho (u1 x u2)^dag = T(t).

    `cls` is the classification of t and `space` the oracle twin space of
    rho; both are computed once, in make_context, and shared by the checks.
    """

    rho: np.ndarray
    t: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    cls: MdsClass
    space: TwinSpace
    tol: float
    seed: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def pull_back_state(self, sigma: np.ndarray) -> np.ndarray:
        u = tensor(self.u1, self.u2)
        return u.conj().T @ sigma @ u


def make_context(
    rho: np.ndarray,
    cf: CanonicalForm | None,
    tol: float,
    seed: int,
) -> VerifyContext:
    """Resolve the generating form, the class and the oracle twin space of rho.

    `cf` is the canonical form of rho when the caller already has one (for a
    t/weights input, the identity frame); with None, rho is canonicalized here.
    """
    if cf is None:
        cf = canonicalize(rho)
    return VerifyContext(
        rho=np.asarray(rho, dtype=complex),
        t=cf.t,
        u1=cf.u1,
        u2=cf.u2,
        cls=classify(cf.t, tol),
        space=twin_space(rho, tol),
        tol=tol,
        seed=seed,
    )


def _check_weights_roundtrip(ctx: VerifyContext) -> CheckResult:
    w = weights_from_t(ctx.t)
    err = np.abs(t_from_weights(w) - ctx.t).max()
    err_w = np.abs(weights_from_t(t_from_weights(w)) - w).max()
    return CheckResult(
        "weights-roundtrip",
        bool(err <= 1e-12 and err_w <= 1e-12),
        f"t residual {err:.3e}, weight residual {err_w:.3e}",
    )


def _check_bell_mixture_identity(ctx: VerifyContext) -> CheckResult:
    w = ctx.cls.weights
    direct = sum(w[k] * bell_state(k)[1] for k in range(4))
    err = np.abs(build_T(ctx.t) - direct).max()
    return CheckResult(
        "bell-mixture-identity", bool(err <= 1e-12), f"entrywise residual {err:.3e}"
    )


def _check_state_test_agreement(ctx: VerifyContext) -> CheckResult:
    verdict = is_state(ctx.t, ctx.tol)
    # the two tests compute the same number, so they must agree to rounding
    rounding = 1e-12 * max(1.0, float(np.abs(ctx.cls.weights).sum()))
    ok = verdict.ok and abs(verdict.min_weight - verdict.min_eigenvalue) <= rounding
    return CheckResult(
        "state-test-agreement",
        bool(ok),
        f"min weight {verdict.min_weight:.3e}, min eigenvalue {verdict.min_eigenvalue:.3e}",
    )


def _check_vertex_sign_table(ctx: VerifyContext) -> CheckResult:
    k = ctx.cls.vertex
    err = np.abs(ctx.t - bell_t_vector(k)).max()
    return CheckResult(
        "vertex-sign-table",
        bool(err <= ctx.tol),
        f"sign pattern matches Bell projector {k} (residual {err:.3e})",
    )


def _check_edge_weight_consistency(ctx: VerifyContext) -> CheckResult:
    mixture = edge_mixture(ctx.cls)
    w = ctx.cls.weights
    err = 0.0
    for k in range(4):
        err = max(err, abs(w[k] - mixture.get(k, 0.0)))
    return CheckResult(
        "edge-weight-consistency",
        bool(err <= 1e-12),
        f"closed-form edge weights match within {err:.3e} ({ctx.cls.detail})",
    )


def _check_canonical_form_roundtrip(ctx: VerifyContext) -> CheckResult:
    rng = ctx.rng()
    u = tensor(random_unitary(rng), random_unitary(rng))
    scrambled = u @ ctx.rho @ u.conj().T
    cf = canonicalize(scrambled)
    mag_err = np.abs(np.sort(np.abs(cf.t)) - np.sort(np.abs(ctx.t))).max()
    ok = cf.residual <= 1e-9 and mag_err <= 1e-9
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
    pulled = pull_back(analytic_twins(ctx.cls), ctx.u1, ctx.u2)
    worst = max(contains_pair(oracle, p) for p in pulled.basis)
    mutual = subspace_residual(oracle, pulled)
    ok = worst <= 1e-9 and mutual <= 1e-9
    return CheckResult(
        "analytic-twins-in-oracle",
        bool(ok),
        f"membership residual {worst:.3e}, mutual span residual {mutual:.3e}",
    )


def _check_mixture_intersection_twins(ctx: VerifyContext) -> CheckResult:
    w = ctx.cls.weights
    support = [k for k in range(4) if w[k] > ctx.tol]
    components = [ctx.pull_back_state(bell_state(k)[1]) for k in support]
    via_mixture = ctx.space
    via_intersection = simultaneous_twins(components, ctx.tol)
    res = subspace_residual(via_mixture, via_intersection)
    ok = via_mixture.dimension == via_intersection.dimension and res <= 1e-9
    return CheckResult(
        "mixture-intersection-twins",
        bool(ok),
        f"support {support}, dimensions {via_mixture.dimension}/"
        f"{via_intersection.dimension}, span residual {res:.3e}",
    )


def _check_local_unitary_covariance(ctx: VerifyContext) -> CheckResult:
    rng = ctx.rng()
    v1 = random_unitary(rng)
    v2 = random_unitary(rng)
    moved_state = tensor(v1, v2) @ ctx.rho @ tensor(v1, v2).conj().T
    space = ctx.space
    moved_space = twin_space(moved_state, ctx.tol)
    if moved_space.dimension != space.dimension:
        return CheckResult(
            "local-unitary-covariance",
            False,
            f"dimension changed {space.dimension} -> {moved_space.dimension}",
        )
    worst_res = 0.0
    worst_member = 0.0
    for pair in space.basis:
        moved = ObservablePair(
            a1=v1 @ pair.a1 @ v1.conj().T, a2=v2 @ pair.a2 @ v2.conj().T
        )
        _, res = is_twin_pair(moved, moved_state, ctx.tol)
        worst_res = max(worst_res, res)
        worst_member = max(worst_member, contains_pair(moved_space, moved))
    ok = worst_res <= 1e-9 and worst_member <= 1e-9
    return CheckResult(
        "local-unitary-covariance",
        bool(ok),
        f"twin residual {worst_res:.3e}, membership residual {worst_member:.3e}",
    )


def _check_pure_state_commutant(ctx: VerifyContext) -> CheckResult:
    eigs = np.linalg.eigvalsh(ctx.rho)
    if eigs[:3].max() > 1e-9:
        return CheckResult(
            "pure-state-commutant", False, "input is not a rank-one projector"
        )
    w, v = np.linalg.eigh(ctx.rho)
    phi = v[:, -1]
    rho1 = partial_trace(ctx.rho, 1)
    rng = ctx.rng()
    space = ctx.space
    worst_member = 0.0
    for _ in range(5):
        a1 = random_hermitian(rng)
        comm = hs_norm(a1 @ rho1 - rho1 @ a1)
        if comm > 1e-9:
            return CheckResult(
                "pure-state-commutant",
                False,
                f"random observable fails to commute with I/2 ({comm:.3e})",
            )
        a2 = pure_twin_partner(a1, phi)
        worst_member = max(
            worst_member, contains_pair(space, ObservablePair(a1=a1, a2=a2))
        )
    worst_comm = 0.0
    for pair in space.basis:
        worst_comm = max(worst_comm, float(np.abs(pair.a1 @ rho1 - rho1 @ pair.a1).max()))
    ok = worst_member <= 1e-9 and worst_comm <= 1e-9
    return CheckResult(
        "pure-state-commutant",
        bool(ok),
        f"transport membership residual {worst_member:.3e}, "
        f"oracle commutator residual {worst_comm:.3e}",
    )


def _check_perfect_correlation(ctx: VerifyContext) -> CheckResult:
    counted = 0
    worst_mismatch = 0.0
    worst_gap = 0.0
    for pair in ctx.space.basis:
        report = distant_correlation(pair, ctx.rho)
        if report.degenerate:
            continue
        counted += 1
        worst_mismatch = max(worst_mismatch, report.mismatch_probability)
        worst_gap = max(worst_gap, report.expectation_gap)
    ok = worst_mismatch <= 1e-10 and worst_gap <= 1e-10
    return CheckResult(
        "perfect-correlation",
        bool(ok),
        f"{counted} nondegenerate pairs, worst mismatch {worst_mismatch:.3e}, "
        f"worst expectation gap {worst_gap:.3e}",
    )


def _check_twin_spectra_match(ctx: VerifyContext) -> CheckResult:
    worst = 0.0
    for pair in ctx.space.basis[1:]:
        s1 = np.sort(np.linalg.eigvalsh(pair.a1))
        s2 = np.sort(np.linalg.eigvalsh(pair.a2))
        worst = max(worst, float(np.abs(s1 - s2).max()))
    return CheckResult(
        "twin-spectra-match",
        bool(worst <= 1e-9),
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
    """Run every invariant check applicable to the input's stratum."""
    results = []
    for fn, strata in _CHECKS:
        if ctx.cls.kind in strata:
            results.append(fn(ctx))
    return results
