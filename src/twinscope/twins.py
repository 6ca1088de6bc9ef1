"""Twin observables on two-qubit states.

A pair of Hermitian observables (a1, a2) on opposite subsystems is a twin
pair for a state rho when (a1 x I) rho = (I x a2) rho, so measuring either
one distantly fixes the outcome of the other. The trivial pair (I, I)
always qualifies; everything of interest is the dimension and structure of
the full real solution space.

Two independent routes are kept side by side throughout:

  * a brute-force oracle: parametrize both observables over the Pauli
    basis with 8 real unknowns, write the twin condition as 32 real linear
    equations, and take the nullspace;
  * closed-form constructions: the sign-table partner at a Bell vertex and
    the single-axis pairs (sigma_i, +/- sigma_i) on binary-mixture edges.

Tests require the two routes to agree; neither is allowed to stand in for
the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI2,
    NullspaceResult,
    eigh,
    from_pauli,
    hermitian_check,
    hs_norm,
    pauli,
    real_nullspace,
    tensor,
    to_pauli,
)
from .mds import (
    BELL_VERTEX,
    BINARY_EDGE,
    DEFAULT_TOL,
    InternalConsistencyError,
    MdsClass,
    bell_state,
    validate_density_matrix,
)

# Sign patterns applied to the Pauli components (beta_1, beta_2, beta_3) of a
# first-subsystem observable to obtain its twin on each Bell projector:
# the singlet flips all three, each other Bell state flips its own index.
BELL_TWIN_SIGNS = {
    0: (-1, -1, -1),
    1: (-1, 1, 1),
    2: (1, -1, 1),
    3: (1, 1, -1),
}


@dataclass(frozen=True)
class ObservablePair:
    """Hermitian observables on subsystems 1 and 2."""

    a1: np.ndarray
    a2: np.ndarray


@dataclass(frozen=True)
class TwinSpace:
    """Orthonormal basis of the real solution space of the twin condition.

    Orthonormality is in the combined inner product
    Re Tr(a1^dag b1) + Re Tr(a2^dag b2); when the trivial pair is present
    it is pinned as the first basis element, so has_nontrivial is simply
    dimension > 1. singular_value_gap carries the rank-decision diagnostic
    of the underlying nullspace computation (inf for analytic bases).
    """

    basis: tuple[ObservablePair, ...]
    dimension: int
    has_nontrivial: bool
    singular_value_gap: float


@dataclass(frozen=True)
class CorrelationReport:
    """Joint outcome statistics of a binary observable pair on a state."""

    joint_distribution: np.ndarray
    mismatch_probability: float
    expectation_gap: float
    degenerate: bool


def pair_parameters(pair: ObservablePair) -> np.ndarray:
    """Real 8-vector of Pauli components (a1 then a2)."""
    return np.concatenate([to_pauli(pair.a1), to_pauli(pair.a2)])


def pair_from_parameters(x: np.ndarray) -> ObservablePair:
    """Inverse of pair_parameters."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return ObservablePair(a1=from_pauli(x[:4]), a2=from_pauli(x[4:]))


def pull_back(space: TwinSpace, u1: np.ndarray, u2: np.ndarray) -> TwinSpace:
    """Carry a twin space of (u1 x u2) rho (u1 x u2)^dag back onto rho."""
    return TwinSpace(
        basis=tuple(
            ObservablePair(a1=u1.conj().T @ p.a1 @ u1, a2=u2.conj().T @ p.a2 @ u2)
            for p in space.basis
        ),
        dimension=space.dimension,
        has_nontrivial=space.has_nontrivial,
        singular_value_gap=space.singular_value_gap,
    )


def _space_parameters(space: TwinSpace) -> np.ndarray:
    """Basis as unit rows in the real 8-parameter space."""
    rows = np.array([pair_parameters(p) for p in space.basis])
    norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def subspace_residual(a: TwinSpace, b: TwinSpace) -> float:
    """Mutual projection residual between two twin spaces.

    Zero means equal subspaces of the 8-parameter solution space; the value
    is the largest distance of a unit basis vector of either space from the
    span of the other.
    """
    ra = _space_parameters(a)
    rb = _space_parameters(b)
    qa, _ = np.linalg.qr(ra.T)
    qb, _ = np.linalg.qr(rb.T)
    res_ab = np.linalg.norm(ra.T - qb @ (qb.T @ ra.T), axis=0).max()
    res_ba = np.linalg.norm(rb.T - qa @ (qa.T @ rb.T), axis=0).max()
    return float(max(res_ab, res_ba))


def contains_pair(space: TwinSpace, pair: ObservablePair) -> float:
    """Distance of a pair (normalized) from the span of a twin space."""
    x = pair_parameters(pair)
    n = np.linalg.norm(x)
    if n == 0:
        return 0.0
    x = x / n
    rows = _space_parameters(space)
    q, _ = np.linalg.qr(rows.T)
    return float(np.linalg.norm(x - q @ (q.T @ x)))


def is_twin_pair(
    pair: ObservablePair, rho: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Test the twin condition; returns (verdict, residual).

    The residual is the Hilbert-Schmidt norm of (a1 x I) rho - (I x a2) rho.
    """
    rho = validate_density_matrix(rho)
    for name, a in (("a1", pair.a1), ("a2", pair.a2)):
        chk = hermitian_check(np.asarray(a, dtype=complex), 1e-10)
        if not chk.passes:
            raise ValueError(
                f"is_twin_pair: {name} is not Hermitian "
                f"(max deviation {chk.max_deviation:.3e})"
            )
    residual = hs_norm(tensor(pair.a1, np.eye(2)) @ rho - tensor(np.eye(2), pair.a2) @ rho)
    return residual <= tol, float(residual)


def twin_condition_matrix(rho: np.ndarray) -> np.ndarray:
    """Real 32x8 system whose nullspace is the twin solution space."""
    rho = np.asarray(rho, dtype=complex)
    # column k < 4 is (sigma_k x I) rho, column 4 + k is -(I x sigma_k) rho
    g = np.concatenate([PAULI2[:, 0] @ rho, -(PAULI2[0, :] @ rho)]).reshape(8, 16)
    return np.concatenate([g.real, g.imag], axis=1).T


_TRIVIAL_DIRECTION = np.zeros(8)
_TRIVIAL_DIRECTION[0] = _TRIVIAL_DIRECTION[4] = 1 / np.sqrt(2)
_TRIVIAL_DIRECTION.setflags(write=False)
_SVD_ERROR = 32 * 8 * np.finfo(float).eps  # SVD backward error over s_max, m * n * eps


def _space_from_nullspace(ns: NullspaceResult) -> TwinSpace:
    """Orthonormal twin space from a nullspace, trivial pair pinned first.

    The computed nullspace may tilt from the exact one, which holds the
    trivial pair, by the SVD backward error over the smallest kept singular
    value (Wedin, BIT 12, 99 (1972)); only a larger miss is a fault.
    """
    basis = ns.basis
    dim = basis.shape[0]
    if dim == 0:
        raise InternalConsistencyError("twin system has an empty nullspace")
    e = _TRIVIAL_DIRECTION
    proj = basis.T @ (basis @ e)
    s = ns.singular_values
    if np.linalg.norm(proj - e) > _SVD_ERROR * s[0] / s[ns.rank - 1]:
        raise InternalConsistencyError(
            "the trivial pair (I, I) is missing from the computed twin space"
        )
    rest = basis - np.outer(basis @ e, e)
    rows = [e]
    if dim > 1:
        _, s, vt = np.linalg.svd(rest)
        for k in range(dim - 1):
            row = vt[k]
            idx = np.flatnonzero(np.abs(row) > 1e-12)
            if idx.size and row[idx[0]] < 0:
                row = -row
            rows.append(row)
    # scale so each pair has unit combined Hilbert-Schmidt norm
    pairs = tuple(pair_from_parameters(r / np.sqrt(2)) for r in rows)
    return TwinSpace(
        basis=pairs,
        dimension=dim,
        has_nontrivial=dim > 1,
        singular_value_gap=ns.gap,
    )


def twin_space(rho: np.ndarray, tol: float = DEFAULT_TOL) -> TwinSpace:
    """Brute-force solution space of the twin condition for one state."""
    rho = validate_density_matrix(rho)
    return _space_from_nullspace(real_nullspace(twin_condition_matrix(rho), tol))


def simultaneous_twins(states: list[np.ndarray], tol: float = DEFAULT_TOL) -> TwinSpace:
    """Pairs that are twins for every listed state, via one stacked nullspace."""
    if not states:
        raise ValueError("simultaneous_twins needs at least one state")
    blocks = [twin_condition_matrix(validate_density_matrix(rho)) for rho in states]
    return _space_from_nullspace(real_nullspace(np.vstack(blocks), tol))


def analytic_edge_twins(cls: MdsClass) -> TwinSpace:
    """Closed-form twin space of a binary Bell mixture.

    Spanned by the trivial pair and (sigma_i, +sigma_i) on a case-A edge or
    (sigma_i, -sigma_i) on a case-B edge, where i is the edge axis.
    """
    if cls.kind != BINARY_EDGE:
        raise ValueError(f"analytic_edge_twins expects a binary edge, got {cls.kind}")
    sign = 1.0 if cls.case == "A" else -1.0
    s = pauli(cls.axis)
    basis = (
        ObservablePair(a1=pauli(0) / 2, a2=pauli(0) / 2),
        ObservablePair(a1=s / 2, a2=sign * s / 2),
    )
    return TwinSpace(
        basis=basis, dimension=2, has_nontrivial=True, singular_value_gap=float("inf")
    )


def bell_twin_partner(k: int, a1: np.ndarray) -> np.ndarray:
    """Second-subsystem twin of a1 on the k-th Bell projector (sign table)."""
    if k not in BELL_TWIN_SIGNS:
        raise ValueError(f"Bell index must be in 0..3, got {k}")
    a1 = np.asarray(a1, dtype=complex)
    chk = hermitian_check(a1, 1e-10)
    if not chk.passes:
        raise ValueError(
            f"bell_twin_partner: a1 is not Hermitian (max deviation {chk.max_deviation:.3e})"
        )
    return from_pauli(np.array((1, *BELL_TWIN_SIGNS[k])) * to_pauli(a1))


def analytic_vertex_twins(k: int) -> TwinSpace:
    """Closed-form four-dimensional twin space of a Bell projector."""
    basis = [ObservablePair(a1=pauli(0) / 2, a2=pauli(0) / 2)]
    for i in (1, 2, 3):
        basis.append(
            ObservablePair(a1=pauli(i) / 2, a2=bell_twin_partner(k, pauli(i)) / 2)
        )
    return TwinSpace(
        basis=tuple(basis), dimension=4, has_nontrivial=True, singular_value_gap=float("inf")
    )


def analytic_twins(cls: MdsClass) -> TwinSpace | None:
    """Closed-form twin space of a classified state; None off the vertex and edge strata."""
    if cls.kind == BELL_VERTEX:
        return analytic_vertex_twins(cls.vertex)
    if cls.kind == BINARY_EDGE:
        return analytic_edge_twins(cls)
    return None


def ppt_separable(rho: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-partial-transpose test, decisive for two qubits.

    Returns (separable, minimum eigenvalue of the partial transpose over
    subsystem 2).
    """
    rho = validate_density_matrix(rho)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs, _ = eigh(pt)
    min_eig = float(eigs[-1])
    return min_eig >= -tol, min_eig


def biorthogonal_separable_forms() -> list[dict]:
    """The two equal-weight binary Bell mixtures with explicit product forms.

    Each entry carries the state built as a product mixture, the same state
    built as a Bell mixture, its t-vector, and a description. The two
    constructions agree entrywise to 1e-12 by design.
    """
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    p_up = np.outer(up, up.conj())
    p_down = np.outer(down, down.conj())

    _, t1 = bell_state(1)
    _, t2 = bell_state(2)
    _, t3 = bell_state(3)
    _, t0 = bell_state(0)

    first_product = (tensor(p_up, p_up) + tensor(p_down, p_down)) / 2
    first_bell = (t1 + t2) / 2
    second_product = (tensor(p_up, p_down) + tensor(p_down, p_up)) / 2
    second_bell = (t0 + t3) / 2
    return [
        {
            "product_form": first_product,
            "bell_form": first_bell,
            "t": np.array([0.0, 0.0, 1.0]),
            "description": "equal mixture of up-up and down-down products; "
            "equal mixture of the two non-singlet phi-type Bell projectors",
        },
        {
            "product_form": second_product,
            "bell_form": second_bell,
            "t": np.array([0.0, 0.0, -1.0]),
            "description": "equal mixture of up-down and down-up products; "
            "equal mixture of the singlet and the psi-plus projector",
        },
    ]


def distant_correlation(pair: ObservablePair, rho: np.ndarray) -> CorrelationReport:
    """Joint outcome distribution of a1 on side 1 and a2 on side 2.

    Outcomes are matched by sorted eigenvalue; mismatch_probability is the
    total weight off the matched pairing. Degenerate observables admit no
    outcome pairing and yield a flagged trivial report.
    """
    rho = validate_density_matrix(rho)
    w1, v1 = eigh(np.asarray(pair.a1, dtype=complex), 1e-10)
    w2, v2 = eigh(np.asarray(pair.a2, dtype=complex), 1e-10)
    exp1 = np.trace(tensor(pair.a1, np.eye(2)) @ rho).real
    exp2 = np.trace(tensor(np.eye(2), pair.a2) @ rho).real
    gap = abs(exp1 - exp2)
    if abs(w1[0] - w1[1]) <= 1e-9 or abs(w2[0] - w2[1]) <= 1e-9:
        dist = np.zeros((2, 2))
        dist[0, 0] = 1.0
        return CorrelationReport(
            joint_distribution=dist,
            mismatch_probability=0.0,
            expectation_gap=float(gap),
            degenerate=True,
        )
    dist = np.empty((2, 2))
    for a in range(2):
        pa = np.outer(v1[:, a], v1[:, a].conj())
        for b in range(2):
            qb = np.outer(v2[:, b], v2[:, b].conj())
            dist[a, b] = np.trace(tensor(pa, qb) @ rho).real
    total = dist.sum()
    if dist.min() < -1e-12 or abs(total - 1) > 1e-10:
        raise InternalConsistencyError(
            f"joint distribution is not a probability table "
            f"(min {dist.min():.3e}, sum {total:.12g})"
        )
    mismatch = float(dist[0, 1] + dist[1, 0])
    return CorrelationReport(
        joint_distribution=dist,
        mismatch_probability=mismatch,
        expectation_gap=float(gap),
        degenerate=False,
    )
