"""Twin observables on two-qubit states.

A pair of Hermitian observables (a1, a2) on opposite subsystems is a twin
pair for a state rho when (a1 x I) rho = (I x a2) rho, so measuring either
one distantly fixes the outcome of the other. The trivial pair (I, I)
always qualifies; everything of interest is the dimension and structure of
the full real solution space.

A twin space is held as rows R of real Pauli components (pair_parameters)
of an orthonormal basis of pairs, each row at squared norm 1/2, so 2 R^T R
projects onto the space; its pairs and dimension are read off the rows.

Two independent routes are kept side by side throughout:

  * a brute-force oracle: parametrize both observables over the Pauli
    basis with 8 real unknowns, write the twin condition as 32 real linear
    equations, and take the nullspace. Every system sends the trivial
    direction to 0 exactly, so it is solved on the 7-dimensional complement
    of (I, I), and the trivial pair is prepended;
  * closed-form constructions: Bell states share the pairs (sigma_i, s sigma_i)
    for each column i of the sign table mds.BELL_SIGNS where all their rows hold s.

Tests require the two routes to agree; neither is allowed to stand in for
the other.
The kernels read a state's Pauli coordinates R, converted once by each public
entry point; only ppt_separable's eigenvalue test reads rho itself.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEGENERACY_TOL,
    OBSERVABLE_HERMITIAN_TOL,
    PAULI2,
    PROBABILITY_TOL,
    RESIDUAL_TOL,
    ROUNDING_TOL,
    STATE_VALIDATION_TOL,
    _lapack,
    from_pauli,
    leading_phases,
    pauli_coordinates,
    real_nullspace,
    require_hermitian,
    tensor,
    to_pauli,
)
from .mds import (
    BELL_SIGNS,
    BELL_VERTEX,
    BINARY_EDGE,
    DEFAULT_TOL,
    InternalConsistencyError,
    MdsClass,
    _bell_index,
    _shared_signs,
    bell_state,
    edge_mixture,
    validate_density_matrix,
)


class ObservablePair(NamedTuple):
    """Hermitian observables on subsystems 1 and 2."""

    a1: np.ndarray
    a2: np.ndarray


class TwinSpace:
    """Real solution space of the twin condition, held as its Pauli rows.

    `rows` (dimension x 8) is the one stored form: row n is pair_parameters
    of basis[n], the pairs orthonormal in the combined inner product
    Re Tr(a1^dag b1) + Re Tr(a2^dag b2), so the rows are orthogonal with
    squared norm 1/2. dimension, has_nontrivial and basis are read off the
    rows. Every space the package builds holds the trivial pair as its first
    row (pull_back maps it to itself, to rounding), so has_nontrivial is
    simply dimension > 1. singular_value_gap carries the rank-decision
    diagnostic of the oracle's nullspace computation on the complement of the
    trivial pair, inf when no singular value is dropped (in the interior) and
    for analytic bases. ops is computed on first read and kept, read-only.
    """

    def __init__(self, rows: np.ndarray, singular_value_gap: float) -> None:
        self.rows = rows
        self.singular_value_gap = singular_value_gap

    @property
    def dimension(self) -> int:
        return self.rows.shape[0]

    @property
    def has_nontrivial(self) -> bool:
        return self.dimension > 1

    @cached_property
    def ops(self) -> np.ndarray:
        """The basis as one (dimension, 2, 2, 2) stack: ops[:, 0] is a1, ops[:, 1] is a2."""
        ops = from_pauli(self.rows.reshape(-1, 2, 4))
        ops.setflags(write=False)
        return ops

    @property
    def basis(self) -> tuple[ObservablePair, ...]:
        return tuple(ObservablePair(*ops) for ops in self.ops)


class CorrelationReport(NamedTuple):
    """Joint outcome statistics of a binary observable pair on a state."""

    joint_distribution: np.ndarray
    mismatch_probability: float
    expectation_gap: float
    degenerate: bool


def pair_parameters(pair: ObservablePair) -> np.ndarray:
    """Real Pauli components (a1 then a2): an 8-vector, or rows (n, 8) of (n, 2, 2) stacks."""
    return np.concatenate([to_pauli(pair.a1), to_pauli(pair.a2)], axis=-1)


def pull_back(space: TwinSpace, o1: np.ndarray, o2: np.ndarray) -> TwinSpace:
    """Carry a twin space of (u1 x u2) rho (u1 x u2)^dag back onto rho.

    o1, o2 are the frame's Pauli adjoints, pauli_adjoint(u1) and pauli_adjoint(u2),
    as the frame carries them. Each pair goes to (u1^dag a1 u1, u2^dag a2 u2): one
    adjoint matrix per row block.
    """
    blocks = space.rows.reshape(-1, 2, 4)
    rows = np.hstack([blocks[:, 0] @ o1, blocks[:, 1] @ o2])
    return TwinSpace(rows=rows, singular_value_gap=space.singular_value_gap)


def _off_span(x: np.ndarray, space: TwinSpace) -> np.ndarray:
    """Distance of each 8-vector in x (rows), normalized, from the span of a twin space."""
    # np.linalg.norm's own reduction on real rows, without its wrapper
    x = x / np.sqrt((x * x).sum(axis=-1, keepdims=True))
    off = x - 2 * (x @ space.rows.T) @ space.rows
    return np.sqrt((off * off).sum(axis=-1))


def subspace_residual(a: TwinSpace, b: TwinSpace) -> float:
    """Mutual projection residual between two twin spaces.

    Zero means equal subspaces of the 8-parameter solution space; the value
    is the largest distance of a unit basis vector of either space from the
    span of the other.
    """
    return float(max(_off_span(a.rows, b).max(), _off_span(b.rows, a).max()))


def span_distances(space: TwinSpace, rows: np.ndarray) -> np.ndarray:
    """Distance of each pair_parameters row (normalized) from the span of a twin space.

    rows is an (n, 8) stack; a zero row lies in every span and gives 0.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, 8)
    nonzero = rows.any(axis=1)
    out = np.zeros(rows.shape[0])
    out[nonzero] = _off_span(rows[nonzero], space)
    return out


def contains_pair(space: TwinSpace, pair: ObservablePair) -> float:
    """Distance of a pair (normalized) from the span of a twin space."""
    return float(span_distances(space, pair_parameters(pair))[0])


def twin_residuals(a1: np.ndarray, a2: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norms of (a1 x I) rho - (I x a2) rho over stacks (n, 2, 2) of a1, a2.

    rho is validated (validate_density_matrix) and each stack guarded for Hermiticity once.
    """
    return _twin_residuals(*_guarded_rows("is_twin_pair", a1, a2, rho))


def _guarded_rows(
    name: str, a1: np.ndarray, a2: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair rows (n, 8) of a1, a2 and rho's R, after rho's gate and the guards `{name}: a1/a2`."""
    R = pauli_coordinates(validate_density_matrix(rho))
    a1 = require_hermitian(a1, f"{name}: a1", OBSERVABLE_HERMITIAN_TOL)
    a2 = require_hermitian(a2, f"{name}: a2", OBSERVABLE_HERMITIAN_TOL)
    return pair_parameters(ObservablePair(a1, a2)), R


def _twin_residuals(rows: np.ndarray, R: np.ndarray) -> np.ndarray:
    """twin_residuals of pair rows (n, 8): the column norms of twin_condition_matrix(R) @ rows^T."""
    images = twin_condition_matrix(R) @ rows.T
    return np.sqrt((images * images).sum(axis=0))


def is_twin_pair(
    pair: ObservablePair, rho: np.ndarray, tol: float = RESIDUAL_TOL
) -> tuple[bool, float]:
    """Test the twin condition; returns (verdict, residual).

    The residual is the Hilbert-Schmidt norm of (a1 x I) rho - (I x a2) rho.
    """
    residual = float(twin_residuals(np.asarray(pair.a1)[None], np.asarray(pair.a2)[None], rho)[0])
    return residual <= tol, residual


def _twin_condition_map() -> np.ndarray:
    """Real (256, 16) map from the Pauli coordinates R of rho to twin_condition_matrix(R).

    Column k of the system is the flattened real, then imaginary, part of s_k rho,
    s_k = sigma_k x I for k < 4 and -(I x sigma_(k-4)) after. Every entry is -1, 0 or 1.
    """
    s = np.concatenate([PAULI2[:, 0], -PAULI2[0, :]])
    # g[a, b, k, i, j]: the coefficient of R_ij in (s_k rho)[a, b]
    g = np.einsum("kac,ijcb->abkij", s, PAULI2)
    return np.stack([g.real, g.imag]).reshape(256, 16)


_TWIN_CONDITION_MAP = _twin_condition_map()
_TWIN_CONDITION_MAP.setflags(write=False)


def twin_condition_matrix(R: np.ndarray) -> np.ndarray:
    """Real 32x8 system of the state with Pauli coordinates R; its nullspace is the twin space.

    Column k < 4 holds (sigma_k x I) rho and column 4 + k holds
    -(I x sigma_k) rho, real parts of the 16 entries above imaginary parts.
    A stack (n, 4, 4) gives its n systems stacked, (32 n, 8).
    """
    # one matrix-vector product per member
    return (_TWIN_CONDITION_MAP @ np.reshape(R, (-1, 16, 1))).reshape(-1, 8)


# the trivial pair (I/2, I/2), exactly the closed forms' first row
_TRIVIAL_ROW = np.array([0.5, 0, 0, 0, 0.5, 0, 0, 0])
_TRIVIAL_ROW.setflags(write=False)
# orthonormal columns spanning the complement of the trivial direction:
# (x_0 - x_4) / sqrt(2), then x_1, x_2, x_3, x_5, x_6, x_7
_SQRT2 = np.sqrt(2)
_COMPLEMENT = np.eye(8)[:, [0, 1, 2, 3, 5, 6, 7]]
_COMPLEMENT[[0, 4], 0] = 1 / _SQRT2, -1 / _SQRT2
_COMPLEMENT.setflags(write=False)


def twin_space(rho: np.ndarray, tol: float = DEFAULT_TOL) -> TwinSpace:
    """Brute-force solution space of the twin condition for one state."""
    return _twin_space(pauli_coordinates(validate_density_matrix(rho)), tol)


def _twin_space(R: np.ndarray, tol: float) -> TwinSpace:
    """twin_space on the Pauli coordinates R of a density matrix that passed the gate."""
    return _simultaneous_twins(R[None], tol)


def simultaneous_twins(
    states: list[np.ndarray] | np.ndarray, tol: float = DEFAULT_TOL
) -> TwinSpace:
    """Pairs that are twins for every listed state, via one stacked nullspace.

    states is a list of density matrices or an (n, 4, 4) stack; either is
    validated and converted as one stack, mapped to its n twin systems in one
    product, and solved with one SVD of the stacked (32 n) x 7 system on the
    complement of the trivial pair.
    """
    if len(states) == 0:
        raise ValueError("simultaneous_twins needs at least one state")
    return _simultaneous_twins(pauli_coordinates(validate_density_matrix(states)), tol)


def _simultaneous_twins(R: np.ndarray, tol: float) -> TwinSpace:
    """simultaneous_twins on a stack (n, 4, 4) of Pauli coordinates of validated states.

    Columns 0 and 4 of every twin system are exact negatives (s_4 = -s_0), so the
    system sends the trivial direction to 0 exactly: the trivial pair is the first
    row by construction, and the nullspace of the system on _COMPLEMENT, lifted
    back, gives the rows after it.
    """
    ns = real_nullspace(twin_condition_matrix(R) @ _COMPLEMENT, tol)
    if not len(ns.basis):  # full column rank: the trivial pair alone, nothing to lift
        return TwinSpace(rows=_TRIVIAL_ROW[None].copy(), singular_value_gap=ns.gap)
    rest = ns.basis @ _COMPLEMENT.T
    # sign convention: first significant entry of each row positive; scaled so each
    # pair has unit combined Hilbert-Schmidt norm
    rest = rest * leading_phases(rest.T)[:, None] / _SQRT2
    return TwinSpace(rows=np.concatenate([_TRIVIAL_ROW[None], rest]), singular_value_gap=ns.gap)


def _sign_twins(support: list[int]) -> TwinSpace:
    """Closed-form twin space shared by the Bell projectors in support.

    One pair (sigma_i, s sigma_i)/2 per column i of BELL_SIGNS on which all
    supported rows hold the sign s; column 0 gives the trivial pair, first.
    """
    shared = _shared_signs(support)
    rows = np.zeros((len(shared), 8))
    for n, (i, sign) in enumerate(shared):
        rows[n, i] = 0.5
        rows[n, 4 + i] = sign / 2
    return TwinSpace(rows=rows, singular_value_gap=float("inf"))


def analytic_edge_twins(cls: MdsClass) -> TwinSpace:
    """Closed-form twin space of a binary Bell mixture (the two states of edge_mixture).

    Spanned by the trivial pair and (sigma_i, +sigma_i) on a case-A edge or
    (sigma_i, -sigma_i) on a case-B edge, where i is the edge axis.
    """
    if cls.kind != BINARY_EDGE:
        raise ValueError(f"analytic_edge_twins expects a binary edge, got {cls.kind}")
    return _sign_twins(list(edge_mixture(cls)))


def bell_twin_partner(k: int, a1: np.ndarray) -> np.ndarray:
    """Second-subsystem twin of a1 on the k-th Bell projector (row k of BELL_SIGNS)."""
    k = _bell_index(k)
    a1 = require_hermitian(a1, "bell_twin_partner: a1", OBSERVABLE_HERMITIAN_TOL)
    return from_pauli(BELL_SIGNS[k] * to_pauli(a1))


def analytic_vertex_twins(k: int) -> TwinSpace:
    """Closed-form four-dimensional twin space of a Bell projector (row k of BELL_SIGNS)."""
    return _sign_twins([_bell_index(k)])


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
    return _ppt_separable(validate_density_matrix(rho), tol)


def _ppt_separable(rho: np.ndarray, tol: float) -> tuple[bool, float]:
    """ppt_separable on a density matrix that validate_density_matrix returned."""
    # the partial transpose of the exactly Hermitian rho is exactly Hermitian: no second guard
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    min_eig = float(_lapack("eigvalsh_lo", pt)[0])
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


def _pauli_radius(c: np.ndarray) -> np.ndarray:
    """|c| of the operators c0 I + c.sigma over a stack (..., 4) of Pauli components."""
    v = c[..., 1:]
    return np.sqrt(np.einsum("...k,...k->...", v, v))


_OUTCOME_SIGNS = np.array([1.0, -1.0])
_OUTCOME_SIGNS.setflags(write=False)


def _pauli_spectra(c: np.ndarray) -> np.ndarray:
    """Descending spectra (c0 + |c|, c0 - |c|) of c0 I + c.sigma over a stack (..., 4)."""
    return c[..., :1] + _pauli_radius(c)[..., None] * _OUTCOME_SIGNS


def _pauli_tables(rows: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """correlation_tables of pair_parameters rows (n, 8) on a state with Pauli coordinates R.

    For a = c0 I + c.sigma, c != 0, the outcomes are c0 +- |c| (_pauli_spectra) with
    eigenprojectors (I +- chat.sigma)/2, and Tr[(sigma_k x sigma_l) rho] = 4 R_kl, so
    table entry (a, b) is (1, s_a chat_1)^T R (1, s_b chat_2) with s = (+1, -1): the
    supervector rho read against the two projectors. With Tr_2 rho = 2 R[:, 0].sigma and
    Tr_1 rho = 2 R[0, :].sigma, the gap is 4 |c_1.R[:, 0] - c_2.R[0, :]|. A side with
    2|c| <= DEGENERACY_TOL, its eigenvalue gap, is degenerate. Tables are bounded as
    correlation_tables says.
    """
    halves = rows.reshape(-1, 2, 4)
    c = halves[..., 1:]
    radius = _pauli_radius(halves)
    degenerate = 2 * radius.min(axis=1) <= DEGENERACY_TOL
    # a degenerate side gets the trivial table, so its divisor need only be nonzero
    unit = c / np.maximum(radius, DEGENERACY_TOL / 2)[..., None]
    # (1, s_a chat) for the outcome signs s_a, on each side
    ends = np.ones((halves.shape[0], 2, 2, 4))
    ends[..., 1:] = unit[:, :, None] * _OUTCOME_SIGNS[:, None]
    dist = np.einsum("nak,kl,nbl->nab", ends[:, 0], R, ends[:, 1])
    dist[degenerate] = ((1.0, 0.0), (0.0, 0.0))
    gap = 4 * np.abs(halves[:, 0] @ R[:, 0] - halves[:, 1] @ R[0, :])
    # python comparisons beat numpy reductions on four entries per table
    for table in dist.reshape(-1, 4).tolist():
        low, total = min(table), sum(table)
        if low < -(STATE_VALIDATION_TOL + ROUNDING_TOL) or (
            abs(total - 1) > STATE_VALIDATION_TOL + PROBABILITY_TOL
        ):
            raise InternalConsistencyError(
                f"joint distribution is not a probability table (min {low:.3e}, sum {total:.12g})"
            )
    return dist, gap, degenerate


def correlation_tables(
    a1: np.ndarray, a2: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint outcome tables (n, 2, 2), expectation gaps (n,) and degeneracy flags (n,).

    a1 and a2 are stacks (n, 2, 2); rho is validated (validate_density_matrix)
    and each side guarded for Hermiticity once. The tables come in closed form
    from the sides' Pauli components and rho's Pauli coordinates (_pauli_tables).
    Outcomes are matched by descending eigenvalue: table entry (a, b) is
    Tr[(P_a x Q_b) rho] for the eigenprojectors P_a of a1 and Q_b of a2. The
    gap is |Tr(a1 rho_1) - Tr(a2 rho_2)| on the reduced states. A pair with
    a degenerate observable admits no outcome pairing; it is flagged and
    gets the trivial table (all weight on (0, 0)). An entry is at least the
    least eigenvalue of rho and the sum is Tr rho, so an entry below
    -(STATE_VALIDATION_TOL + ROUNDING_TOL), or a sum off 1 by more than
    STATE_VALIDATION_TOL + PROBABILITY_TOL, is an InternalConsistencyError.
    """
    return _pauli_tables(*_guarded_rows("correlation_tables", a1, a2, rho))


def distant_correlation(pair: ObservablePair, rho: np.ndarray) -> CorrelationReport:
    """Joint outcome statistics of a1 on side 1 and a2 on side 2 (see correlation_tables).

    mismatch_probability is the total weight off the matched pairing.
    """
    a1, a2 = np.asarray(pair.a1)[None], np.asarray(pair.a2)[None]
    return _correlation_report(*correlation_tables(a1, a2, rho))


def _correlation_report(
    dist: np.ndarray, gap: np.ndarray, degenerate: np.ndarray
) -> CorrelationReport:
    """The CorrelationReport of the one pair in correlation_tables' output."""
    table = dist[0]
    return CorrelationReport(
        joint_distribution=table,
        mismatch_probability=float(table[0, 1] + table[1, 0]),
        expectation_gap=float(gap[0]),
        degenerate=bool(degenerate[0]),
    )
