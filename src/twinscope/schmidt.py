"""Schmidt canonical machinery: one expansion at two levels.

_expand is the expansion: the phased linalg.svd of a coefficient matrix,
the rank_split cut at tol * (largest coefficient), truncation of both
factors and the degeneracy profile. A two-qubit state vector hands it its
2x2 coefficient matrix. The antiunitary correlation operator pairing the
left and right bases is the unitary polar factor of the transposed
coefficient matrix (composed with complex conjugation in the computational
basis); for full-rank vectors it is unique even when the coefficients are
degenerate.

A Hermitian 4x4 operator, a supervector in the Hilbert-Schmidt space over
the orthonormal product basis {sigma_i/sqrt(2) x sigma_j/sqrt(2)}, hands it
the real 2R/||rho||_HS, R = linalg.pauli_coordinates(rho): operator_schmidt
converts once and its kernel reads R alone. An OperatorSchmidt stores its
bases as real rows and lifts their 2x2 operators when read. At a pure
state the levels meet: the operator coefficients of |phi><phi| are the
products c_i c_j of phi's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    OBSERVABLE_HERMITIAN_TOL,
    RESIDUAL_TOL,
    from_pauli,
    pauli_coordinates,
    rank_split,
    require_hermitian,
    svd,
)
from .mds import _admitted, _require_unit_norm


def _degeneracy_profile(coefficients: np.ndarray, tol: float) -> tuple[int, ...]:
    """Multiplicities of coefficient groups that tie within tol."""
    groups: list[int] = []
    last = np.inf
    tol = float(tol)
    for c in coefficients.tolist():
        if groups and abs(c - last) <= tol:
            groups[-1] += 1
        else:
            groups.append(1)
        last = c
    return tuple(groups)


def _expand(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, int, tuple[int, ...]]:
    """Schmidt expansion of a coefficient matrix: (coefficients, rows, rank, degeneracy).

    rows[0] and rows[1] are the columns of u and rows of vh kept with the coefficients.
    """
    u, s, vh = svd(m)
    cut = tol * s[0]
    rank, _ = rank_split(s.tolist(), cut)
    coefficients = s[:rank].copy()
    rows = np.array((u[:, :rank].T, vh[:rank]))
    return coefficients, rows, rank, _degeneracy_profile(coefficients, cut)


class PureSchmidt(NamedTuple):
    """Biorthogonal expansion of a two-qubit state vector.

    coefficients are positive and descending; the state is the sum of
    coefficient[i] * left_vectors[i] x right_vectors[i]. Individual vectors
    inside a degenerate coefficient group are basis choices, not canonical;
    `degeneracy` records the group multiplicities.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray  # shape (rank, 2)
    right_vectors: np.ndarray  # shape (rank, 2)
    schmidt_rank: int
    degeneracy: tuple[int, ...]


class AntiunitaryMap(NamedTuple):
    """Antiunitary map encoded as conjugation followed by `unitary_part`.

    For a rank-deficient source the map is only defined on the range and
    `unitary_part` is a partial isometry (rank < 2 flags this).
    """

    unitary_part: np.ndarray
    rank: int

    @property
    def partial(self) -> bool:
        return self.rank < 2

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the antiunitary map to a 2-vector."""
        return self.unitary_part @ np.conj(np.asarray(vec, dtype=complex))

    def conjugate(self, op: np.ndarray) -> np.ndarray:
        """Transport an operator, or a stack (..., 2, 2) of them, through the map: U A U^{-1}.

        For a partial map the result is additionally compressed onto the
        target range on both sides.
        """
        w = self.unitary_part
        return w @ np.conj(np.asarray(op, dtype=complex)) @ w.conj().T


class OperatorSchmidt(NamedTuple):
    """Schmidt data of a Hermitian operator viewed as a unit supervector.

    `rows` (2, rank, 4) is the one stored form of the bases: rows[0, i] and
    rows[1, i] are the coordinates of the i-th left and right Schmidt
    operator in the orthonormal basis sigma_k/sqrt(2). left_ops and
    right_ops, the (rank, 2, 2) stacks from_pauli(rows[k]) / sqrt(2), are
    lifted when read.
    """

    coefficients: np.ndarray
    rows: np.ndarray
    schmidt_rank: int
    degeneracy: tuple[int, ...]

    @property
    def left_ops(self) -> np.ndarray:
        return from_pauli(self.rows[0]) / np.sqrt(2)

    @property
    def right_ops(self) -> np.ndarray:
        return from_pauli(self.rows[1]) / np.sqrt(2)


def pure_schmidt(phi: np.ndarray, tol: float = DEFAULT_TOL) -> PureSchmidt:
    """Schmidt expansion of a normalized 4-vector.

    |phi|^2, the projector's trace, must be 1 within STATE_VALIDATION_TOL.
    Coefficients are the singular values of the 2x2 coefficient matrix;
    their squares equal the common spectrum of both reduced operators.
    The Schmidt rank is decided by rank_split at tol * (largest coefficient).
    Each left vector is phase-normalized (first significant entry real
    positive) with the compensating phase pushed into its right partner.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if phi.shape != (4,):
        raise ValueError(f"pure_schmidt expects a 4-vector, got shape {phi.shape}")
    _require_unit_norm(phi, "pure_schmidt expects a normalized vector, |phi|^2 = {:.12g}")
    coefficients, rows, rank, degeneracy = _expand(phi.reshape(2, 2), tol)
    return PureSchmidt(coefficients, rows[0], rows[1], rank, degeneracy)


def correlation_operator(ps: PureSchmidt) -> AntiunitaryMap:
    """Antiunitary correlation operator sending each left vector to its partner.

    Built as sum_i |right_i><conj(left_i)|, i.e. the unitary polar factor of
    the transposed coefficient matrix when the rank is full. A rank-1 input
    yields a partial isometry, flagged through the `rank` field.
    """
    return AntiunitaryMap(unitary_part=ps.right_vectors.T @ ps.left_vectors, rank=ps.schmidt_rank)


def pure_twin_partners(a1: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Second-subsystem twins of a stack (n, 2, 2) of a1 on the pure state phi.

    phi must pass pure_schmidt's checks, and then [a1, rho_1] = 0 must hold
    within RESIDUAL_TOL for every a1; the component acting in the null space
    of rho_2 (arbitrary for the twin property) is fixed to zero, so each
    result is the transport of a1 through the correlation operator,
    compressed onto the range of rho_2. phi is decomposed once for the whole
    stack, and the stack is guarded for Hermiticity once.
    """
    a1 = require_hermitian(a1, "pure_twin_partner: a1", OBSERVABLE_HERMITIAN_TOL)
    ps = pure_schmidt(phi)
    # rho_1 = m m^dag for the coefficient matrix m, summed over j as the partial trace sums
    m = np.asarray(phi, dtype=complex).reshape(2, 2)
    rho1 = (m[:, None] * m.conj()).sum(-1)
    comm = a1 @ rho1 - rho1 @ a1
    comm_norm = np.linalg.norm(comm.reshape(comm.shape[0], -1), axis=1)
    if (comm_norm > RESIDUAL_TOL).any():
        raise ValueError(
            f"pure_twin_partner: a1 does not commute with the reduced state "
            f"(commutator norm {comm_norm.max():.3e} > {RESIDUAL_TOL:g})"
        )
    return correlation_operator(ps).conjugate(a1)


def _pure_twin_partners(a1: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The transport of pure_twin_partners alone, for a stack Hermitian as built and tested."""
    return correlation_operator(pure_schmidt(phi)).conjugate(a1)


def pure_twin_partner(a1: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Second-subsystem twin of a1 on the pure state phi (see pure_twin_partners)."""
    return pure_twin_partners(np.asarray(a1)[None], phi)[0]


def operator_schmidt(rho: np.ndarray, tol: float = DEFAULT_TOL) -> OperatorSchmidt:
    """Operator Schmidt expansion of a Hermitian 4x4 operator.

    The operator is normalized to a unit supervector; coefficients are the
    singular values of its real coefficient matrix 2R/||rho||_HS in the normalized
    Pauli product basis. Coefficients that rank_split finds vanishing at tol *
    (largest coefficient) are truncated (reduced Schmidt rank) rather than
    padded with an arbitrary basis completion. The input is guarded for
    Hermiticity unless its bytes are the admission record, T(t) for the last
    t mds.is_state admitted.
    """
    if np.shape(rho) != (4, 4):
        raise ValueError(f"operator_schmidt expects a 4x4 matrix, got {np.shape(rho)}")
    rho = np.asarray(rho, dtype=complex)
    # T(t) of an admitted t is Hermitian as built: the guard would pass
    if not _admitted(rho.tobytes()):
        require_hermitian(rho, "operator_schmidt: input")
    return _operator_schmidt(pauli_coordinates(rho), tol)


def _operator_schmidt(R: np.ndarray, tol: float) -> OperatorSchmidt:
    """operator_schmidt on the Pauli coordinates R of a Hermitian rho: ||rho||_HS = 2||R||_F."""
    flat = R.ravel()
    # np.linalg.norm's own 2-norm of a real vector, without its wrapper
    norm = 2 * float(np.sqrt(flat.dot(flat)))
    if norm == 0.0:
        raise ValueError("operator_schmidt: zero input")
    return OperatorSchmidt(*_expand(2 * R / norm, tol))
