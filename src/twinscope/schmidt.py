"""Schmidt canonical machinery at two levels.

Ordinary level: a two-qubit state vector is a 2x2 coefficient matrix, and
its biorthogonal expansion with positive coefficients comes from the SVD of
that matrix. The antiunitary correlation operator pairing the left and
right bases is the unitary polar factor of the transposed coefficient
matrix (composed with complex conjugation in the computational basis); for
full-rank vectors it is unique even when the coefficients are degenerate.

Operator level: a Hermitian 4x4 operator is a supervector in the
Hilbert-Schmidt space, expanded over the orthonormal product basis
{sigma_i/sqrt(2) x sigma_j/sqrt(2)}. The SVD of its real 4x4 coefficient
matrix 2R/||rho||_HS, R = linalg.pauli_coordinates(rho), yields the Schmidt data.
An OperatorSchmidt stores its bases as the real rows of that SVD; their 2x2
operators are lifted on first read, so a caller that reads only the
coefficients lifts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    OBSERVABLE_HERMITIAN_TOL,
    RESIDUAL_TOL,
    STATE_VALIDATION_TOL,
    from_pauli,
    hs_norm,
    leading_phases,
    partial_trace,
    pauli_coordinates,
    rank_split,
    require_hermitian,
    svd,
)
from .mds import _admitted


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


@dataclass(frozen=True)
class PureSchmidt:
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

    def reconstruct(self) -> np.ndarray:
        terms = np.einsum("i,ia,ib->ab", self.coefficients, self.left_vectors, self.right_vectors)
        return terms.reshape(4)


@dataclass(frozen=True)
class AntiunitaryMap:
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


@dataclass(frozen=True)
class OperatorSchmidt:
    """Schmidt data of a Hermitian operator viewed as a unit supervector.

    `rows` (2, rank, 4) is the one stored form of the bases, read-only:
    rows[0, i] and rows[1, i] are the coordinates of the i-th left and right
    Schmidt operator in the orthonormal basis sigma_k/sqrt(2). left_ops and
    right_ops, the (rank, 2, 2) stacks from_pauli(rows) / sqrt(2), are
    computed on first read and kept, read-only.
    """

    coefficients: np.ndarray
    rows: np.ndarray
    schmidt_rank: int
    degeneracy: tuple[int, ...]

    @cached_property
    def _ops(self) -> np.ndarray:
        # both bases lifted in one product
        ops = from_pauli(self.rows) / np.sqrt(2)
        ops.setflags(write=False)
        return ops

    @cached_property
    def left_ops(self) -> np.ndarray:
        return self._ops[0]

    @cached_property
    def right_ops(self) -> np.ndarray:
        return self._ops[1]


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
    norm2 = float(np.vdot(phi, phi).real)
    if abs(norm2 - 1.0) > STATE_VALIDATION_TOL:
        raise ValueError(f"pure_schmidt expects a normalized vector, |phi|^2 = {norm2:.12g}")
    m = phi.reshape(2, 2)
    u, s, vh = svd(m)
    rank = s.size - int(np.count_nonzero(rank_split(s, tol * s[0])[0]))
    coeffs = s[:rank].copy()
    left = u[:, :rank].T.copy()
    right = vh[:rank].copy()
    return PureSchmidt(
        coefficients=coeffs,
        left_vectors=left,
        right_vectors=right,
        schmidt_rank=rank,
        degeneracy=_degeneracy_profile(coeffs, tol * s[0]),
    )


def correlation_operator(ps: PureSchmidt) -> AntiunitaryMap:
    """Antiunitary correlation operator sending each left vector to its partner.

    Built as sum_i |right_i><conj(left_i)|, i.e. the unitary polar factor of
    the transposed coefficient matrix when the rank is full. A rank-1 input
    yields a partial isometry, flagged through the `rank` field.
    """
    return AntiunitaryMap(unitary_part=ps.right_vectors.T @ ps.left_vectors, rank=ps.schmidt_rank)


def pure_twin_partners(a1: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Second-subsystem twins of a stack (n, 2, 2) of a1 on the pure state phi.

    Requires [a1, rho_1] = 0 within RESIDUAL_TOL for every a1; the component
    acting in the null space of rho_2 (arbitrary for the twin property) is
    fixed to zero, so each result is the transport of a1 through the
    correlation operator, compressed onto the range of rho_2. phi is
    decomposed once for the whole stack, and the stack is guarded for
    Hermiticity once.
    """
    return _pure_twin_partners(
        require_hermitian(a1, "pure_twin_partner: a1", OBSERVABLE_HERMITIAN_TOL), phi
    )


def _pure_twin_partners(a1: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """pure_twin_partners on a stack Hermitian as built, such as (z + z^dag)/2: no guard."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    rho1 = partial_trace(np.outer(phi, phi.conj()), 1)
    comm = a1 @ rho1 - rho1 @ a1
    comm_norm = np.linalg.norm(comm.reshape(comm.shape[0], -1), axis=1)
    if (comm_norm > RESIDUAL_TOL).any():
        raise ValueError(
            f"pure_twin_partner: a1 does not commute with the reduced state "
            f"(commutator norm {comm_norm.max():.3e} > {RESIDUAL_TOL:g})"
        )
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
    return _operator_schmidt(rho, tol)


def _operator_schmidt(rho: np.ndarray, tol: float) -> OperatorSchmidt:
    """operator_schmidt on a 4x4 complex matrix Hermitian as validated or built: no guard."""
    norm = hs_norm(rho)
    if norm == 0.0:
        raise ValueError("operator_schmidt: zero input")
    u, s, vh = np.linalg.svd(2 * pauli_coordinates(rho) / norm)
    # sign convention: first significant entry of each left column positive
    sign = leading_phases(u)
    rank = s.size - int(np.count_nonzero(rank_split(s, tol * s[0])[0]))
    # the left (columns of u) and right (rows of vh) components, lifted only when read
    rows = np.array((u.T, vh))[:, :rank] * sign[:rank, None]
    rows.setflags(write=False)
    coeffs = s[:rank].copy()
    return OperatorSchmidt(
        coefficients=coeffs,
        rows=rows,
        schmidt_rank=rank,
        degeneracy=_degeneracy_profile(coeffs, tol * s[0]),
    )


def reconstruct(os_: OperatorSchmidt, norm: float) -> np.ndarray:
    """Rebuild norm * sum_i c_i (left_i x right_i) as a 4x4 matrix."""
    terms = np.einsum("i,iab,icd->acbd", os_.coefficients, os_.left_ops, os_.right_ops)
    return norm * terms.reshape(4, 4)
