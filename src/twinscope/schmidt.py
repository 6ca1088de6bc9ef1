"""Schmidt canonical machinery at two levels.

Ordinary level: a two-qubit state vector is a 2x2 coefficient matrix, and
its biorthogonal expansion with positive coefficients comes from the SVD of
that matrix. The antiunitary correlation operator pairing the left and
right bases is the unitary polar factor of the transposed coefficient
matrix (composed with complex conjugation in the computational basis); for
full-rank vectors it is unique even when the coefficients are degenerate.

Operator level: a Hermitian 4x4 operator is a supervector in the
Hilbert-Schmidt space, expanded over the orthonormal product basis
{sigma_i/sqrt(2) x sigma_j/sqrt(2)}. The SVD of the resulting real 4x4
coefficient matrix yields the operator Schmidt data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI2,
    RANK_TOL,
    from_pauli,
    hermitian_check,
    hs_norm,
    partial_trace,
    rank_split,
    svd,
    tensor,
)


def _degeneracy_profile(coefficients: np.ndarray, tol: float) -> tuple[int, ...]:
    """Multiplicities of coefficient groups that tie within tol."""
    groups: list[int] = []
    last = np.inf
    for c in coefficients:
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
        out = np.zeros(4, dtype=complex)
        for c, l, r in zip(self.coefficients, self.left_vectors, self.right_vectors):
            out += c * np.kron(l, r)
        return out


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
        """Transport an operator through the map: U A U^{-1}.

        For a partial map the result is additionally compressed onto the
        target range on both sides.
        """
        w = self.unitary_part
        return w @ np.conj(np.asarray(op, dtype=complex)) @ w.conj().T


@dataclass(frozen=True)
class OperatorSchmidt:
    """Schmidt data of a Hermitian operator viewed as a unit supervector."""

    coefficients: np.ndarray
    left_ops: tuple[np.ndarray, ...]
    right_ops: tuple[np.ndarray, ...]
    schmidt_rank: int
    degeneracy: tuple[int, ...]


def pure_schmidt(phi: np.ndarray, tol: float = RANK_TOL) -> PureSchmidt:
    """Schmidt expansion of a normalized 4-vector.

    Coefficients are the singular values of the 2x2 coefficient matrix;
    their squares equal the common spectrum of both reduced operators.
    The Schmidt rank is decided by rank_split at tol * (largest coefficient).
    Each left vector is phase-normalized (first significant entry real
    positive) with the compensating phase pushed into its right partner.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if phi.shape != (4,):
        raise ValueError(f"pure_schmidt expects a 4-vector, got shape {phi.shape}")
    norm = np.linalg.norm(phi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"pure_schmidt expects a normalized vector, |phi| = {norm:.12g}")
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
    w = np.zeros((2, 2), dtype=complex)
    for l, r in zip(ps.left_vectors, ps.right_vectors):
        w += np.outer(r, l)
    return AntiunitaryMap(unitary_part=w, rank=ps.schmidt_rank)


def pure_twin_partner(a1: np.ndarray, phi: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Second-subsystem twin of a1 on the pure state phi.

    Requires [a1, rho_1] = 0; the component acting in the null space of
    rho_2 (arbitrary for the twin property) is fixed to zero, so the result
    is the transport of a1 through the correlation operator, compressed
    onto the range of rho_2.
    """
    a1 = np.asarray(a1, dtype=complex)
    chk = hermitian_check(a1, 1e-10)
    if not chk.passes:
        raise ValueError(
            f"pure_twin_partner: a1 is not Hermitian (max deviation {chk.max_deviation:.3e})"
        )
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    rho1 = partial_trace(np.outer(phi, phi.conj()), 1)
    comm = a1 @ rho1 - rho1 @ a1
    comm_norm = hs_norm(comm)
    if comm_norm > tol:
        raise ValueError(
            f"pure_twin_partner: a1 does not commute with the reduced state "
            f"(commutator norm {comm_norm:.3e} > {tol:g})"
        )
    ua = correlation_operator(pure_schmidt(phi))
    return ua.conjugate(a1)


def operator_schmidt(rho: np.ndarray, tol: float = RANK_TOL) -> OperatorSchmidt:
    """Operator Schmidt expansion of a Hermitian 4x4 operator.

    The operator is normalized to a unit supervector; coefficients are the
    singular values of its real coefficient matrix in the normalized Pauli
    product basis. Coefficients that rank_split finds vanishing at
    tol * (largest coefficient) are truncated (reduced Schmidt rank) rather
    than padded with an arbitrary basis completion.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"operator_schmidt expects a 4x4 matrix, got {rho.shape}")
    chk = hermitian_check(rho, 1e-9)
    if not chk.passes:
        raise ValueError(
            f"operator_schmidt: input is not Hermitian (max deviation {chk.max_deviation:.3e})"
        )
    norm = hs_norm(rho)
    if norm == 0.0:
        raise ValueError("operator_schmidt: zero input")
    # Tr[(sigma_i x sigma_j) rho] / 2 is real for Hermitian input.
    coeff = np.einsum("ijab,ba->ij", PAULI2, rho).real / 2 / norm
    u, s, vh = np.linalg.svd(coeff)
    # sign convention: first significant entry of each left column positive
    for k in range(4):
        col = u[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size and col[idx[0]] < 0:
            u[:, k] = -col
            vh[k, :] = -vh[k, :]
    rank = s.size - int(np.count_nonzero(rank_split(s, tol * s[0])[0]))
    left_ops = tuple(from_pauli(u[:, k]) / np.sqrt(2) for k in range(rank))
    right_ops = tuple(from_pauli(vh[k]) / np.sqrt(2) for k in range(rank))
    coeffs = s[:rank].copy()
    return OperatorSchmidt(
        coefficients=coeffs,
        left_ops=left_ops,
        right_ops=right_ops,
        schmidt_rank=rank,
        degeneracy=_degeneracy_profile(coeffs, tol * s[0]),
    )


def reconstruct(os_: OperatorSchmidt, norm: float) -> np.ndarray:
    """Rebuild norm * sum_i c_i (left_i x right_i) as a 4x4 matrix."""
    out = np.zeros((4, 4), dtype=complex)
    for c, l, r in zip(os_.coefficients, os_.left_ops, os_.right_ops):
        out += c * tensor(l, r)
    return norm * out
