"""Dense complex linear algebra substrate for two-qubit computations.

Everything here works on plain numpy arrays at dimensions up to 32 (the
largest system assembled anywhere is the stacked 32x8 twin condition).
Operations are pure functions; returned decompositions follow fixed
ordering and phase conventions so repeated runs produce identical output.

The Pauli basis lives here alone: PAULI is the read-only 4x2x2 stack
(I, sigma_1, sigma_2, sigma_3) that pauli(i) indexes, PAULI2[i, j] is the
read-only product sigma_i x sigma_j, to_pauli(a) gives the real components
Tr(sigma_k a)/2 of a 2x2 operator, and from_pauli(c) gives sum_k c_k sigma_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold for all rank decisions (nullspaces, Schmidt spectra).
RANK_TOL = 1e-9
# Absolute tolerance for Hermiticity guards.
HERMITIAN_TOL = 1e-9

PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
PAULI.setflags(write=False)
PAULI2 = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(4, 4, 4, 4)
PAULI2.setflags(write=False)


class RankDecisionError(ValueError):
    """Raised when a numerical rank decision has no clear singular-value gap."""


def pauli(i: int) -> np.ndarray:
    """Return the i-th Pauli matrix (index 0 is the identity).

    The returned array is read-only; copy before mutating.
    """
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be in 0..3, got {i}")
    return PAULI[i]


def to_pauli(a: np.ndarray) -> np.ndarray:
    """Real Pauli components Tr(sigma_k a)/2 of a 2x2 operator, k = 0..3.

    Accepts a stack (..., 2, 2) and returns (..., 4). Only the real parts
    are kept, which is exact for Hermitian input.
    """
    return np.einsum("kab,...ba->...k", PAULI, np.asarray(a, dtype=complex)).real / 2


def from_pauli(c: np.ndarray) -> np.ndarray:
    """The operator sum_k c_k sigma_k; a stack (..., 4) gives (..., 2, 2)."""
    return np.tensordot(np.asarray(c), PAULI, axes=(-1, 0))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("tensor: entries must be finite")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Trace out one qubit of a 4x4 operator, keeping subsystem 1 or 2."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("ijkj->ik", r)
    if keep == 2:
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"hs_inner: shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


@dataclass(frozen=True)
class HermitianCheck:
    """Outcome of a Hermiticity guard: largest |M - M^dagger| entry vs tolerance."""

    max_deviation: float
    tolerance: float

    @property
    def passes(self) -> bool:
        return self.max_deviation <= self.tolerance


def hermitian_check(m: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianCheck:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hermitian_check expects a square matrix, got {m.shape}")
    dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    return HermitianCheck(max_deviation=dev, tolerance=tol)


def _phase_normalize_columns(u: np.ndarray, compensate: np.ndarray | None = None) -> None:
    """Rotate each column of u so its first significant entry is real positive.

    When `compensate` is given (rows paired with u's columns, as in an SVD),
    the inverse phase is pushed into the matching row to keep the product
    fixed; columns beyond the paired range are normalized without
    compensation. Operates in place.
    """
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size == 0:
            continue
        z = col[idx[0]]
        phase = z / abs(z)
        u[:, k] = col * np.conj(phase)
        if compensate is not None and k < compensate.shape[0]:
            compensate[k, :] *= phase


def eigh(m: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, eigenvector columns), with each
    eigenvector phase-normalized so its first significant entry is real
    positive. Rejects input that is not Hermitian within `tol`.
    """
    m = np.asarray(m, dtype=complex)
    chk = hermitian_check(m, tol)
    if not chk.passes:
        raise ValueError(
            f"eigh: matrix is not Hermitian within {tol:g} "
            f"(max deviation {chk.max_deviation:.3e})"
        )
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    _phase_normalize_columns(v)
    return w, v


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition m = u @ diag(s) @ vh with fixed phases.

    Left singular vectors are phase-normalized (first significant entry real
    positive) and the compensating phase is pushed into the matching right
    vector, so the factorization stays exact.
    """
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    u = u.copy()
    vh = vh.copy()
    _phase_normalize_columns(u, compensate=vh)
    return u, s, vh


@dataclass(frozen=True)
class NullspaceResult:
    """Orthonormal nullspace basis (rows) plus the rank-decision diagnostics."""

    basis: np.ndarray
    singular_values: np.ndarray
    rank: int
    gap: float


def real_nullspace(m: np.ndarray, tol: float = RANK_TOL) -> NullspaceResult:
    """Orthonormal basis of the nullspace of a real matrix.

    A singular value counts as zero when it is <= tol * (largest singular
    value). The reported `gap` is the ratio between the smallest retained
    and the largest discarded singular value (inf when either side is
    empty). The decision is treated as ambiguous, and RankDecisionError
    raised, when any singular value lands within a factor of 10 of the
    threshold on either side - i.e. when there is no gap of at least two
    orders of magnitude around the cut.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"real_nullspace expects a 2-d array, got ndim={m.ndim}")
    n = m.shape[1]
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    s_full = np.zeros(n)
    s_full[: s.size] = s
    smax = s_full[0] if s_full.size else 0.0
    threshold = tol * smax
    null_mask = s_full <= threshold
    rank = int(np.count_nonzero(~null_mask))
    kept = s_full[~null_mask]
    dropped = s_full[null_mask]
    if kept.size and dropped.size and dropped.max() > 0:
        gap = float(kept.min() / dropped.max())
    else:
        gap = float("inf")
    kept_close = kept.size and kept.min() < 10 * threshold
    dropped_close = dropped.size and dropped.max() > threshold / 10
    if kept_close or dropped_close:
        raise RankDecisionError(
            f"ambiguous rank decision: singular values cluster around the "
            f"threshold {threshold:.3e} "
            f"(smallest kept {kept.min() if kept.size else float('nan'):.3e}, "
            f"largest dropped {dropped.max() if dropped.size else 0.0:.3e})"
        )
    basis = vt[rank:].copy()
    return NullspaceResult(basis=basis, singular_values=s_full, rank=rank, gap=gap)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2
