"""Dense complex linear algebra substrate for two-qubit computations.

Everything here works on plain numpy arrays at dimensions up to 32 (the
largest system assembled anywhere is the stacked 32x8 twin condition).
Operations are pure functions; returned decompositions follow fixed
ordering and phase conventions so repeated runs produce identical output.

eigh returns eigenvalues and phase-normalized eigenvectors, after rejecting
input that is not Hermitian. No kernel of the package calls it: they read
spectra, or projectors, which do not depend on phase. It stays as public API
and as the phase-normalized reference the tests hold those kernels to.
A 2x2 observable c0 I + c.sigma needs no eigensolver at all: its spectrum is
c0 +- |c| and its eigenprojectors are (I +- chat.sigma)/2, so
twins.correlation_tables reads outcome tables in closed form from Pauli
components and the Pauli coordinates of rho.

A matrix is guarded for Hermiticity once, and every guard is require_hermitian,
which holds hermitian_check's largest |M - M^dagger| entry to its tol.
A matrix that has passed a guard (mds.validate_density_matrix returns its
exact Hermitian part), or that is Hermitian by construction (build_T, a
partial transpose of such a matrix, from_pauli of real rows), goes to
np.linalg.eigvalsh, for callers that read no eigenvector, or is converted
to its Pauli coordinates for a private kernel, with no second guard; public
entry points guard what they receive from outside. mds.is_state records the
bytes of T(t) for the last t it admitted: validate_density_matrix runs no
test again on those bytes, nor operator_schmidt its guard. The phase
convention of eigh and svd, and the sign convention of real factors
elsewhere, is one rule, leading_phases: the first entry above PHASE_CUT in
magnitude of each column is made real positive. It covers vectors that are
reported.

Every rank decision cuts a descending spectrum with rank_split: the kept
values are a prefix, and the two neighbours at the cut decide the rank. One
within a factor RANK_GUARD of the cut makes the decision ambiguous
(RankDecisionError); a spectrum that is not descending is a ValueError.
Callers choose only what they cut and where.

The Pauli basis lives here alone: PAULI is the read-only 4x2x2 stack
(I, sigma_1, sigma_2, sigma_3) that pauli(i) indexes, PAULI2[i, j] is the
read-only product sigma_i x sigma_j, to_pauli(a) gives the real components
Tr(sigma_k a)/2 of a 2x2 operator, and from_pauli(c) gives sum_k c_k sigma_k
for a whole stack of coefficient rows in one product. pauli_adjoint(u) is the
4x4 action of a 2x2 unitary on those components, one product with a read-only
map derived from PAULI. pauli_coordinates(rho) is
the 4x4 conversion beside them: the real R with rho = sum_ij R_ij sigma_i x sigma_j.
The reduced states are from_pauli(2 R[:, 0]) and from_pauli(2 R[0, :]), and
4 R[1:, 1:] is the correlation matrix of a two-qubit state.
R is what every private kernel reads, converted once at each public entry
point. A complex 4x4 matrix is formed only at the boundaries: parsing, the
gate's and PPT's eigenvalue tests, pure-state-commutant's eigenvectors and
rendering.

The tolerance policy is the commented table of module constants below; no
other module holds a tolerance literal:
  DEFAULT_TOL              1e-9   relative rank cut (--tol); membership and PPT cut
  RANK_GUARD               10     guard band around a rank cut, as a factor
  STATE_VALIDATION_TOL     1e-8   absolute gate that admits a state
  HERMITIAN_TOL            1e-9   absolute Hermitian guard of a matrix
  OBSERVABLE_HERMITIAN_TOL 1e-10  absolute Hermitian guard of 2x2 observables
  PHASE_CUT                1e-12  absolute magnitude below which an entry sets no phase
  ROUNDING_TOL             1e-12  absolute rounding of an exact identity
  PROBABILITY_TOL          1e-10  absolute rounding of a probability or expectation
  DEGENERACY_TOL           1e-9   absolute eigenvalue tie of a 2x2 observable
  RESIDUAL_TOL             1e-9   absolute residual of a derived identity
The gate bounds every later check on a state it admitted (mds.is_state,
twins.correlation_tables).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# The tolerance policy: every threshold in the package, named once. Absolute
# entries bound a number of unit scale (an entry of a unit-trace state or of
# the observables handed in, a probability, a residual); relative ones bound a
# ratio to the largest value of its kind. Four bounds are derived, with their
# formulas where they are defined: mds._residual_bound (RESIDUAL_TOL + ||L||_HS,
# the canonicalization residual), mds.state_test_rounding (ROUNDING_TOL *
# max(1, sum_k |w_k|), weight test against eigenvalue test) and twins._pauli_tables'
# two table bounds (STATE_VALIDATION_TOL + ROUNDING_TOL below 0 for an entry,
# STATE_VALIDATION_TOL + PROBABILITY_TOL off 1 for the sum).
#
# Relative: the default cut of every rank decision (--tol): singular values and
# Schmidt coefficients over the largest, Bell weights (which sum to 1). The same
# number is the membership cut (is_state, never looser than STATE_VALIDATION_TOL)
# and the absolute PPT eigenvalue cut.
DEFAULT_TOL = 1e-9
# Relative: no value may lie within this factor of a rank cut, on either side.
RANK_GUARD = 10.0
# Absolute: the gate that admits a state. A density matrix's Hermitian deviation,
# |Tr rho - 1| and most negative eigenvalue; |phi|^2 - 1 of a pure vector (the
# trace of its projector); the sum of --weights; the reduced-state disorder
# ||rho_k - I/2|| (is_mds). A check on an admitted state allows what it admitted.
STATE_VALIDATION_TOL = 1e-8
# Absolute: the default Hermitian guard of a matrix (require_hermitian, eigh).
HERMITIAN_TOL = 1e-9
# Absolute: the Hermitian guard of 2x2 observables handed to the pair kernels.
OBSERVABLE_HERMITIAN_TOL = 1e-10
# Absolute: an entry at or below this magnitude sets no phase (leading_phases).
PHASE_CUT = 1e-12
# Absolute: rounding of an exact identity between unit-scale numbers (weights and
# t, T(t) and its Bell mixture, a joint-table entry below 0 beyond the gate).
ROUNDING_TOL = 1e-12
# Absolute: rounding of a probability or expectation read through eigenprojectors
# (a joint table's sum beyond the gate, a twin pair's mismatch and expectation gap).
PROBABILITY_TOL = 1e-10
# Absolute: two eigenvalues of a 2x2 observable this close admit no outcome pairing.
DEGENERACY_TOL = 1e-9
# Absolute: the residual of a derived identity (an SU(2) lift against its
# rotation, a commutator with a reduced state, verify's span, twin, spectrum and
# |t| residuals, the vanishing eigenvalues of a projector, a twin pair's residual,
# the canonicalization residual beside the local part).
RESIDUAL_TOL = 1e-9

PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
PAULI.setflags(write=False)
_PAULI_ROWS = PAULI.reshape(4, 4)
PAULI2 = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(4, 4, 4, 4)
PAULI2.setflags(write=False)
# pauli_adjoint(u) is (_ADJOINT_MAP @ (u outer u*)).real: row (k, l), column (b, c, a, d)
# holds (sigma_k)_ab (sigma_l)_cd / 2, the coefficient of u_bc u*_ad in
# Tr(sigma_k u sigma_l u^dag) / 2
_ADJOINT_MAP = np.einsum("kab,lcd->klbcad", PAULI, PAULI).reshape(16, 16) / 2
_ADJOINT_MAP.setflags(write=False)


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
    c = np.asarray(c)
    return (c @ _PAULI_ROWS).reshape(*c.shape[:-1], 2, 2)


def pauli_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real R with rho = sum_ij R_ij sigma_i x sigma_j, for a Hermitian rho or each of a stack."""
    return np.einsum("ijab,...ba->...ij", PAULI2, np.asarray(rho, dtype=complex)).real / 4


def pauli_adjoint(u: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix of a -> u a u^dag on Pauli components, for a 2x2 unitary u.

    Column l holds the components of u sigma_l u^dag, so to_pauli(u a u^dag)
    is pauli_adjoint(u) @ to_pauli(a) for Hermitian a, and the Pauli coordinates
    of (u1 x u2) rho (u1 x u2)^dag are pauli_adjoint(u1) @ R @ pauli_adjoint(u2).T.
    """
    return (_ADJOINT_MAP @ np.multiply.outer(u, u.conj()).reshape(16)).real.reshape(4, 4)


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


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-2, -1)


def hermitian_check(m: np.ndarray) -> float:
    """Largest |M - M^dagger| entry of a square matrix, or of a stack (..., n, n), in one pass.

    A nan or inf entry makes the deviation nan or inf, with no numpy warning.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"hermitian_check expects a square matrix, got {m.shape}")
    # inf - inf is nan, which require_hermitian names as a non-finite entry: no warning
    with np.errstate(invalid="ignore"):
        return float(np.abs(m - _dagger(m)).max()) if m.size else 0.0


def require_hermitian(m: np.ndarray, what: str, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return m as complex, after rejecting it when it is not Hermitian within tol.

    The ValueError reads "{what} is not Hermitian (max deviation ...)", or
    "{what} has a non-finite entry": any nan or inf entry makes the deviation
    nan or inf.
    """
    m = np.asarray(m, dtype=complex)
    dev = hermitian_check(m)
    if not dev <= tol:  # a nan deviation fails too
        if not math.isfinite(dev):
            raise ValueError(f"{what} has a non-finite entry")
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    return m


def _hermitian_part(m: np.ndarray, what: str, tol: float) -> np.ndarray:
    """(m + m^dagger)/2, after rejecting m as require_hermitian does."""
    m = require_hermitian(m, what, tol)
    return (m + _dagger(m)) / 2


def leading_phases(a: np.ndarray) -> np.ndarray:
    """Unit phase of the first entry above PHASE_CUT in magnitude of each column.

    Dividing a column by its phase makes that entry real positive. A real
    array gives signs +-1.0, a complex one unit complex numbers; a column
    with no such entry gets 1. A stack (..., m, n) gives phases (..., n).
    A real matrix (the operator Schmidt and twin-row factors) is read as
    Python floats, one column at a time, which beats the array path on a few
    entries. Complex input and stacks take the one array path: Python's
    complex division rounds differently from numpy's.
    """
    if a.ndim == 2 and a.dtype == np.float64:
        signs = []
        for col in a.T.tolist():
            sign = 1.0
            for x in col:
                if abs(x) > PHASE_CUT:
                    sign = x / abs(x)
                    break
            signs.append(sign)
        return np.array(signs)
    cols = np.swapaxes(a, -2, -1)  # one row per column, over the whole stack
    flat = cols.reshape(-1, cols.shape[-1])
    lead = (np.abs(flat) > PHASE_CUT).argmax(axis=-1)
    first = flat[np.arange(flat.shape[0]), lead].reshape(cols.shape[:-1])
    # argmax gives row 0 for a column with no entry above PHASE_CUT; that column gets 1
    z = np.where(np.abs(first) > PHASE_CUT, first, 1)
    return z / np.abs(z)


def eigh(m: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of a stack (..., n, n) in one call.

    Returns (eigenvalues descending, eigenvector columns), with each
    eigenvector phase-normalized so its first significant entry is real
    positive. Rejects input that is not Hermitian within `tol`; a stack
    is guarded once, by its largest deviation.
    """
    w, v = np.linalg.eigh(_hermitian_part(m, "eigh: matrix", tol))
    v = v[..., ::-1]
    return w[..., ::-1].copy(), v * leading_phases(v).conj()[..., None, :]


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition m = u @ diag(s) @ vh with fixed phases.

    Left singular vectors are phase-normalized (first significant entry real
    positive) and the compensating phase is pushed into the matching right
    vector, so the factorization stays exact. Real input stays real: its
    factors are real and its phases are signs +-1.0. A stack (..., m, n)
    is factored member by member, in one call.
    """
    m = np.asarray(m)
    u, s, vh = np.linalg.svd(m.astype(complex if np.iscomplexobj(m) else float, copy=False))
    phase = leading_phases(u)
    k = min(phase.shape[-1], vh.shape[-2])
    vh[..., :k, :] *= phase[..., :k, None]
    return u * phase.conj()[..., None, :], s, vh


class NullspaceResult(NamedTuple):
    """Orthonormal nullspace basis (rows) plus the rank-decision diagnostics."""

    basis: np.ndarray
    singular_values: np.ndarray
    rank: int
    gap: float


def rank_split(values: list[float], threshold: float) -> tuple[int, float]:
    """Cut a descending spectrum: (rank, gap), rank counting the values above threshold.

    The kept values are a prefix, so the neighbours at the cut, values[rank - 1]
    and values[rank], decide the rank; gap is their ratio (inf if either is
    missing or the second is 0). A value within a factor RANK_GUARD of the cut
    raises RankDecisionError, a spectrum that is not descending (a nan included)
    ValueError. One pass over Python floats beats numpy on a few values.
    """
    threshold = float(threshold)
    rank, last = 0, math.inf
    for v in values:
        if not v <= last:
            raise ValueError(f"rank_split expects a descending spectrum, got {list(values)}")
        rank += v > threshold
        last = v
    smallest_kept = values[rank - 1] if rank else math.inf
    largest_dropped = values[rank] if rank < len(values) else 0.0
    if smallest_kept < RANK_GUARD * threshold or largest_dropped > threshold / RANK_GUARD:
        raise RankDecisionError(
            f"ambiguous rank decision: values cluster around the cut {threshold:.3e} "
            f"(smallest kept {smallest_kept:.3e}, largest dropped {largest_dropped:.3e}, "
            f"guard factor {RANK_GUARD:g})"
        )
    return rank, smallest_kept / largest_dropped if largest_dropped > 0 else math.inf


def real_nullspace(m: np.ndarray, tol: float = DEFAULT_TOL) -> NullspaceResult:
    """Orthonormal basis of the nullspace of a real matrix.

    The singular values (padded with zeros to the column count) are split
    by rank_split at tol * (largest singular value); `gap` is its ratio of
    the smallest retained to the largest discarded singular value.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"real_nullspace expects a 2-d array, got ndim={m.ndim}")
    n = m.shape[1]
    # vt must be n x n; a tall m gets it from the thin SVD, without the unread full u
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < n)
    s_full = np.zeros(n)
    s_full[: s.size] = s
    smax = s_full[0] if s_full.size else 0.0
    rank, gap = rank_split(s_full.tolist(), tol * smax)
    return NullspaceResult(basis=vt[rank:].copy(), singular_values=s_full, rank=rank, gap=gap)


def _ginibre(rng: np.random.Generator, dim: int, size: int | None) -> np.ndarray:
    """n complex Ginibre dim x dim matrices (n = 1 when size is None) in one normal draw.

    Member i's real parts, then its imaginary parts, come before member i + 1's:
    the order of n separate draws.
    """
    x = rng.standard_normal((1 if size is None else size, 2, dim, dim))
    return x[:, 0] + 1j * x[:, 1]


def random_unitary(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a Ginibre matrix, column k times r_kk's phase (Mezzadri).

    size follows NumPy: None gives one matrix, n an (n, 2, 2) stack with one stacked QR.
    Member i is bitwise the i-th of n single draws (LAPACK factors each member as it
    factors one matrix), and a single draw is the stack of one.
    """
    q, r = np.linalg.qr(_ginibre(rng, 2, size))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    return u[0] if size is None else u


def random_hermitian(
    rng: np.random.Generator, dim: int = 2, size: int | None = None
) -> np.ndarray:
    """Random Hermitian (z + z^dag)/2 of a Ginibre z, with O(1) entries.

    size follows NumPy as in random_unitary: n gives an (n, dim, dim) stack whose
    member i is bitwise the i-th of n single draws; a single draw is the stack of one.
    """
    z = _ginibre(rng, dim, size)
    h = (z + _dagger(z)) / 2
    return h[0] if size is None else h
