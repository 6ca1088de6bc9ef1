"""Geometry and classification of Bell-diagonal (maximally disordered
subsystem) two-qubit states.

The family is parametrized two ways: by the diagonal correlation vector t
(components of sigma_i x sigma_i), and by the mixing weights w over the
four Bell projectors. Both are linearly related; a t-vector describes a
state exactly when all four weights are nonnegative, which carves the
tetrahedron out of the cube [-1,1]^3.

Strata of the tetrahedron, read off the vanishing Bell weights:
  * vertices   - the four Bell projectors (three weights vanish),
  * open edges - binary Bell mixtures (two weights vanish, |t_i| = 1 on
    one axis), split into case A (t_i = +1, two non-singlet states) and
    case B (t_i = -1, singlet plus one other),
  * everything else with all weights positive - generic interior/face
    points (one vanishing weight only moves a point onto a face).
Which weights vanish is one rank decision, made by linalg.rank_split on the
weights with the cut at tol; the weights sum to 1, so the cut is relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI,
    PAULI2,
    eigh,
    from_pauli,
    hermitian_check,
    hs_norm,
    partial_trace,
    rank_split,
    tensor,
)

# Default rank cut on the Bell weights, weight-negativity and residual bound.
DEFAULT_TOL = 1e-9
# Looser validation gate for externally supplied density matrices.
STATE_VALIDATION_TOL = 1e-8

BELL_VERTEX = "bell_vertex"
BINARY_EDGE = "binary_edge"
GENERIC_INTERIOR = "generic_interior"
NON_STATE = "non_state"

# Computational-basis amplitudes of the four Bell states, singlet first.
# Phases are fixed so the t-vector of psi_s has t_s = -1 (s = 1, 2, 3) and
# the singlet has t = (-1, -1, -1).
_BELL_VECTORS = np.array(
    [
        [0, 1, -1, 0],  # psi_0, the singlet
        [1, 0, 0, -1],  # psi_1
        [1, 0, 0, 1],  # psi_2
        [0, 1, 1, 0],  # psi_3
    ],
    dtype=complex,
) / np.sqrt(2)
_BELL_VECTORS.setflags(write=False)

_BELL_T_VECTORS = np.array(
    [
        [-1.0, -1.0, -1.0],
        [-1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0],
    ]
)
_BELL_T_VECTORS.setflags(write=False)


class InternalConsistencyError(RuntimeError):
    """A mathematically impossible configuration was observed numerically."""


@dataclass(frozen=True)
class StateVerdict:
    """Joint verdict of the weight test and the eigenvalue test."""

    ok: bool
    min_weight: float
    offending_index: int
    min_eigenvalue: float


@dataclass(frozen=True)
class MdsClass:
    """Classification of a t-vector on the tetrahedron.

    kind is one of BELL_VERTEX, BINARY_EDGE, GENERIC_INTERIOR, NON_STATE.
    For a vertex, `vertex` holds the Bell index. For an edge, `axis` is the
    coordinate with |t_axis| = 1, `case` is "A" (t_axis = +1) or "B"
    (t_axis = -1), and `edge_parameter` is the free coordinate t_{axis+1}
    (cyclic). `weights` always carries the Bell mixing weights of the input.
    """

    kind: str
    weights: np.ndarray
    detail: str
    vertex: int | None = None
    axis: int | None = None
    case: str | None = None
    edge_parameter: float | None = None


@dataclass(frozen=True)
class CanonicalForm:
    """Local unitaries carrying a state onto its diagonal-correlation form."""

    u1: np.ndarray
    u2: np.ndarray
    t: np.ndarray
    residual: float


def bell_state(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bell state vector and projector for index k (0 is the singlet)."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Bell index must be in 0..3, got {k}")
    vec = _BELL_VECTORS[k].copy()
    return vec, np.outer(vec, vec.conj())


def bell_t_vector(k: int) -> np.ndarray:
    """t-vector of the k-th Bell projector."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Bell index must be in 0..3, got {k}")
    return _BELL_T_VECTORS[k].copy()


def t_from_weights(w: np.ndarray) -> np.ndarray:
    """Correlation vector of the Bell mixture with weights (w0, w1, w2, w3)."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (4,):
        raise ValueError(f"expected 4 weights, got shape {w.shape}")
    w0, w1, w2, w3 = w
    return np.array(
        [
            -w1 + w2 + w3 - w0,
            w1 - w2 + w3 - w0,
            w1 + w2 - w3 - w0,
        ]
    )


def weights_from_t(t: np.ndarray) -> np.ndarray:
    """Bell mixing weights of a t-vector (negative entries mean non-state)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (3,):
        raise ValueError(f"expected a 3-component t-vector, got shape {t.shape}")
    t1, t2, t3 = t
    return np.array(
        [
            (1 - t1 - t2 - t3) / 4,
            (1 - t1 + t2 + t3) / 4,
            (1 + t1 - t2 + t3) / 4,
            (1 + t1 + t2 - t3) / 4,
        ]
    )


def build_T(t: np.ndarray) -> np.ndarray:
    """The operator (1/4)(I x I + sum_i t_i sigma_i x sigma_i)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (3,):
        raise ValueError(f"expected a 3-component t-vector, got shape {t.shape}")
    # the repeated index picks the diagonal products sigma_i x sigma_i
    return np.einsum("i,iiab->ab", np.concatenate(([1.0], t)), PAULI2) / 4


def is_state(t: np.ndarray, tol: float = DEFAULT_TOL) -> StateVerdict:
    """Tetrahedron membership: all Bell weights >= -tol.

    The smallest eigenvalue of the built operator is the smallest weight
    computed another way, and is kept as a cross-check. The two may differ
    only by rounding, so InternalConsistencyError is raised when
    |min weight - min eigenvalue| exceeds 1e-12 * max(1, sum_k |w_k|);
    the two landing on opposite sides of -tol is not an error.
    """
    w = weights_from_t(t)
    min_w = float(w.min())
    arg = int(w.argmin())
    eigs, _ = eigh(build_T(t))
    min_eig = float(eigs[-1])
    if abs(min_w - min_eig) > 1e-12 * max(1.0, float(np.abs(w).sum())):
        raise InternalConsistencyError(
            f"weight test ({min_w:.3e}) and eigenvalue test ({min_eig:.3e}) "
            f"disagree beyond rounding"
        )
    return StateVerdict(
        ok=min_w >= -tol, min_weight=min_w, offending_index=arg, min_eigenvalue=min_eig
    )


_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def classify(t: np.ndarray, tol: float = DEFAULT_TOL) -> MdsClass:
    """Classify a t-vector as vertex, edge, interior, or non-state.

    The stratum is the number of vanishing Bell weights, which rank_split
    decides on |w| of all but the smallest weight at cut tol. Three mean the
    Bell vertex of the surviving index; two a binary edge, case B when w0
    survives, on the axis k in 1..3 that vanishes or survives with w0; fewer
    a generic point.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    w = weights_from_t(t)
    verdict = is_state(t, tol)
    if not verdict.ok:
        return MdsClass(
            kind=NON_STATE,
            weights=w,
            detail=(
                f"weight w{verdict.offending_index} = {verdict.min_weight:.12g} < -{tol:g}"
            ),
        )
    rest = np.argsort(w)[1:]
    zero, gap = rank_split(np.abs(w[rest]), tol)
    alive = sorted(rest[~zero].tolist())
    cut = f"cut {tol:g}, rank gap {gap:.3e}"
    if len(alive) == 1:
        return MdsClass(
            kind=BELL_VERTEX,
            weights=w,
            vertex=alive[0],
            detail=f"only w{alive[0]} survives the {cut}: Bell projector {alive[0]}",
        )
    if len(alive) == 2:
        case = "B" if 0 in alive else "A"
        i = next(k for k in (1, 2, 3) if (k in alive) == (0 in alive))
        j, _ = _CYCLIC[i]
        return MdsClass(
            kind=BINARY_EDGE,
            weights=w,
            axis=i,
            case=case,
            edge_parameter=float(t[j - 1]),
            detail=f"w{alive[0]} and w{alive[1]} survive the {cut}: axis {i} "
            f"case {case}, free coordinate t{j} = {t[j - 1]:.12g}",
        )
    return MdsClass(
        kind=GENERIC_INTERIOR,
        weights=w,
        detail=f"at most one weight vanishes: the second smallest, w{rest[0]} = "
        f"{w[rest[0]]:.12g}, clears the cut {tol:g}",
    )


def edge_mixture(cls: MdsClass) -> dict[int, float]:
    """Bell indices and weights of a binary-edge mixture.

    Case A on axis i mixes the two non-singlet states other than i; case B
    mixes state i with the singlet.
    """
    if cls.kind != BINARY_EDGE:
        raise ValueError(f"edge_mixture expects a binary edge, got {cls.kind}")
    i = cls.axis
    j, m = _CYCLIC[i]
    u = cls.edge_parameter
    if cls.case == "A":
        return {j: (1 - u) / 2, m: (1 + u) / 2}
    return {i: (1 + u) / 2, 0: (1 - u) / 2}


def validate_density_matrix(rho: np.ndarray, tol: float = STATE_VALIDATION_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return the input as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    chk = hermitian_check(rho, tol)
    if not chk.passes:
        raise ValueError(
            f"density matrix is not Hermitian (max deviation {chk.max_deviation:.3e})"
        )
    tr = np.trace(rho).real
    if abs(tr - 1) > tol:
        raise ValueError(f"density matrix trace is {tr:.12g}, expected 1")
    eigs, _ = eigh(rho, tol)
    if eigs[-1] < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {eigs[-1]:.3e}")
    return rho


def is_mds(rho: np.ndarray, tol: float = STATE_VALIDATION_TOL) -> bool:
    """True when both reduced states equal I/2 within tol."""
    rho = validate_density_matrix(rho, tol)
    half = np.eye(2) / 2
    return (
        np.abs(partial_trace(rho, 1) - half).max() <= tol
        and np.abs(partial_trace(rho, 2) - half).max() <= tol
    )


def _su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Lift a rotation matrix to SU(2), choosing the lift with nonnegative trace.

    Shepperd's quaternion (J. Guidance & Control 1(3), 1978): k[a, b] = 4 q_a q_b
    for q = (w, x, y, z), so q is the row of k with the largest diagonal, normalised.
    """
    tr = np.trace(r)
    k = np.empty((4, 4))
    k[0, 0] = 1 + tr
    k[0, 1:] = k[1:, 0] = (r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1])
    k[1:, 1:] = r + r.T + (1 - tr) * np.eye(3)
    q = k[int(np.argmax(np.diagonal(k)))]
    u = from_pauli(q / np.linalg.norm(q) * np.array([1, -1j, -1j, -1j]))
    if np.trace(u).real < 0:
        u = -u
    # guard against a convention mismatch: conjugation must reproduce r
    rec = np.einsum("iab,bc,jcd,da->ij", PAULI[1:], u, PAULI[1:], u.conj().T).real / 2
    if np.abs(rec - r).max() > 1e-9:
        raise InternalConsistencyError("SU(2) lift does not reproduce the rotation")
    return u


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of expectations of sigma_i x sigma_j."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("ijab,ba->ij", PAULI2[1:, 1:], rho).real


def canonicalize(rho: np.ndarray) -> CanonicalForm:
    """Local unitaries (u1, u2) and t with (u1 x u2) rho (u1 x u2)^dagger = T(t).

    The correlation matrix is decomposed as A diag(t) B^T with both factors
    forced into SO(3) (flipping the sign of the last singular value when
    needed); the rotations transpose onto the state's two sides and lift to
    SU(2). Axes are then permuted so |t| is descending, ties broken by
    signed value descending. A transport residual above DEFAULT_TOL raises
    InternalConsistencyError.
    """
    rho = validate_density_matrix(rho)
    half = np.eye(2) / 2
    dev1 = np.abs(partial_trace(rho, 1) - half).max()
    dev2 = np.abs(partial_trace(rho, 2) - half).max()
    if max(dev1, dev2) > STATE_VALIDATION_TOL:
        raise ValueError(
            f"canonicalize expects maximally disordered subsystems; partial traces "
            f"deviate from I/2 by {dev1:.3e} and {dev2:.3e}"
        )
    c = correlation_matrix(rho)
    a, s, bt = np.linalg.svd(c)
    b = bt.T
    da, db = np.linalg.det(a), np.linalg.det(b)
    a = a.copy()
    b = b.copy()
    if da < 0:
        a[:, 2] = -a[:, 2]
    if db < 0:
        b[:, 2] = -b[:, 2]
    t = s.copy()
    t[2] *= np.sign(da) * np.sign(db)
    # canonical axis order: |t| descending, ties by signed value descending
    order = sorted(range(3), key=lambda i: (-abs(t[i]), -t[i]))
    perm = np.zeros((3, 3))
    for new, old in enumerate(order):
        perm[new, old] = 1.0
    if np.linalg.det(perm) < 0:
        perm[0, :] = -perm[0, :]
    r1 = perm @ a.T
    r2 = perm @ b.T
    t = t[order]
    u1 = _su2_from_rotation(r1)
    u2 = _su2_from_rotation(r2)
    transported = tensor(u1, u2) @ rho @ tensor(u1, u2).conj().T
    residual = hs_norm(transported - build_T(t))
    if residual > DEFAULT_TOL:
        raise InternalConsistencyError(
            f"canonicalization residual {residual:.3e} exceeds {DEFAULT_TOL:g}"
        )
    return CanonicalForm(u1=u1, u2=u2, t=t, residual=float(residual))


def sample_tetrahedron(seed: int, region: str) -> np.ndarray:
    """Deterministic pseudorandom t-vector in a requested stratum.

    region is "interior", "vertex:K" (K in 0..3), or "edge:I:A" / "edge:I:B"
    (axis I in 1..3). Every returned point satisfies the state test.
    """
    rng = np.random.default_rng(seed)
    parts = region.split(":")
    if parts[0] == "interior":
        return random_interior_t(rng)
    if parts[0] == "vertex" and len(parts) == 2:
        return bell_t_vector(int(parts[1]))
    if parts[0] == "edge" and len(parts) == 3:
        return random_edge_t(rng, int(parts[1]), parts[2])
    raise ValueError(f"unknown region {region!r}")


def random_interior_t(
    rng: np.random.Generator, min_weight: float = 0.01
) -> np.ndarray:
    """t-vector with all four Bell weights >= min_weight (rejection sampling)."""
    while True:
        w = rng.dirichlet(np.ones(4))
        if w.min() >= min_weight:
            return t_from_weights(w)


def random_edge_t(
    rng: np.random.Generator,
    axis: int,
    case: str,
    parameter: float | None = None,
    margin: float = 0.05,
) -> np.ndarray:
    """Open-edge t-vector on the given axis and case.

    The free parameter is sampled in (-1 + margin, 1 - margin) when not
    given. Case A fixes t_axis = +1 with the two free coordinates opposite;
    case B fixes t_axis = -1 with them equal.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"edge axis must be 1..3, got {axis}")
    if case not in ("A", "B"):
        raise ValueError(f"edge case must be 'A' or 'B', got {case!r}")
    u = parameter if parameter is not None else rng.uniform(-1 + margin, 1 - margin)
    if not -1 < u < 1:
        raise ValueError(f"edge parameter must be in (-1, 1), got {u}")
    j, m = _CYCLIC[axis]
    t = np.zeros(3)
    if case == "A":
        t[axis - 1] = 1.0
        t[m - 1] = u
        t[j - 1] = -u
    else:
        t[axis - 1] = -1.0
        t[j - 1] = u
        t[m - 1] = u
    return t
