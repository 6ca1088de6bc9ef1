"""Geometry and classification of Bell-diagonal (maximally disordered
subsystem) two-qubit states.

The family is parametrized two ways: by the diagonal correlation vector t
(components of sigma_i x sigma_i), and by the mixing weights w over the
four Bell projectors, related by one sign table, BELL_SIGNS, which also gives
an edge its axis and case and the twins module every closed-form twin basis.
A t-vector describes a state exactly when all four weights are nonnegative,
which carves the tetrahedron out of the cube [-1,1]^3.

Strata of the tetrahedron, read off the vanishing Bell weights:
  * vertices   - the four Bell projectors (three weights vanish),
  * open edges - binary Bell mixtures (two weights vanish, |t_i| = 1 on
    one axis), split into case A (t_i = +1, two non-singlet states) and
    case B (t_i = -1, singlet plus one other),
  * everything else with all weights positive - generic interior/face
    points (one vanishing weight only moves a point onto a face).
Which weights vanish is one rank decision, made by linalg.rank_split on the
weights with the cut at tol; the weights sum to 1, so the cut is relative.
The private kernels read a validated state's Pauli coordinates R; complex
matrices are formed only for the gate (build_T, validate_density_matrix).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PAULI2,
    RESIDUAL_TOL,
    ROUNDING_TOL,
    STATE_VALIDATION_TOL,
    _dagger,
    _lapack,
    from_pauli,
    pauli_adjoint,
    pauli_coordinates,
    rank_split,
    require_hermitian,
)

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
_BELL_PROJECTORS = np.einsum("ka,kb->kab", _BELL_VECTORS, _BELL_VECTORS.conj())
_BELL_PROJECTORS.setflags(write=False)
# their Pauli coordinates, converted from the projectors and not read off the sign table
_BELL_COORDS = pauli_coordinates(_BELL_PROJECTORS)
_BELL_COORDS.setflags(write=False)

# The Bell sign table: row k is (1, t-vector of psi_k), and on psi_k sigma_i x I acts as
# BELL_SIGNS[k, i] (I x sigma_i). The rows are orthogonal, BELL_SIGNS @ BELL_SIGNS.T = 4 I,
# so w = BELL_SIGNS @ (1, t) / 4 and (1, t) = w @ BELL_SIGNS.
BELL_SIGNS = np.array(
    [
        [1.0, -1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, 1.0],
        [1.0, 1.0, 1.0, -1.0],
    ]
)
BELL_SIGNS.setflags(write=False)

# build_T(t) is _T_MAP[0] + t @ _T_MAP[1:], flattened: row i is sigma_i x sigma_i / 4
_T_MAP = np.einsum("iiab->iab", PAULI2).reshape(4, 16) / 4
_T_MAP.setflags(write=False)
_T_IDENTITY, _T_SIGMAS = _T_MAP[0], _T_MAP[1:]

# a unit quaternion (w, x, y, z) lifts to w I - i (x sigma_1 + y sigma_2 + z sigma_3)
_QUATERNION_TO_PAULI = np.array([1, -1j, -1j, -1j])
_QUATERNION_TO_PAULI.setflags(write=False)


class InternalConsistencyError(RuntimeError):
    """A mathematically impossible configuration was observed numerically."""


class StateVerdict(NamedTuple):
    """Joint verdict of the weight test and the eigenvalue test, and the Bell weights tested."""

    ok: bool
    min_weight: float
    offending_index: int
    min_eigenvalue: float
    weights: np.ndarray


class MdsClass(NamedTuple):
    """Classification of a t-vector on the tetrahedron.

    kind is one of BELL_VERTEX, BINARY_EDGE, GENERIC_INTERIOR, NON_STATE.
    For a vertex, `vertex` holds the Bell index. For an edge, `axis` is the
    coordinate with |t_axis| = 1, `case` is "A" (t_axis = +1) or "B"
    (t_axis = -1), and `edge_parameter` is the free coordinate t_{axis+1}
    (cyclic). `weights` always carries the Bell mixing weights of the input,
    and `verdict` the is_state verdict classify decided membership from.
    """

    kind: str
    weights: np.ndarray
    detail: str
    vertex: int | None = None
    axis: int | None = None
    case: str | None = None
    edge_parameter: float | None = None
    verdict: StateVerdict | None = None


class CanonicalForm(NamedTuple):
    """Local unitaries carrying a state onto its diagonal-correlation form.

    o1 and o2 are their Pauli adjoints, pauli_adjoint(u1) and pauli_adjoint(u2),
    formed once with the frame: every pull-back through it reads them. Only
    _canonical_form and State.frame make one, and no library function takes
    one, so (o1, o2) are the adjoints of (u1, u2) by construction.
    """

    u1: np.ndarray
    u2: np.ndarray
    t: np.ndarray
    residual: float
    o1: np.ndarray
    o2: np.ndarray


def _bell_index(k: int) -> int:
    """k as a Bell index, 0..3 (0 is the singlet); anything else is a ValueError."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Bell index must be in 0..3, got {k}")
    return int(k)


def bell_state(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bell state vector and projector for index k (0 is the singlet)."""
    k = _bell_index(k)
    return _BELL_VECTORS[k].copy(), _BELL_PROJECTORS[k].copy()


def bell_t_vector(k: int) -> np.ndarray:
    """t-vector of the k-th Bell projector: row k of BELL_SIGNS without its leading 1."""
    return BELL_SIGNS[_bell_index(k), 1:].copy()


def _shared_signs(support: list[int]) -> list[tuple[int, float]]:
    """(i, s) for each column i of BELL_SIGNS (0 always, s = 1) where all support rows hold s."""
    signs = BELL_SIGNS.tolist()
    rows = [signs[k] for k in support]
    return [(i, rows[0][i]) for i in range(4) if all(row[i] == rows[0][i] for row in rows)]


def t_from_weights(w: np.ndarray) -> np.ndarray:
    """Correlation vector of the Bell mixture with weights w: (1, t) = w @ BELL_SIGNS."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (4,):
        raise ValueError(f"expected 4 weights, got shape {w.shape}")
    w0, w1, w2, w3 = w.tolist()
    # w1, w2, w3 and then w0, on Python floats: this order fixes the rounding of every sampled t
    cols = BELL_SIGNS.T.tolist()[1:]
    return np.array([s1 * w1 + s2 * w2 + s3 * w3 + s0 * w0 for s0, s1, s2, s3 in cols])


def weights_from_t(t: np.ndarray) -> np.ndarray:
    """Bell mixing weights w = BELL_SIGNS @ (1, t) / 4 (negative entries mean non-state).

    A t with a nan or inf component is a ValueError that names it.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (3,):
        raise ValueError(f"expected a 3-component t-vector, got shape {t.shape}")
    t1, t2, t3 = t.tolist()  # python floats: the same IEEE arithmetic, without numpy scalars
    if not (math.isfinite(t1) and math.isfinite(t2) and math.isfinite(t3)):
        raise ValueError(f"t-vector {[t1, t2, t3]} has a non-finite component")
    signs = BELL_SIGNS.tolist()
    return np.array([(s0 + s1 * t1 + s2 * t2 + s3 * t3) / 4 for s0, s1, s2, s3 in signs])


def build_T(t: np.ndarray) -> np.ndarray:
    """The operator (1/4)(I x I + sum_i t_i sigma_i x sigma_i)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (3,):
        raise ValueError(f"expected a 3-component t-vector, got shape {t.shape}")
    return (_T_IDENTITY + t @ _T_SIGMAS).reshape(4, 4)


def state_test_rounding(w: list[float] | np.ndarray) -> float:
    """Rounding bound ROUNDING_TOL * max(1, sum_k |w_k|) of the four Bell weights w.

    The smallest weight and the smallest eigenvalue of build_T are the same
    number computed two ways, so they may differ by this much and no more.
    """
    a, b, c, d = (abs(float(x)) for x in w)  # left to right on Python floats: numpy's sum
    return ROUNDING_TOL * max(1.0, a + b + c + d)


def is_state(t: np.ndarray, tol: float = DEFAULT_TOL) -> StateVerdict:
    """Tetrahedron membership, at the density-matrix gate.

    ok needs two tests: all Bell weights >= -min(tol, STATE_VALIDATION_TOL),
    and the smallest eigenvalue of T = build_T(t) >= -STATE_VALIDATION_TOL,
    the eigenvalue test validate_density_matrix runs. T is exactly Hermitian
    with unit trace as built (its maps are real symmetric, and the identity
    row, added last, leaves no entry -0.0), so it is its own Hermitian part
    and passes the gate's other two tests: whatever tol, validate_density_matrix
    accepts T(t) for every t is_state admits. The bytes of an admitted T are the
    admission record, which only is_state writes, so validate_density_matrix(build_T(t))
    right after runs no test again and returns T's bytes. The two minima are the same
    number computed two ways, so InternalConsistencyError is raised when |min weight
    - min eigenvalue| exceeds state_test_rounding(w); the two landing on
    opposite sides of a cut is not an error.
    """
    global _last_accepted
    w = weights_from_t(t)
    weights = w.tolist()  # the scalar decisions on Python floats
    min_w = min(weights)
    arg = weights.index(min_w)
    T = build_T(t)
    # build_T is Hermitian by construction: no guard before the eigenvalues
    min_eig = float(_lapack("eigvalsh_lo", T)[0])
    if abs(min_w - min_eig) > state_test_rounding(weights):
        raise InternalConsistencyError(
            f"weight test ({min_w:.3e}) and eigenvalue test ({min_eig:.3e}) "
            f"disagree beyond rounding"
        )
    ok = min_w >= -min(tol, STATE_VALIDATION_TOL) and min_eig >= -STATE_VALIDATION_TOL
    if ok:
        _last_accepted = T.tobytes()
    return StateVerdict(
        ok=ok, min_weight=min_w, offending_index=arg, min_eigenvalue=min_eig, weights=w
    )


def _failed_test(verdict: StateVerdict, tol: float) -> tuple[str, float]:
    """The test that rejected a non-state verdict at tol, as (its reading, its cut).

    The weight test when it failed, else the eigenvalue test of T(t).
    """
    cut = min(tol, STATE_VALIDATION_TOL)
    if verdict.min_weight < -cut:
        return f"weight w{verdict.offending_index} = {verdict.min_weight:.12g}", cut
    return f"min eigenvalue of T(t) = {verdict.min_eigenvalue:.12g}", STATE_VALIDATION_TOL


_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def classify(
    t: np.ndarray, tol: float = DEFAULT_TOL, verdict: StateVerdict | None = None
) -> MdsClass:
    """Classify a t-vector as vertex, edge, interior, or non-state.

    Membership is `verdict`, which is is_state(t, tol) when the caller already
    has it; with None it is computed here. The Bell weights w are the
    verdict's. The stratum is the number of vanishing Bell weights, which
    rank_split decides on |w| of all but the smallest weight, descending, at cut tol.
    Three mean the Bell vertex of the surviving index; two a binary edge,
    case B when w0 survives, on the axis k in 1..3 that vanishes or survives
    with w0; fewer a generic point.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if verdict is None:
        verdict = is_state(t, tol)
    w = verdict.weights
    if not verdict.ok:
        reading, cut = _failed_test(verdict, tol)
        return MdsClass(kind=NON_STATE, weights=w, detail=f"{reading} < -{cut:g}", verdict=verdict)
    # the decision on Python floats; the stable sort names the weight the interior detail reports
    weights = w.tolist()
    rest = sorted(range(4), key=weights.__getitem__)[1:]
    order = sorted(rest, key=lambda k: abs(weights[k]), reverse=True)
    rank, gap = rank_split([abs(weights[k]) for k in order], tol)
    alive = sorted(order[:rank])
    if len(alive) not in (1, 2):
        return MdsClass(
            kind=GENERIC_INTERIOR,
            weights=w,
            detail=f"at most one weight vanishes: the second smallest, w{rest[0]} = "
            f"{weights[rest[0]]:.12g}, clears the cut {tol:g}",
            verdict=verdict,
        )
    cut = f"cut {tol:g}, rank gap {gap:.3e}"  # only the vertex and edge details read it
    if len(alive) == 1:
        return MdsClass(
            kind=BELL_VERTEX,
            weights=w,
            vertex=alive[0],
            detail=f"only w{alive[0]} survives the {cut}: Bell projector {alive[0]}",
            verdict=verdict,
        )
    _, (i, sign) = _shared_signs(alive)  # column 0, then the axis, where t_axis = sign
    case = "A" if sign > 0 else "B"
    j, _ = _CYCLIC[i]
    u = float(t[j - 1])
    return MdsClass(
        kind=BINARY_EDGE,
        weights=w,
        axis=i,
        case=case,
        edge_parameter=u,
        detail=f"w{alive[0]} and w{alive[1]} survive the {cut}: axis {i} "
        f"case {case}, free coordinate t{j} = {u:.12g}",
        verdict=verdict,
    )


def edge_mixture(cls: MdsClass) -> dict[int, float]:
    """Bell indices and weights of a binary-edge mixture.

    The support is the two rows of BELL_SIGNS holding t_axis (+1 in case A, -1 in case B)
    on the axis: case A mixes the two non-singlet states other than the axis, case B the
    axis state and the singlet. With t_j = u, row k weighs (1 + BELL_SIGNS[k, j] u) / 2.
    """
    if cls.kind != BINARY_EDGE:
        raise ValueError(f"edge_mixture expects a binary edge, got {cls.kind}")
    i = cls.axis
    j, _ = _CYCLIC[i]
    sign = 1.0 if cls.case == "A" else -1.0
    u = cls.edge_parameter
    return {k: (1 + row[j] * u) / 2 for k, row in enumerate(BELL_SIGNS.tolist()) if row[i] == sign}


# The admission record: the bytes of T(t) for the last t is_state admitted. is_state is
# its only writer; validate_density_matrix and operator_schmidt read it through _admitted.
_last_accepted: bytes | None = None


def _admitted(key: bytes) -> bool:
    """True when key is the bytes of T(t) for the last t is_state admitted."""
    return key == _last_accepted


def _require_unit_norm(phi: np.ndarray, rejection: str) -> None:
    """The gate on a pure vector: ValueError(rejection.format(|phi|^2)) unless |phi|^2 is 1."""
    norm2 = float(np.vdot(phi, phi).real)
    if not abs(norm2 - 1) <= STATE_VALIDATION_TOL:  # a nan |phi|^2 (a nan or inf entry) fails too
        raise ValueError(rejection.format(norm2))


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return the exact Hermitian part.

    Each test is within STATE_VALIDATION_TOL, the gate that admits a state.
    rho is a 4x4 matrix or a stack (..., 4, 4), checked in one pass per test:
    one Hermitian guard, one trace test and one batched eigvalsh. A failing
    member raises the message a single matrix would (a failed Hermitian
    guard names the largest deviation in the stack, a failed trace or
    eigenvalue test the first failing member). The result is
    (rho + rho^dagger)/2, which equals the input entry for entry when the
    input is exactly Hermitian. Callers hand it on to code that guards no
    further (see the linalg module notes).

    A single 4x4 input whose bytes are the admission record, T(t) for the
    last t is_state admitted, runs no test again and returns a copy of
    itself, which is what the full path would return. Validation reads the
    record and never writes it. Every call returns a new writable array.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    if rho.ndim == 2 and _admitted(rho.tobytes()):
        return rho.copy()
    rho = require_hermitian(rho, "density matrix", STATE_VALIDATION_TOL)
    rho = (rho + _dagger(rho)) / 2
    # python comparisons beat numpy reductions on one value per member
    for tr in rho.trace(axis1=-2, axis2=-1).real.reshape(-1).tolist():
        if abs(tr - 1) > STATE_VALIDATION_TOL:
            raise ValueError(f"density matrix trace is {tr:.12g}, expected 1")
    for min_eig in _lapack("eigvalsh_lo", rho)[..., 0].reshape(-1).tolist():
        if min_eig < -STATE_VALIDATION_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return rho


def _disorder(r: list[list[float]]) -> tuple[float, float]:
    """Operator norms of rho_1 - I/2 = (2 R_00 - 1/2) I + 2 R[1:, 0].sigma and of rho_2 - I/2.

    ||a I + b.sigma|| = |a| + |b|: no local unitary changes it, and it bounds every entry.
    r is R.tolist(), read on Python floats (an array R gives the same numbers).
    """
    (r00, r01, r02, r03), (r10, _, _, _), (r20, _, _, _), (r30, _, _, _) = r
    a = abs(2 * r00 - 0.5)
    return (
        a + 2 * math.sqrt(r10 * r10 + r20 * r20 + r30 * r30),
        a + 2 * math.sqrt(r01 * r01 + r02 * r02 + r03 * r03),
    )


def _is_mds(R: np.ndarray) -> bool:
    """Both reduced states of a validated state with Pauli coordinates R are I/2 within the gate."""
    return max(_disorder(R.tolist())) <= STATE_VALIDATION_TOL


def _su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Lift a rotation matrix to SU(2), choosing the lift with nonnegative trace.

    Shepperd's quaternion (J. Guidance & Control 1(3), 1978): k[a, b] = 4 q_a q_b
    for q = (w, x, y, z), so q is the row of k with the largest diagonal, normalised.
    The lift's trace is 2 w / |q|. k is built and its pivot picked on Python floats.
    _canonical_form holds the lift against r, on the adjoint it computes anyway.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    tr = r00 + r11 + r22
    x, y, z = r21 - r12, r02 - r20, r10 - r01
    k = (
        (1 + tr, x, y, z),
        (x, 2 * r00 + (1 - tr), r01 + r10, r02 + r20),
        (y, r10 + r01, 2 * r11 + (1 - tr), r12 + r21),
        (z, r20 + r02, r21 + r12, 2 * r22 + (1 - tr)),
    )
    # the first largest diagonal entry, as np.argmax picks it
    q = np.array(k[max(range(4), key=lambda a: k[a][a])])
    if q[0] < 0:
        q = -q
    # np.linalg.norm's own 2-norm of a real vector, without its wrapper
    return from_pauli(q / np.sqrt(q.dot(q)) * _QUATERNION_TO_PAULI)


def canonicalize(rho: np.ndarray) -> CanonicalForm:
    """Local unitaries (u1, u2) and t with (u1 x u2) rho (u1 x u2)^dagger = T(t).

    The correlation matrix R[1:, 1:] / R_00 (R = pauli_coordinates(rho)) is decomposed
    as A diag(t) B^T with both factors forced into SO(3) (flipping the sign of
    the last singular value when needed); the rotations transpose onto the
    state's two sides and lift to SU(2). The SVD's axis order is the canonical
    one: LAPACK returns the singular values descending and only t[2] can turn
    negative, so |t| is descending, ties broken by signed value descending.
    The local part L = (rho_1 - I/2) x I/2 + I/2 x (rho_2 - I/2) is carried
    along by every local unitary and never removed, so only a transport residual above
    RESIDUAL_TOL + ||L||_HS (_residual_bound) raises InternalConsistencyError.
    """
    return _canonicalize(pauli_coordinates(validate_density_matrix(rho)))


def _residual_bound(r: list[list[float]]) -> float:
    """RESIDUAL_TOL + ||L||_HS: the canonicalization residual bound of a state with coordinates R.

    L = (2 R_00 - 1/2) I x I + sum_k (R_k0 sigma_k x I + R_0k I x sigma_k), and
    each sigma_i x sigma_j has norm 2; for exactly disordered subsystems L = 0.
    r is R.tolist(), as _disorder reads it.
    """
    (r00, r01, r02, r03), (r10, _, _, _), (r20, _, _, _), (r30, _, _, _) = r
    a = 2 * r00 - 0.5
    local = a * a + r10 * r10 + r20 * r20 + r30 * r30 + r01 * r01 + r02 * r02 + r03 * r03
    return RESIDUAL_TOL + 2 * math.sqrt(local)


def _canonicalize(R: np.ndarray) -> CanonicalForm:
    """canonicalize on the Pauli coordinates R of a density matrix that passed the gate."""
    cf, bound = _canonical_form(R)
    if cf.residual > bound:
        raise InternalConsistencyError(
            f"canonicalization residual {cf.residual:.3e} exceeds {bound:.3e}, "
            f"{RESIDUAL_TOL:g} plus the local part"
        )
    return cf


def _canonical_form(R: np.ndarray) -> tuple[CanonicalForm, float]:
    """_canonicalize's form and residual bound, without testing one against the other."""
    r = R.tolist()
    disorder = _disorder(r)
    if not max(disorder) <= STATE_VALIDATION_TOL:
        raise ValueError(
            "canonicalize expects maximally disordered subsystems; reduced states deviate "
            "from I/2 by {:.3e} and {:.3e} in operator norm".format(*disorder)
        )
    # R_00 = Tr(rho)/4: t is read from rho / Tr(rho), so a trace off 1 cannot push a |t_i| past 1
    a, s, bt = _lapack("svd_f", R[1:, 1:] / r[0][0])
    # each factor is orthogonal, so its determinant is +-1 and the sign is never in doubt
    da, db = _det3(a.tolist()), _det3(bt.tolist())
    if da < 0:
        a[:, 2] = -a[:, 2]
    if db < 0:
        bt[2] = -bt[2]
    t = s.copy()
    if (da < 0) != (db < 0):
        t[2] = -t[2]
    u1 = _su2_from_rotation(a.T)
    u2 = _su2_from_rotation(bt)
    o1, o2 = pauli_adjoint(u1), pauli_adjoint(u2)
    # guard against a convention mismatch: conjugation must reproduce each rotation
    if max(np.abs(o1[1:, 1:] - a.T).max(), np.abs(o2[1:, 1:] - bt).max()) > RESIDUAL_TOL:
        raise InternalConsistencyError("SU(2) lift does not reproduce the rotation")
    # ||(u1 x u2) rho (u1 x u2)^dag - T(t)||_HS is 2 ||O1 R O2^T - diag(1, t)/4||_F,
    # taken as np.linalg.norm takes it, on the raveled difference, without its wrapper
    off = (o1 @ R @ o2.T).ravel()
    off[0] -= 0.25
    off[5::5] -= t / 4  # entries (1, 1), (2, 2), (3, 3)
    residual = 2 * np.sqrt(off.dot(off))
    cf = CanonicalForm(u1=u1, u2=u2, t=t, residual=float(residual), o1=o1, o2=o2)
    return cf, _residual_bound(r)


def _det3(m: list[list[float]]) -> float:
    """The determinant of a 3x3 matrix given as rows of Python floats: the triple product."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def random_interior_t(rng: np.random.Generator) -> np.ndarray:
    """t-vector with all four Bell weights >= 0.01 (rejection sampling of Dirichlet weights)."""
    while True:
        w = rng.dirichlet(np.ones(4))
        if w.min() >= 0.01:
            return t_from_weights(w)


def random_edge_t(
    rng: np.random.Generator, axis: int, case: str, parameter: float | None = None
) -> np.ndarray:
    """Open-edge t-vector on the given axis and case.

    The free parameter is sampled uniformly in (-0.95, 0.95) when not given.
    Case A fixes t_axis = +1 with the two free coordinates opposite; case B
    fixes t_axis = -1 with them equal.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"edge axis must be 1..3, got {axis}")
    if case not in ("A", "B"):
        raise ValueError(f"edge case must be 'A' or 'B', got {case!r}")
    u = parameter if parameter is not None else rng.uniform(-0.95, 0.95)
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
