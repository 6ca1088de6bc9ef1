"""One input state, resolved on first read.

A `State` is given exactly one of a density matrix, a pure vector or a
t-vector, and validates what it is given: no caller has to validate it
first. Every part the commands and the verify checks read (the validated
matrix, its Pauli coordinates, its canonical form, the stratum, the oracle
and closed-form twin spaces, and the seeded local move) is a property
computed on first read and kept, so each is computed at most once per
input and its first read is the time that stage costs. The state computes
every part itself, its frame included: no caller writes one.
The canonical form, the oracle twin spaces and the seeded local move read
the Pauli coordinates R (`coords`), so `rho` is converted once and read
again only by the checks that need the matrix itself. A local frame acts on
R as one pair of real 4x4 rotations, its Pauli adjoints: the canonical form
carries (o1, o2) and the move its pair, each formed once per unitary, and
every pull-back reads them. The move's two unitaries are one stacked draw,
one Ginibre sample and one QR for both.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import pauli_adjoint, pauli_coordinates, random_unitary
from .mds import (
    CanonicalForm,
    MdsClass,
    StateVerdict,
    _canonicalize,
    _failed_test,
    _is_mds,
    _require_unit_norm,
    build_T,
    classify,
    is_state,
    validate_density_matrix,
)
from .twins import TwinSpace, _twin_space, analytic_twins, pull_back


class State:
    """One input state, resolved once: each part is computed on first read and kept.

    The state is exactly one of `matrix`, a 4x4 matrix, `pure`, a vector, and
    `t`, a t-vector with `verdict` is_state(t, tol). `rho` is the density
    matrix every kernel reads, validated once: the matrix through the 1e-8
    gate, the vector through the gate on its squared norm and then its
    projector, and the t-vector through the tetrahedron and the gate's
    eigenvalue test, in is_state, which records T(t) so its validation runs
    no test again. A t is_state rejects raises the failed test's reading.
    `coords` are its Pauli coordinates and `canonical` its canonical form.
    `frame` is the canonical form (u1 x u2) rho (u1 x u2)^dag = T(frame.t):
    the identity frame for a t (its adjoints np.eye(4), pauli_adjoint(I) bit
    for bit), else `canonical`, or None when the subsystems are not maximally
    disordered. `cls` classifies frame.t, `space` is the oracle twin space of
    rho and `analytic` the closed-form one, pulled back onto rho through
    (frame.o1, frame.o2). `moved` is a seeded local move of R, and
    `moved_space` the oracle twin space of the moved state.
    """

    def __init__(
        self,
        tol: float,
        seed: int,
        matrix: np.ndarray | None = None,
        pure: np.ndarray | None = None,
        t: np.ndarray | None = None,
    ) -> None:
        self.tol = tol
        self.seed = seed
        self.matrix = matrix
        self.pure = pure
        self.t = t

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    @cached_property
    def verdict(self) -> StateVerdict | None:
        return None if self.t is None else is_state(self.t, self.tol)

    @cached_property
    def rho(self) -> np.ndarray:
        if self.matrix is not None:
            return validate_density_matrix(self.matrix)
        if self.pure is not None:
            _require_unit_norm(self.pure, "pure state vector has squared norm {:.12g}, expected 1")
            return validate_density_matrix(np.outer(self.pure, self.pure.conj()))
        if not self.verdict.ok:
            reading, _ = _failed_test(self.verdict, self.tol)
            raise ValueError(f"t-vector {self.t.tolist()} is outside the tetrahedron ({reading})")
        # is_state recorded T(t) when it admitted t: no test runs again
        return validate_density_matrix(build_T(self.t))

    @cached_property
    def coords(self) -> np.ndarray:
        return pauli_coordinates(self.rho)

    @cached_property
    def canonical(self) -> CanonicalForm:
        return _canonicalize(self.coords)

    @cached_property
    def frame(self) -> CanonicalForm | None:
        if self.t is not None:
            eye, adjoint = np.eye(2, dtype=complex), np.eye(4)
            return CanonicalForm(u1=eye, u2=eye, t=self.t, residual=0.0, o1=adjoint, o2=adjoint)
        return self.canonical if _is_mds(self.coords) else None

    @cached_property
    def cls(self) -> MdsClass | None:
        return None if self.frame is None else classify(self.frame.t, self.tol, self.verdict)

    @cached_property
    def space(self) -> TwinSpace:
        return _twin_space(self.coords, self.tol)

    @cached_property
    def analytic(self) -> TwinSpace | None:
        """analytic_twins(cls) pulled back onto rho; None off the vertex and edge strata."""
        closed = None if self.cls is None else analytic_twins(self.cls)
        return None if closed is None else pull_back(closed, self.frame.o1, self.frame.o2)

    @cached_property
    def moved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A seeded local move by (v1, v2): (O(v1), O(v2)) and the moved Pauli coordinates.

        O = pauli_adjoint of the unitaries v1, v2, drawn as one stack of two from rng()
        (bitwise two single draws); the coordinates of (v1 x v2) rho (v1 x v2)^dag are
        O(v1) R O(v2)^T, validated no further. Each adjoint is formed on its own: one
        product over the stack rounds differently. Shared by canonical-form-roundtrip
        and local-unitary-covariance.
        """
        v1, v2 = random_unitary(self.rng(), size=2)
        o1, o2 = pauli_adjoint(v1), pauli_adjoint(v2)
        return o1, o2, o1 @ self.coords @ o2.T

    @cached_property
    def moved_space(self) -> TwinSpace:
        return _twin_space(self.moved[2], self.tol)
