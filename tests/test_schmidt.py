import inspect

import numpy as np
import pytest

from twinscope import schmidt, state
from twinscope.linalg import (
    RankDecisionError,
    from_pauli,
    hs_inner,
    hs_norm,
    partial_trace,
    pauli,
    random_unitary,
    tensor,
)
from twinscope.mds import bell_state, build_T, classify, random_interior_t
from twinscope.schmidt import (
    correlation_operator,
    operator_schmidt,
    pure_schmidt,
    pure_twin_partner,
    pure_twin_partners,
    reconstruct,
)
from twinscope.state import State

KET_UP = np.array([1, 0], dtype=complex)
KET_DOWN = np.array([0, 1], dtype=complex)


def random_pure_state(rng):
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return phi / np.linalg.norm(phi)


def test_singlet_schmidt_coefficients():
    singlet, _ = bell_state(0)
    ps = pure_schmidt(singlet)
    assert np.allclose(ps.coefficients, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert ps.schmidt_rank == 2
    assert ps.degeneracy == (2,)


def test_product_state_has_rank_one():
    phi = np.kron(KET_UP, KET_DOWN)
    ps = pure_schmidt(phi)
    assert ps.schmidt_rank == 1
    assert np.allclose(ps.coefficients, [1.0])


def test_psi3_schmidt_coefficients():
    psi3, _ = bell_state(3)
    ps = pure_schmidt(psi3)
    assert np.allclose(ps.coefficients, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_pure_schmidt_rejects_unnormalized():
    with pytest.raises(ValueError):
        pure_schmidt(np.array([1, 1, 0, 0], dtype=complex))


def test_pure_schmidt_reconstruction_and_orthonormality():
    rng = np.random.default_rng(42)
    for _ in range(20):
        phi = random_pure_state(rng)
        ps = pure_schmidt(phi)
        rebuilt = ps.reconstruct()
        # global phase was fixed by the left-vector convention, so compare
        # up to a single phase
        overlap = np.vdot(rebuilt, phi)
        assert abs(abs(overlap) - 1) < 1e-10
        gram_l = ps.left_vectors.conj() @ ps.left_vectors.T
        gram_r = ps.right_vectors.conj() @ ps.right_vectors.T
        k = ps.schmidt_rank
        assert np.abs(gram_l - np.eye(k)).max() < 1e-10
        assert np.abs(gram_r - np.eye(k)).max() < 1e-10


def test_pure_schmidt_coefficients_match_reduced_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = random_pure_state(rng)
        ps = pure_schmidt(phi)
        rho1 = partial_trace(np.outer(phi, phi.conj()), 1)
        spectrum = np.sort(np.linalg.eigvalsh(rho1))[::-1]
        padded = np.zeros(2)
        padded[: ps.schmidt_rank] = ps.coefficients**2
        assert np.abs(padded - spectrum).max() < 1e-10


def test_singlet_correlation_operator_exact():
    singlet, _ = bell_state(0)
    ua = correlation_operator(pure_schmidt(singlet))
    assert ua.rank == 2 and not ua.partial
    assert np.abs(ua.apply(KET_UP) - KET_DOWN).max() < 1e-12
    assert np.abs(ua.apply(KET_DOWN) + KET_UP).max() < 1e-12


def test_psi3_correlation_operator_swaps():
    psi3, _ = bell_state(3)
    ua = correlation_operator(pure_schmidt(psi3))
    assert np.abs(ua.apply(KET_UP) - KET_DOWN).max() < 1e-12
    assert np.abs(ua.apply(KET_DOWN) - KET_UP).max() < 1e-12


def test_correlation_operator_is_antilinear():
    singlet, _ = bell_state(0)
    ua = correlation_operator(pure_schmidt(singlet))
    assert np.abs(ua.apply(1j * KET_UP) + 1j * ua.apply(KET_UP)).max() < 1e-12


def test_correlation_operator_applied_twice():
    # applying the map twice acts linearly as unitary_part @ conj(unitary_part);
    # for the singlet that is -I
    singlet, _ = bell_state(0)
    ua = correlation_operator(pure_schmidt(singlet))
    w = ua.unitary_part
    twice = w @ np.conj(w)
    assert np.abs(twice + np.eye(2)).max() < 1e-12
    for vec in (KET_UP, KET_DOWN, np.array([0.6, 0.8j])):
        assert np.abs(ua.apply(ua.apply(vec)) - twice @ vec).max() < 1e-12


def test_correlation_operator_unitary_when_full_rank():
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi = random_pure_state(rng)
        ps = pure_schmidt(phi)
        if ps.schmidt_rank < 2:
            continue
        w = correlation_operator(ps).unitary_part
        assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-10


def test_correlation_operator_flags_rank_deficiency():
    ps = pure_schmidt(np.kron(KET_UP, KET_DOWN))
    ua = correlation_operator(ps)
    assert ua.partial and ua.rank == 1


def test_correlation_operator_reconstructs_state():
    rng = np.random.default_rng(8)
    for _ in range(10):
        phi = random_pure_state(rng)
        ps = pure_schmidt(phi)
        ua = correlation_operator(ps)
        rebuilt = np.zeros(4, dtype=complex)
        for c, l in zip(ps.coefficients, ps.left_vectors):
            rebuilt += c * np.kron(l, ua.apply(l))
        assert abs(abs(np.vdot(rebuilt, phi)) - 1) < 1e-10


def test_singlet_twin_formula():
    # exact closed form of the second-subsystem twin on the singlet
    singlet, _ = bell_state(0)
    rng = np.random.default_rng(12)
    for _ in range(20):
        app, amm = rng.standard_normal(2)
        apm = rng.standard_normal() + 1j * rng.standard_normal()
        a1 = np.array([[app, apm], [np.conj(apm), amm]])
        a2 = pure_twin_partner(a1, singlet)
        expected = np.array([[amm, -apm], [-np.conj(apm), app]])
        assert np.abs(a2 - expected).max() < 1e-12


def test_identity_is_its_own_twin():
    rng = np.random.default_rng(21)
    for _ in range(5):
        phi = random_pure_state(rng)
        ps = pure_schmidt(phi)
        if ps.schmidt_rank < 2:
            continue
        a2 = pure_twin_partner(np.eye(2, dtype=complex), phi)
        assert np.abs(a2 - np.eye(2)).max() < 1e-10


def test_psi3_sigma3_twin_is_minus_sigma3():
    psi3, _ = bell_state(3)
    a2 = pure_twin_partner(pauli(3).copy(), psi3)
    assert np.abs(a2 + pauli(3)).max() < 1e-12


def test_pure_twin_partner_satisfies_twin_equation():
    rng = np.random.default_rng(33)
    for _ in range(25):
        phi = random_pure_state(rng)
        rho1 = partial_trace(np.outer(phi, phi.conj()), 1)
        w, v = np.linalg.eigh(rho1)
        # random observable commuting with rho1: diagonal in its eigenbasis
        d = rng.standard_normal(2)
        a1 = (v * d) @ v.conj().T
        a2 = pure_twin_partner(a1, phi)
        lhs = tensor(a1, np.eye(2)) @ phi
        rhs = tensor(np.eye(2), a2) @ phi
        assert np.abs(lhs - rhs).max() < 1e-10


def test_pure_twin_partner_rejects_noncommuting():
    phi = np.array([0.9, 0, 0, np.sqrt(1 - 0.81)], dtype=complex)
    with pytest.raises(ValueError, match="commute"):
        pure_twin_partner(pauli(1).copy(), phi)


@pytest.mark.parametrize("phi", [[np.nan, 0, 0, 0], [np.inf, 0, 0, 0]], ids=["nan", "inf"])
def test_pure_vector_gate_rejects_non_finite_vectors(phi):
    # a nan or inf entry makes |phi|^2 nan, which fails the one gate: no SVD error, no nan
    # coefficients, no numpy warning on the way
    phi = np.array(phi, dtype=complex)
    message = r"^pure_schmidt expects a normalized vector, \|phi\|\^2 = nan$"
    with pytest.raises(ValueError, match=message):
        pure_schmidt(phi)
    with pytest.raises(ValueError, match=message):
        pure_twin_partners(np.eye(2)[None], phi)
    with pytest.raises(ValueError, match=message):
        pure_twin_partner(np.eye(2), phi)
    with pytest.raises(ValueError, match=r"^pure state vector has squared norm nan, expected 1$"):
        State(1e-9, 0, pure=phi).rho
    # both callers test |phi|^2 through mds._require_unit_norm alone
    for module in (schmidt, state):
        assert "_require_unit_norm" in inspect.getsource(module)
        assert "vdot" not in inspect.getsource(module)


def test_pure_twin_partners_check_phi_before_the_commutator():
    # the transport's input is checked first, so an unnormalized phi is named as such
    with pytest.raises(ValueError, match=r"^pure_schmidt expects a normalized vector, \|phi\|\^2 = 4$"):
        pure_twin_partner(pauli(1).copy(), np.array([2, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match=r"^pure_schmidt expects a 4-vector, got shape \(3,\)$"):
        pure_twin_partner(pauli(1).copy(), np.array([1, 0, 0], dtype=complex))


def test_private_twin_partners_only_transport(monkeypatch):
    # verify's pure-state-commutant tests [a1, rho_1] itself: the kernel it calls does not
    singlet, _ = bell_state(0)
    stack = np.array([pauli(1), pauli(3)])
    monkeypatch.setattr(schmidt, "RESIDUAL_TOL", -1.0)
    expected = correlation_operator(pure_schmidt(singlet)).conjugate(stack)
    assert np.array_equal(schmidt._pure_twin_partners(stack, singlet), expected)
    with pytest.raises(ValueError, match="commute"):
        pure_twin_partners(stack, singlet)


def test_operator_schmidt_edge_state_coefficients():
    rho = build_T(np.array([0.4, -0.4, 1.0]))
    os_ = operator_schmidt(rho)
    expected = np.array([1.0, 1.0, 0.4, 0.4]) / np.sqrt(2.32)
    assert np.abs(os_.coefficients - expected).max() < 1e-12
    assert os_.schmidt_rank == 4


def test_operator_schmidt_maximally_mixed_is_rank_one():
    os_ = operator_schmidt(np.eye(4, dtype=complex) / 4)
    assert os_.schmidt_rank == 1
    assert np.allclose(os_.coefficients, [1.0])


def test_operator_schmidt_singlet_projector():
    _, proj = bell_state(0)
    os_ = operator_schmidt(proj)
    assert np.allclose(os_.coefficients, [0.5, 0.5, 0.5, 0.5])
    assert os_.schmidt_rank == 4
    assert os_.degeneracy == (4,)


def test_operator_schmidt_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        operator_schmidt(np.zeros((4, 4)))


def test_operator_schmidt_bases_orthonormal_and_reconstruct():
    rng = np.random.default_rng(55)
    for _ in range(10):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        os_ = operator_schmidt(rho)
        k = os_.schmidt_rank
        for i in range(k):
            for j in range(k):
                li = hs_inner(os_.left_ops[i], os_.left_ops[j])
                ri = hs_inner(os_.right_ops[i], os_.right_ops[j])
                assert abs(li - (i == j)) < 1e-10
                assert abs(ri - (i == j)) < 1e-10
        assert abs(np.sum(os_.coefficients**2) - 1) < 1e-10
        rebuilt = reconstruct(os_, hs_norm(rho))
        assert np.abs(rebuilt - rho).max() < 1e-10


def test_operator_schmidt_coefficients_for_tetrahedron_points():
    rng = np.random.default_rng(77)
    for _ in range(20):
        t = random_interior_t(rng)
        os_ = operator_schmidt(build_T(t))
        expected = np.sort(np.concatenate([[1.0], np.abs(t)]))[::-1]
        expected /= np.sqrt(1 + np.sum(t**2))
        padded = np.zeros(4)
        padded[: os_.schmidt_rank] = os_.coefficients
        assert np.abs(padded - expected).max() < 1e-10


def test_operator_schmidt_ops_computed_once_and_read_only():
    os_ = operator_schmidt(build_T(np.array([0.4, -0.4, 1.0])))
    assert not os_.rows.flags.writeable
    assert os_.left_ops is os_.left_ops and os_.right_ops is os_.right_ops
    assert not os_.left_ops.flags.writeable and not os_.right_ops.flags.writeable
    lifted = from_pauli(os_.rows) / np.sqrt(2)
    assert np.array_equal(os_.left_ops, lifted[0]) and np.array_equal(os_.right_ops, lifted[1])


def test_operator_schmidt_lifts_no_operator_until_read(monkeypatch):
    lifts = []
    lift = schmidt.from_pauli
    monkeypatch.setattr(schmidt, "from_pauli", lambda c: lifts.append(c) or lift(c))
    for t in ([0.4, -0.4, 1.0], [0.3, -0.2, 0.1], [-1.0, -1.0, -1.0]):
        # the sweep's reads: classify, then the spectrum of T(t)
        t = np.array(t)
        classify(t)
        os_ = operator_schmidt(build_T(t))
        assert os_.coefficients.size == os_.schmidt_rank
        assert lifts == []
    os_.left_ops, os_.right_ops
    assert len(lifts) == 1


def test_operator_schmidt_invariant_under_local_unitaries():
    rng = np.random.default_rng(99)
    for _ in range(10):
        t = random_interior_t(rng)
        rho = build_T(t)
        u = tensor(random_unitary(rng), random_unitary(rng))
        rho_rot = u @ rho @ u.conj().T
        c1 = operator_schmidt(rho).coefficients
        c2 = operator_schmidt(rho_rot).coefficients
        assert np.abs(c1 - c2).max() < 1e-10


def test_operator_schmidt_bases_are_paulis_for_distinct_t():
    t = np.array([0.8, -0.5, 0.2])
    os_ = operator_schmidt(build_T(t))
    # descending coefficient order: identity, then axes by |t|
    axis_order = [0, 1, 2, 3]
    expected_axes = [0] + [axis_order[i] for i in (1, 2, 3)]
    order = [0] + list(1 + np.argsort(-np.abs(t)))
    half = [pauli(i) / np.sqrt(2) for i in range(4)]
    for k, ax in enumerate(order):
        left = os_.left_ops[k]
        sign = np.sign(hs_inner(half[ax], left).real)
        assert np.abs(left - sign * half[ax]).max() < 1e-10
        right = os_.right_ops[k]
        t_sign = 1.0 if ax == 0 else np.sign(t[ax - 1])
        assert np.abs(right - sign * t_sign * half[ax]).max() < 1e-10


def test_reconstruct_centroid():
    os_ = operator_schmidt(np.eye(4, dtype=complex) / 4)
    rebuilt = reconstruct(os_, hs_norm(np.eye(4) / 4))
    assert np.abs(rebuilt - np.eye(4) / 4).max() < 1e-12


def test_schmidt_ranks_share_the_guard_band():
    # a coefficient 3e-10 below the largest sits inside the band around 1e-9
    with pytest.raises(RankDecisionError):
        operator_schmidt(build_T(np.array([0.5, 0.3, 1.2e-9])))
    with pytest.raises(RankDecisionError):
        pure_schmidt(np.array([1.0, 0.0, 0.0, 3e-10]) / np.sqrt(1 + 9e-20))
    assert operator_schmidt(build_T(np.array([0.5, 0.3, 0.0]))).schmidt_rank == 3
    assert pure_schmidt(np.array([1.0, 0.0, 0.0, 0.0])).schmidt_rank == 1


def test_operator_coefficients_of_a_pure_state_are_products_of_its_coefficients():
    # the two levels meet: the operator Schmidt coefficients of |phi><phi| are the
    # products c_i c_j of phi's Schmidt coefficients, sorted
    rng = np.random.default_rng(2001)
    worst = 0.0
    for _ in range(500):
        phi = random_pure_state(rng)
        c = pure_schmidt(phi).coefficients
        os_ = operator_schmidt(np.outer(phi, phi.conj()))
        expected = np.sort(np.outer(c, c).reshape(-1))[::-1]
        assert os_.schmidt_rank == expected.size == 4
        worst = max(worst, np.abs(os_.coefficients - expected).max())
    assert worst <= 1e-14
    a, b = random_pure_state(rng).reshape(2, 2)
    product = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    assert pure_schmidt(product).schmidt_rank == 1
    os_ = operator_schmidt(np.outer(product, product.conj()))
    assert os_.schmidt_rank == 1 and abs(os_.coefficients[0] - 1) <= 1e-14
    singlet, projector = bell_state(0)
    os_ = operator_schmidt(projector)
    assert os_.degeneracy == (4,) and np.abs(os_.coefficients - 0.5).max() <= 1e-14
