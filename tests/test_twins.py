import numpy as np
import pytest

from twinscope.linalg import (
    partial_trace,
    pauli,
    random_hermitian,
    random_unitary,
    tensor,
)
from twinscope.mds import (
    NON_STATE,
    bell_state,
    bell_t_vector,
    build_T,
    classify,
    random_edge_t,
    random_interior_t,
    t_from_weights,
)
from twinscope.schmidt import pure_twin_partner
from twinscope.twins import (
    ObservablePair,
    analytic_edge_twins,
    analytic_twins,
    analytic_vertex_twins,
    bell_twin_partner,
    biorthogonal_separable_forms,
    contains_pair,
    distant_correlation,
    is_twin_pair,
    pair_from_parameters,
    pair_parameters,
    ppt_separable,
    simultaneous_twins,
    subspace_residual,
    twin_space,
)

EDGE_A = build_T(np.array([0.4, -0.4, 1.0]))
EDGE_B = build_T(np.array([0.6, 0.6, -1.0]))


def herm_pair(a1, a2):
    return ObservablePair(a1=np.asarray(a1, dtype=complex), a2=np.asarray(a2, dtype=complex))


def test_is_twin_pair_edge_examples():
    ok, res = is_twin_pair(herm_pair(pauli(3), pauli(3)), EDGE_A)
    assert ok and res <= 1e-12
    ok, res = is_twin_pair(herm_pair(pauli(3), -pauli(3)), EDGE_B)
    assert ok and res <= 1e-12
    ok, res = is_twin_pair(herm_pair(pauli(1), pauli(1)), EDGE_A)
    assert not ok and res > 0.1


def test_is_twin_pair_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        is_twin_pair(ObservablePair(a1=bad, a2=bad), EDGE_A)


def test_trivial_pair_is_always_a_twin():
    rng = np.random.default_rng(1)
    pair = herm_pair(np.eye(2), np.eye(2))
    for _ in range(10):
        rho = build_T(random_interior_t(rng))
        ok, res = is_twin_pair(pair, rho)
        assert ok and res <= 1e-12


def test_twin_space_dimensions_by_stratum():
    for k in range(4):
        assert twin_space(bell_state(k)[1]).dimension == 4
    assert twin_space(EDGE_A).dimension == 2
    assert twin_space(EDGE_B).dimension == 2
    assert twin_space(build_T(np.array([0.2, 0.1, -0.05]))).dimension == 1


def test_twin_space_pins_trivial_pair_first():
    space = twin_space(EDGE_A)
    first = space.basis[0]
    assert np.abs(first.a1 - np.eye(2) / 2).max() < 1e-12
    assert np.abs(first.a2 - np.eye(2) / 2).max() < 1e-12
    assert space.has_nontrivial


def test_twin_space_interior_is_trivial_only():
    rng = np.random.default_rng(3)
    for _ in range(20):
        space = twin_space(build_T(random_interior_t(rng)))
        assert space.dimension == 1
        assert not space.has_nontrivial


def test_twin_space_basis_orthonormal_combined_inner_product():
    space = twin_space(bell_state(0)[1])
    for i, p in enumerate(space.basis):
        for j, q in enumerate(space.basis):
            val = (
                np.trace(p.a1.conj().T @ q.a1).real
                + np.trace(p.a2.conj().T @ q.a2).real
            )
            assert abs(val - (i == j)) < 1e-10


def test_twin_space_elements_satisfy_condition():
    rng = np.random.default_rng(5)
    states = [bell_state(2)[1], EDGE_A, EDGE_B, build_T(random_interior_t(rng))]
    for rho in states:
        space = twin_space(rho)
        assert space.singular_value_gap >= 1e6
        for pair in space.basis:
            ok, res = is_twin_pair(pair, rho)
            assert ok, f"residual {res}"


def test_edge_twin_space_content_case_a():
    space = twin_space(EDGE_A)
    analytic = analytic_edge_twins(classify(np.array([0.4, -0.4, 1.0])))
    assert subspace_residual(space, analytic) <= 1e-9
    wrong_sign = herm_pair(pauli(3) / 2, -pauli(3) / 2)
    assert contains_pair(space, wrong_sign) > 0.5


def test_edge_twin_space_content_case_b():
    space = twin_space(EDGE_B)
    analytic = analytic_edge_twins(classify(np.array([0.6, 0.6, -1.0])))
    assert subspace_residual(space, analytic) <= 1e-9
    wrong_sign = herm_pair(pauli(3) / 2, pauli(3) / 2)
    assert contains_pair(space, wrong_sign) > 0.5


def test_analytic_edge_twins_all_axes():
    rng = np.random.default_rng(7)
    for axis in (1, 2, 3):
        for case, sign in (("A", 1.0), ("B", -1.0)):
            t = random_edge_t(rng, axis, case)
            cls = classify(t)
            analytic = analytic_edge_twins(cls)
            nontrivial = analytic.basis[1]
            assert np.abs(nontrivial.a1 - pauli(axis) / 2).max() < 1e-12
            assert np.abs(nontrivial.a2 - sign * pauli(axis) / 2).max() < 1e-12
            assert subspace_residual(analytic, twin_space(build_T(t))) <= 1e-9


def test_analytic_edge_twins_rejects_non_edge():
    with pytest.raises(ValueError):
        analytic_edge_twins(classify(np.array([0.0, 0.0, 0.0])))


def test_analytic_twins_dispatch():
    rng = np.random.default_rng(11)
    for k in range(4):
        space = analytic_twins(classify(bell_t_vector(k)))
        assert space.dimension == 4
        assert subspace_residual(space, analytic_vertex_twins(k)) <= 1e-12
    for axis in (1, 2, 3):
        for case in ("A", "B"):
            assert analytic_twins(classify(random_edge_t(rng, axis, case))).dimension == 2
    assert analytic_twins(classify(random_interior_t(rng))) is None
    for t in ([1.0, 1.0, 1.0], [0.0, 0.0, 1.5]):
        cls = classify(np.array(t))
        assert cls.kind == NON_STATE
        assert analytic_twins(cls) is None


def test_bell_twin_partner_sign_table():
    rng = np.random.default_rng(9)
    expected_signs = {0: (-1, -1, -1), 1: (-1, 1, 1), 2: (1, -1, 1), 3: (1, 1, -1)}
    for k in range(4):
        for _ in range(10):
            coeff = rng.standard_normal(4)
            a1 = sum(coeff[i] * pauli(i) for i in range(4))
            a2 = bell_twin_partner(k, a1)
            expected = coeff[0] * pauli(0)
            for i, s in zip((1, 2, 3), expected_signs[k]):
                expected = expected + s * coeff[i] * pauli(i)
            assert np.abs(a2 - expected).max() < 1e-12
            ok, res = is_twin_pair(herm_pair(a1, a2), bell_state(k)[1])
            assert ok and res <= 1e-10


def test_bell_twin_partner_identity():
    for k in range(4):
        assert np.abs(bell_twin_partner(k, np.eye(2)) - np.eye(2)).max() < 1e-15


def test_bell_twin_partner_sigma1_on_t1():
    assert np.abs(bell_twin_partner(1, pauli(1)) + pauli(1)).max() < 1e-15


def test_bell_twin_partner_matches_pure_route():
    # the sign table and the correlation-operator transport must agree
    rng = np.random.default_rng(11)
    for k in range(4):
        vec, _ = bell_state(k)
        for _ in range(5):
            a1 = random_hermitian(rng)
            via_table = bell_twin_partner(k, a1)
            via_transport = pure_twin_partner(a1, vec)
            assert np.abs(via_table - via_transport).max() < 1e-10


def test_analytic_vertex_twins_span_oracle():
    for k in range(4):
        oracle = twin_space(bell_state(k)[1])
        analytic = analytic_vertex_twins(k)
        assert analytic.dimension == 4
        assert subspace_residual(oracle, analytic) <= 1e-9


def test_simultaneous_twins_pairs():
    t1 = bell_state(1)[1]
    t2 = bell_state(2)[1]
    space = simultaneous_twins([t1, t2])
    assert space.dimension == 2
    assert contains_pair(space, herm_pair(pauli(3) / 2, pauli(3) / 2)) <= 1e-9
    t0 = bell_state(0)[1]
    t3 = bell_state(3)[1]
    space = simultaneous_twins([t0, t3])
    assert space.dimension == 2
    assert contains_pair(space, herm_pair(pauli(3) / 2, -pauli(3) / 2)) <= 1e-9


def test_simultaneous_twins_all_four_is_trivial():
    states = [bell_state(k)[1] for k in range(4)]
    space = simultaneous_twins(states)
    assert space.dimension == 1
    assert not space.has_nontrivial


def test_simultaneous_twins_equals_mixture_space():
    rng = np.random.default_rng(13)
    for support_size in (2, 3, 4):
        for _ in range(8):
            support = rng.choice(4, size=support_size, replace=False)
            w = np.zeros(4)
            w[support] = rng.dirichlet(np.ones(support_size)) * 0.96 + 0.01
            w /= w.sum()
            mixture = build_T(t_from_weights(w))
            via_mixture = twin_space(mixture)
            via_intersection = simultaneous_twins([bell_state(k)[1] for k in support])
            assert via_mixture.dimension == via_intersection.dimension
            assert subspace_residual(via_mixture, via_intersection) <= 1e-9


def test_twin_space_local_unitary_covariance():
    rng = np.random.default_rng(15)
    for _ in range(10):
        t = random_edge_t(rng, int(rng.integers(1, 4)), rng.choice(["A", "B"]))
        rho = build_T(t)
        space = twin_space(rho)
        u1 = random_unitary(rng)
        u2 = random_unitary(rng)
        rho_rot = tensor(u1, u2) @ rho @ tensor(u1, u2).conj().T
        rotated_space = twin_space(rho_rot)
        assert rotated_space.dimension == space.dimension
        for pair in space.basis:
            moved = herm_pair(u1 @ pair.a1 @ u1.conj().T, u2 @ pair.a2 @ u2.conj().T)
            ok, res = is_twin_pair(moved, rho_rot)
            assert ok, f"residual {res}"
            assert contains_pair(rotated_space, moved) <= 1e-9


def test_faces_and_interior_have_trivial_twin_space():
    # support-3 mixtures (open faces) behave like the interior
    rng = np.random.default_rng(16)
    for _ in range(10):
        support = rng.choice(4, size=3, replace=False)
        w = np.zeros(4)
        w[support] = rng.dirichlet(np.ones(3)) * 0.9 + 1 / 30
        w /= w.sum()
        space = twin_space(build_T(t_from_weights(w)))
        assert space.dimension == 1
        assert not space.has_nontrivial


def test_pure_state_twins_live_in_oracle_space():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= np.linalg.norm(phi)
        rho = np.outer(phi, phi.conj())
        rho1 = partial_trace(rho, 1)
        w, v = np.linalg.eigh(rho1)
        if w.min() < 1e-3:
            continue
        d = rng.standard_normal(2)
        a1 = (v * d) @ v.conj().T
        a2 = pure_twin_partner(a1, phi)
        space = twin_space(rho)
        assert contains_pair(space, herm_pair(a1, a2)) <= 1e-9
        # conversely each oracle pair's first observable commutes with rho1
        for pair in space.basis:
            comm = pair.a1 @ rho1 - rho1 @ pair.a1
            assert np.abs(comm).max() <= 1e-9
        checked += 1


def test_ppt_separable_verdicts():
    sep, min_eig = ppt_separable(build_T(np.array([0.0, 0.0, 1.0])))
    assert sep
    sep, min_eig = ppt_separable(bell_state(0)[1])
    assert not sep
    assert abs(min_eig + 0.5) < 1e-10
    sep, _ = ppt_separable(EDGE_A)
    assert not sep


def test_ppt_all_bell_projectors_entangled():
    for k in range(4):
        sep, min_eig = ppt_separable(bell_state(k)[1])
        assert not sep
        assert abs(min_eig + 0.5) < 1e-10


def test_ppt_all_edge_midpoints_separable():
    for axis in (1, 2, 3):
        for sign in (1.0, -1.0):
            t = np.zeros(3)
            t[axis - 1] = sign
            sep, _ = ppt_separable(build_T(t))
            assert sep


def test_biorthogonal_separable_forms():
    forms = biorthogonal_separable_forms()
    assert len(forms) == 2
    t1 = bell_state(1)[1]
    t2 = bell_state(2)[1]
    t3 = bell_state(3)[1]
    t0 = bell_state(0)[1]
    assert np.abs(forms[0]["bell_form"] - (t1 + t2) / 2).max() < 1e-12
    assert np.abs(forms[1]["bell_form"] - (t0 + t3) / 2).max() < 1e-12
    for entry in forms:
        assert np.abs(entry["product_form"] - entry["bell_form"]).max() < 1e-12
        assert np.abs(build_T(entry["t"]) - entry["bell_form"]).max() < 1e-12
        sep, _ = ppt_separable(entry["product_form"])
        assert sep


def test_distant_correlation_twins_match_perfectly():
    report = distant_correlation(herm_pair(pauli(3), pauli(3)), EDGE_A)
    assert not report.degenerate
    assert report.mismatch_probability <= 1e-10
    assert report.expectation_gap <= 1e-10
    report = distant_correlation(herm_pair(pauli(3), -pauli(3)), EDGE_B)
    assert report.mismatch_probability <= 1e-10


def test_distant_correlation_non_twin_control():
    report = distant_correlation(herm_pair(pauli(1), pauli(1)), EDGE_A)
    assert abs(report.mismatch_probability - 0.3) < 1e-10
    assert abs(report.joint_distribution.sum() - 1) < 1e-10


def test_distant_correlation_degenerate_flagged():
    report = distant_correlation(herm_pair(np.eye(2), np.eye(2)), EDGE_A)
    assert report.degenerate
    assert report.mismatch_probability == 0.0


def test_twin_pairs_have_equal_spectra_on_edges():
    rng = np.random.default_rng(19)
    for axis in (1, 2, 3):
        for case in ("A", "B"):
            t = random_edge_t(rng, axis, case)
            space = twin_space(build_T(t))
            for pair in space.basis[1:]:
                s1 = np.sort(np.linalg.eigvalsh(pair.a1))
                s2 = np.sort(np.linalg.eigvalsh(pair.a2))
                assert np.abs(s1 - s2).max() <= 1e-9


def test_pair_parameter_roundtrip():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(8)
    pair = pair_from_parameters(x)
    assert np.abs(pair_parameters(pair) - x).max() < 1e-12


def test_trivial_pair_kept_near_edge():
    # the smallest kept singular value is ~1.5e-8 of the largest, so the
    # computed nullspace tilts by more than a fixed 1e-9 from the exact one
    t = np.array([-0.4120694927964107, -0.4120694981014408, -0.9999999711535859])
    space = twin_space(build_T(t))
    assert space.dimension == 1
    assert not space.has_nontrivial
