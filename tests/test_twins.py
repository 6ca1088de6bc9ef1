import ast

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import local_move, package_trees
from twinscope import linalg, mds, twins
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
from twinscope.schmidt import (
    correlation_operator,
    operator_schmidt,
    pure_schmidt,
    pure_twin_partner,
    pure_twin_partners,
)
from twinscope.twins import (
    CorrelationReport,
    InternalConsistencyError,
    ObservablePair,
    analytic_edge_twins,
    analytic_twins,
    analytic_vertex_twins,
    bell_twin_partner,
    biorthogonal_separable_forms,
    contains_pair,
    correlation_tables,
    distant_correlation,
    is_twin_pair,
    pair_parameters,
    ppt_separable,
    pull_back,
    simultaneous_twins,
    span_distances,
    subspace_residual,
    twin_residuals,
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


def test_twin_condition_map_matches_einsum_definition():
    eye = np.eye(2)
    # column k < 4 is (sigma_k x I) rho, column 4 + k is -(I x sigma_k) rho
    ops = [tensor(pauli(k), eye) for k in range(4)] + [-tensor(eye, pauli(k)) for k in range(4)]
    rng = np.random.default_rng(43)
    states = [EDGE_A, EDGE_B, bell_state(0)[1]]
    for _ in range(100):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        states.append(local_move(build_T(random_interior_t(rng)), u1, u2))
    eps = np.finfo(float).eps
    for rho in states:
        g = np.einsum("kac,cb->kab", np.array(ops), rho).reshape(8, 16)
        direct = np.concatenate([g.real, g.imag], axis=1).T
        system = twins.twin_condition_matrix(linalg.pauli_coordinates(rho))
        assert np.abs(system - direct).max() <= 4 * eps
    # the map reads R: exactly rational entries, so an exact R gives an exact system
    assert set(np.unique(twins._TWIN_CONDITION_MAP).tolist()) == {-1.0, 0.0, 1.0}
    assert twins._TWIN_CONDITION_MAP.shape == (256, 16)
    assert not twins._TWIN_CONDITION_MAP.flags.writeable


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


def test_twin_system_sends_the_trivial_direction_to_zero():
    # s_4 = -s_0 = -(I x I): columns 0 and 4 are exact negatives for any real R or stack of R
    rng = np.random.default_rng(53)
    for n in (1, 1, 2, 3, 4) * 20:
        R = rng.standard_normal((n, 4, 4))
        system = twins.twin_condition_matrix(R if n > 1 else R[0])
        assert system.shape == (32 * n, 8)
        assert np.array_equal(system[:, 0], -system[:, 4])


def random_density_matrix(rng, rank):
    vecs = rng.standard_normal((rank, 4)) + 1j * rng.standard_normal((rank, 4))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    weights = rng.dirichlet(np.ones(rank))
    return np.einsum("k,ka,kb->ab", weights, vecs, vecs.conj())


def oracle_spaces(rng):
    """Oracle spaces of seeded generic, scrambled vertex and edge states, and of stacks."""
    for rank in (1, 2, 3, 4):
        for _ in range(5):
            yield twin_space(random_density_matrix(rng, rank))
    for k in range(4):
        yield twin_space(local_move(bell_state(k)[1], random_unitary(rng), random_unitary(rng)))
    for axis, case in ((1, "A"), (2, "B"), (3, "A"), (3, "B")):
        rho = build_T(random_edge_t(rng, axis, case))
        yield twin_space(local_move(rho, random_unitary(rng), random_unitary(rng)))
    for support in ([0], [0, 1], [1, 2, 3], [2, 3]):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        yield simultaneous_twins(np.array([local_move(bell_state(k)[1], u1, u2) for k in support]))


def test_oracle_rows_hold_the_trivial_pair_first_by_construction():
    # bit for bit the closed forms' first row, (1/2, 0, 0, 0 | 1/2, 0, 0, 0)
    trivial = analytic_vertex_twins(0).rows[0]
    dimensions = set()
    for space in oracle_spaces(np.random.default_rng(59)):
        rows = space.rows
        dimensions.add(space.dimension)
        assert np.array_equal(rows[0], trivial)
        assert np.array_equal(rows[1:, 0], -rows[1:, 4])
        assert np.abs(rows @ rows.T - np.eye(space.dimension) / 2).max() <= 1e-15
    assert dimensions == {1, 2, 4}


def test_twin_space_interior_is_trivial_only():
    rng, moves = np.random.default_rng(3), np.random.default_rng(61)
    for _ in range(20):
        rho = build_T(random_interior_t(rng))
        scrambled = local_move(rho, random_unitary(moves), random_unitary(moves))
        for space in (twin_space(rho), twin_space(scrambled)):
            assert space.dimension == 1
            assert not space.has_nontrivial
            # no singular value of the system on the complement vanishes: none is dropped
            assert space.singular_value_gap == np.inf


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


def test_sweep_path_decomposes_no_eigenvectors(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        return wrapper

    # the numpy kernel beneath the seam's eigh_lo and np.linalg.eigh
    kernel = _umath_linalg.eigh_lo
    monkeypatch.setattr(_umath_linalg, "eigh_lo", counted(kernel))
    for t in (bell_t_vector(2), np.array([0.4, -0.4, 1.0]), np.array([0.2, 0.1, -0.05])):
        classify(t)
        rho = build_T(t)
        twin_space(rho)
        ppt_separable(rho)
        operator_schmidt(rho)
    assert calls == []
    # the counter does see a caller that reads eigenvectors
    linalg._lapack("eigh_lo", rho)
    assert kernel in calls


def test_oracle_computes_singular_vectors_only_where_a_nullspace_exists(monkeypatch):
    calls = []
    for kernel in ("svd", "svd_s"):
        fn = getattr(_umath_linalg, kernel)
        monkeypatch.setattr(_umath_linalg, kernel, lambda m, fn=fn, k=kernel: calls.append(k) or fn(m))
    # the interior system has full column rank: its singular values alone show it; a vertex's
    # and an edge's are rank deficient, so their values are read once more with the vectors
    for t, want in (
        (np.array([0.2, 0.1, -0.05]), ["svd"]),
        (bell_t_vector(2), ["svd", "svd_s"]),
        (np.array([0.4, -0.4, 1.0]), ["svd", "svd_s"]),
    ):
        rho = build_T(t)
        calls.clear()
        twin_space(rho)
        assert calls == want


def test_sweep_path_checks_hermiticity_never(guard_callers):
    calls = guard_callers
    for t in (bell_t_vector(2), np.array([0.4, -0.4, 1.0]), np.array([0.2, 0.1, -0.05])):
        calls.clear()
        classify(t)
        rho = build_T(t)
        twin_space(rho)
        ppt_separable(rho)
        operator_schmidt(rho)
        # is_state, inside classify, admits t and records T(t), Hermitian as built: the
        # validations in twin_space and ppt_separable and operator_schmidt's guard find it
        # there; the partial transpose of a validated state is Hermitian as built
        assert len(calls) == 0
    # the counter does see a guard: a Hermitian operator no gate admitted
    operator_schmidt(np.kron(pauli(1), pauli(1)))
    assert len(calls) == 1


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
    pair = ObservablePair(a1=linalg.from_pauli(x[:4]), a2=linalg.from_pauli(x[4:]))
    assert np.abs(pair_parameters(pair) - x).max() < 1e-12


def test_pair_parameters_of_stacks_are_the_single_rows_stacked():
    rng = np.random.default_rng(24)
    a1, a2 = linalg.random_hermitian(rng, size=6), linalg.random_hermitian(rng, size=6)
    rows = pair_parameters(ObservablePair(a1, a2))
    single = np.array([pair_parameters(ObservablePair(x, y)) for x, y in zip(a1, a2)])
    assert rows.shape == (6, 8)
    assert np.array_equal(rows, single)


def test_pair_rows_are_joined_in_one_place():
    # a pair's row is a1's Pauli components, then a2's: only pair_parameters joins the halves
    joins = []
    for name, tree in package_trees().items():
        # innermost enclosing function of each node: ast.walk reaches outer functions first
        owner = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        joins += [
            f"{name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.concatenate", "np.hstack")
            and "to_pauli(" in ast.unparse(node.args[0])
        ]
    assert joins == ["twins.py:pair_parameters"]


def test_trivial_pair_kept_near_edge():
    # the smallest kept singular value is ~1.5e-8 of the largest: the trivial
    # pair stays first by construction, and no pair near it is taken for a twin
    t = np.array([-0.4120694927964107, -0.4120694981014408, -0.9999999711535859])
    space = twin_space(build_T(t))
    assert space.dimension == 1
    assert not space.has_nontrivial


# The former QR route, kept as the reference for the row projections.
def reference_rows(space):
    rows = np.array([pair_parameters(p) for p in space.basis])
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def reference_subspace_residual(a, b):
    ra, rb = reference_rows(a), reference_rows(b)
    qa, _ = np.linalg.qr(ra.T)
    qb, _ = np.linalg.qr(rb.T)
    res_ab = np.linalg.norm(ra.T - qb @ (qb.T @ ra.T), axis=0).max()
    res_ba = np.linalg.norm(rb.T - qa @ (qa.T @ rb.T), axis=0).max()
    return float(max(res_ab, res_ba))


def reference_contains_pair(space, pair):
    x = pair_parameters(pair)
    n = np.linalg.norm(x)
    if n == 0:
        return 0.0
    x = x / n
    q, _ = np.linalg.qr(reference_rows(space).T)
    return float(np.linalg.norm(x - q @ (q.T @ x)))


def assert_rows_at_pair_scale(space):
    rows = space.rows
    assert np.abs(rows @ rows.T - np.eye(space.dimension) / 2).max() <= 1e-14
    for row, pair in zip(rows, space.basis):
        assert np.abs(pair_parameters(pair) - row).max() <= 1e-15


def test_projections_match_qr_reference():
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in range(300):
        if n % 3 == 0:
            t = bell_t_vector(int(rng.integers(4)))
        elif n % 3 == 1:
            t = random_edge_t(rng, int(rng.integers(1, 4)), rng.choice(["A", "B"]))
        else:
            t = random_interior_t(rng)
        u1, u2 = random_unitary(rng), random_unitary(rng)
        cls = classify(t)
        oracle = twin_space(local_move(build_T(t), u1, u2))
        support = [k for k in range(4) if cls.weights[k] > 1e-9]
        components = [local_move(bell_state(k)[1], u1, u2) for k in support]
        compared = [simultaneous_twins(components)]
        analytic = analytic_twins(cls)
        if analytic is not None:
            assert_rows_at_pair_scale(analytic)
            compared.append(pull_back(analytic, linalg.pauli_adjoint(u1).T, linalg.pauli_adjoint(u2).T))
        stray = ObservablePair(*linalg.from_pauli(rng.standard_normal((2, 4))))
        assert_rows_at_pair_scale(oracle)
        for other in compared:
            assert_rows_at_pair_scale(other)
            res = subspace_residual(oracle, other)
            worst = max(worst, abs(res - reference_subspace_residual(oracle, other)))
            for pair in (*other.basis, stray):
                res = contains_pair(oracle, pair)
                worst = max(worst, abs(res - reference_contains_pair(oracle, pair)))
    assert worst <= 1e-14


def test_analytic_bases_are_exact():
    for k in range(4):
        for i, pair in enumerate(analytic_vertex_twins(k).basis):
            assert np.array_equal(pair.a1, pauli(i) / 2)
            assert np.array_equal(pair.a2, bell_twin_partner(k, pauli(i)) / 2)
    rng = np.random.default_rng(31)
    for axis in (1, 2, 3):
        for case, sign in (("A", 1.0), ("B", -1.0)):
            trivial, pair = analytic_edge_twins(classify(random_edge_t(rng, axis, case))).basis
            assert np.array_equal(trivial.a1, pauli(0) / 2)
            assert np.array_equal(trivial.a2, pauli(0) / 2)
            assert np.array_equal(pair.a1, pauli(axis) / 2)
            assert np.array_equal(pair.a2, sign * pauli(axis) / 2)


def test_membership_and_span_tests_run_no_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args: calls.append(args) or qr(*args))
    space = twin_space(EDGE_A)
    analytic = analytic_edge_twins(classify(np.array([0.4, -0.4, 1.0])))
    assert subspace_residual(space, analytic) <= 1e-9
    assert contains_pair(space, herm_pair(pauli(3) / 2, -pauli(3) / 2)) > 0.5
    assert calls == []


# The former Kronecker-and-trace body, kept as the reference for the contraction.
def reference_distant_correlation(pair, rho):
    w1, v1 = np.linalg.eigh(pair.a1)
    w2, v2 = np.linalg.eigh(pair.a2)
    # descending, the order of the outcome tables
    w1, v1, w2, v2 = w1[::-1], v1[:, ::-1], w2[::-1], v2[:, ::-1]
    exp1 = np.trace(tensor(pair.a1, np.eye(2)) @ rho).real
    exp2 = np.trace(tensor(np.eye(2), pair.a2) @ rho).real
    degenerate = abs(w1[0] - w1[1]) <= 1e-9 or abs(w2[0] - w2[1]) <= 1e-9
    dist = np.zeros((2, 2))
    if degenerate:
        dist[0, 0] = 1.0
        return dist, abs(exp1 - exp2), True
    for a in range(2):
        pa = np.outer(v1[:, a], v1[:, a].conj())
        for b in range(2):
            qb = np.outer(v2[:, b], v2[:, b].conj())
            dist[a, b] = np.trace(tensor(pa, qb) @ rho).real
    return dist, abs(exp1 - exp2), False


def test_simultaneous_twins_takes_a_list_or_a_stack():
    rng = np.random.default_rng(17)
    for support in ([2], [0, 3], [1, 2, 3], [0, 1, 2, 3]):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        components = [local_move(bell_state(k)[1], u1, u2) for k in support]
        from_list = simultaneous_twins(components)
        from_stack = simultaneous_twins(np.array(components))
        assert np.array_equal(from_list.rows, from_stack.rows)
        assert from_list.singular_value_gap == from_stack.singular_value_gap
    with pytest.raises(ValueError, match="at least one state"):
        simultaneous_twins(np.zeros((0, 4, 4)))


def eigh_correlation_tables(a1, a2, rho):
    """correlation_tables on eigenprojectors from np.linalg.eigh, descending, the reference."""
    w1, v1 = np.linalg.eigh(a1)
    w2, v2 = np.linalg.eigh(a2)
    w1, v1, w2, v2 = w1[..., ::-1], v1[..., ::-1], w2[..., ::-1], v2[..., ::-1]
    exp1 = np.trace(a1 @ partial_trace(rho, 1), axis1=-2, axis2=-1).real
    exp2 = np.trace(a2 @ partial_trace(rho, 2), axis1=-2, axis2=-1).real
    degenerate = (np.abs(w1[:, 0] - w1[:, 1]) <= 1e-9) | (np.abs(w2[:, 0] - w2[:, 1]) <= 1e-9)
    p = np.einsum("nia,nka->naik", v1, v1.conj())
    q = np.einsum("njb,nlb->nbjl", v2, v2.conj())
    dist = np.einsum("naik,nbjl,klij->nab", p, q, rho.reshape(2, 2, 2, 2)).real
    dist[degenerate] = ((1.0, 0.0), (0.0, 0.0))
    return dist, np.abs(exp1 - exp2), degenerate


def _near_degenerate_observables(rng):
    """c.sigma with 2|c| at 0.5, 1 and 2 x DEGENERACY_TOL; the tie itself along sigma_3, exactly."""
    tie = linalg.DEGENERACY_TOL
    obs = []
    for factor in (0.5, 2.0):
        c = rng.standard_normal(3)
        c *= factor * tie / 2 / np.linalg.norm(c)
        obs.append(linalg.from_pauli(np.concatenate([[0.0], c])))
    obs.append(tie / 2 * pauli(3))
    return obs


def test_correlation_tables_match_the_phased_eigh_reference():
    # closed form from Pauli components against eigenprojectors from np.linalg.eigh
    rng = np.random.default_rng(19)
    worst = 0.0
    flags = set()
    zero = np.zeros((2, 2), dtype=complex)
    cases = [bell_t_vector(k) for k in range(4)]
    cases += [random_edge_t(rng, axis, case) for axis in (1, 2, 3) for case in ("A", "B")]
    cases += [random_interior_t(rng) for _ in range(6)]
    for t in cases:
        for _ in range(5):
            rho = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
            space = twin_space(rho)
            ops = space.ops
            strays = [random_hermitian(rng) for _ in range(3)]
            tiny = _near_degenerate_observables(rng)
            a1 = np.concatenate([ops[:, 0], strays, [zero], tiny, strays])
            a2 = np.concatenate([ops[:, 1], strays[::-1], [zero], strays, tiny])
            dist, gap, degenerate = correlation_tables(a1, a2, rho)
            ref_dist, ref_gap, ref_degenerate = eigh_correlation_tables(a1, a2, rho)
            assert np.array_equal(degenerate, ref_degenerate)
            flags.update(degenerate[-6:].tolist())
            worst = max(worst, np.abs(dist - ref_dist).max(), np.abs(gap - ref_gap).max())
            # verify's route reads the stored rows and rho's Pauli coordinates
            rows_dist, rows_gap, rows_degenerate = twins._pauli_tables(
                space.rows, linalg.pauli_coordinates(rho)
            )
            n = space.dimension
            assert np.array_equal(rows_degenerate, degenerate[:n])
            assert np.abs(rows_dist - dist[:n]).max() <= 1e-15
            assert np.abs(rows_gap - gap[:n]).max() <= 1e-15
    assert worst <= 1e-15
    assert flags == {True, False}


def test_pauli_spectra_match_eigvalsh():
    rng = np.random.default_rng(29)
    # unit scale, as the pairs verify reads (rows at norm 1/sqrt(2)): 1e-15 is a few ulps
    obs = [h / np.linalg.norm(h) for h in (random_hermitian(rng) for _ in range(200))]
    obs += [np.zeros((2, 2), dtype=complex), *_near_degenerate_observables(rng)]
    obs += list(twin_space(local_move(EDGE_A, random_unitary(rng), random_unitary(rng))).ops[:, 1])
    a = np.array(obs)
    spectra = twins._pauli_spectra(linalg.to_pauli(a))
    assert np.abs(spectra - np.linalg.eigvalsh(a)[:, ::-1]).max() <= 1e-15


def test_pairs_lifted_from_real_rows_are_exactly_hermitian():
    # local-unitary-covariance reads its twin residuals unguarded on such pairs
    rows = np.random.default_rng(31).standard_normal((100_000, 4))
    assert linalg.hermitian_check(linalg.from_pauli(rows)) == 0.0


def test_twin_space_ops_computed_once_and_read_only():
    space = twin_space(EDGE_A)
    assert space.ops is space.ops
    assert not space.ops.flags.writeable
    assert np.array_equal(space.ops, linalg.from_pauli(space.rows.reshape(-1, 2, 4)))


def test_distant_correlation_matches_kronecker_reference():
    rng = np.random.default_rng(37)
    worst = 0.0
    for n in range(300):
        if n % 3 == 0:
            t = bell_t_vector(int(rng.integers(4)))
        elif n % 3 == 1:
            t = random_edge_t(rng, int(rng.integers(1, 4)), rng.choice(["A", "B"]))
        else:
            t = random_interior_t(rng)
        rho = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
        stray = ObservablePair(a1=random_hermitian(rng), a2=random_hermitian(rng))
        # a state with unequal marginals tells the two reduced states apart
        g = random_hermitian(rng, 4)
        lopsided = g @ g / np.trace(g @ g).real
        cases = [(pair, rho) for pair in (*twin_space(rho).basis, stray)]
        for pair, state in (*cases, (stray, lopsided)):
            report = distant_correlation(pair, state)
            dist, gap, degenerate = reference_distant_correlation(pair, state)
            assert report.degenerate == degenerate
            worst = max(
                worst,
                np.abs(report.joint_distribution - dist).max(),
                abs(report.expectation_gap - gap),
                abs(report.mismatch_probability - (dist[0, 1] + dist[1, 0])),
            )
    assert worst <= 1e-14


def test_distant_correlation_builds_no_kronecker_product(monkeypatch):
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        return wrapper

    rng = np.random.default_rng(41)
    rho = local_move(EDGE_A, random_unitary(rng), random_unitary(rng))
    for module in (linalg, twins):
        if hasattr(module, "tensor"):
            monkeypatch.setattr(module, "tensor", counted(f"{module.__name__}.tensor", module.tensor))
    monkeypatch.setattr(np, "kron", counted("np.kron", np.kron))
    monkeypatch.setattr(_umath_linalg, "eigh_lo", counted("eigh_lo", _umath_linalg.eigh_lo))
    pair = ObservablePair(a1=random_hermitian(rng), a2=random_hermitian(rng))
    assert not distant_correlation(pair, rho).degenerate
    # the tables come in closed form from Pauli components: no eigensolver, no product
    assert calls == []
    # the counter does see an eigensolver
    linalg._lapack("eigh_lo", pair.a1)
    assert calls == ["eigh_lo"]


# The former per-pair bodies, kept as the references for the stacked kernels.
def per_pair_contains_pair(space, pair):
    x = pair_parameters(pair)
    return float(twins._off_span(x, space)) if x.any() else 0.0


def per_pair_is_twin_pair(pair, rho, tol=mds.DEFAULT_TOL):
    rho = mds.validate_density_matrix(rho)
    for name, a in (("a1", pair.a1), ("a2", pair.a2)):
        linalg.require_hermitian(a, f"is_twin_pair: {name}", linalg.OBSERVABLE_HERMITIAN_TOL)
    r = rho.reshape(2, 2, 2, 2)
    diff = np.einsum("ia,abcd->ibcd", pair.a1, r) - np.einsum("jb,abcd->ajcd", pair.a2, r)
    residual = float(np.linalg.norm(diff))
    return residual <= tol, residual


def per_pair_distant_correlation(pair, rho):
    rho = mds.validate_density_matrix(rho)
    for name, a in (("a1", pair.a1), ("a2", pair.a2)):
        linalg.require_hermitian(a, f"distant_correlation: {name}", linalg.OBSERVABLE_HERMITIAN_TOL)
    w1, v1 = np.linalg.eigh(pair.a1)
    w2, v2 = np.linalg.eigh(pair.a2)
    w1, v1, w2, v2 = w1[::-1], v1[:, ::-1], w2[::-1], v2[:, ::-1]
    exp1 = np.trace(pair.a1 @ partial_trace(rho, 1)).real
    exp2 = np.trace(pair.a2 @ partial_trace(rho, 2)).real
    gap = abs(exp1 - exp2)
    tie = linalg.DEGENERACY_TOL
    if abs(w1[0] - w1[1]) <= tie or abs(w2[0] - w2[1]) <= tie:
        dist = np.zeros((2, 2))
        dist[0, 0] = 1.0
        return CorrelationReport(
            joint_distribution=dist,
            mismatch_probability=0.0,
            expectation_gap=float(gap),
            degenerate=True,
        )
    p = np.einsum("ia,ka->aik", v1, v1.conj())
    q = np.einsum("jb,lb->bjl", v2, v2.conj())
    dist = np.einsum("aik,bjl,klij->ab", p, q, rho.reshape(2, 2, 2, 2)).real
    total = dist.sum()
    # the bounds of the gate that admitted rho, plus rounding
    gate = linalg.STATE_VALIDATION_TOL
    if dist.min() < -(gate + linalg.ROUNDING_TOL) or abs(total - 1) > gate + linalg.PROBABILITY_TOL:
        raise InternalConsistencyError(
            f"joint distribution is not a probability table "
            f"(min {dist.min():.3e}, sum {total:.12g})"
        )
    mismatch = float(dist[0, 1] + dist[1, 0])
    return CorrelationReport(
        joint_distribution=dist,
        mismatch_probability=mismatch,
        expectation_gap=float(gap),
        degenerate=False,
    )


def per_pair_pure_twin_partner(a1, phi):
    a1 = linalg.require_hermitian(a1, "pure_twin_partner: a1", linalg.OBSERVABLE_HERMITIAN_TOL)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    rho1 = partial_trace(np.outer(phi, phi.conj()), 1)
    comm = a1 @ rho1 - rho1 @ a1
    comm_norm = np.linalg.norm(comm)
    if comm_norm > linalg.RESIDUAL_TOL:
        raise ValueError(
            f"pure_twin_partner: a1 does not commute with the reduced state "
            f"(commutator norm {comm_norm:.3e} > {linalg.RESIDUAL_TOL:g})"
        )
    ua = correlation_operator(pure_schmidt(phi))
    return ua.conjugate(a1)


def test_stacked_kernels_match_per_pair_bodies():
    rng = np.random.default_rng(43)
    worst = 0.0
    for n in range(300):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        if n % 3 == 0:
            k = int(rng.integers(4))
            t = bell_t_vector(k)
        elif n % 3 == 1:
            t = random_edge_t(rng, int(rng.integers(1, 4)), rng.choice(["A", "B"]))
        else:
            t = random_interior_t(rng)
        rho = local_move(build_T(t), u1, u2)
        space = twin_space(rho)
        strays = [ObservablePair(a1=random_hermitian(rng), a2=random_hermitian(rng)) for _ in range(3)]
        zero = ObservablePair(a1=np.zeros((2, 2), dtype=complex), a2=np.zeros((2, 2), dtype=complex))
        pairs = (*space.basis, *strays, zero)
        a1 = np.array([p.a1 for p in pairs])
        a2 = np.array([p.a2 for p in pairs])
        residuals = twin_residuals(a1, a2, rho)
        distances = span_distances(space, np.array([pair_parameters(p) for p in pairs]))
        dist, gap, degenerate = correlation_tables(a1, a2, rho)
        for i, pair in enumerate(pairs):
            ref = per_pair_distant_correlation(pair, rho)
            assert degenerate[i] == ref.degenerate
            worst = max(
                worst,
                abs(residuals[i] - per_pair_is_twin_pair(pair, rho)[1]),
                abs(distances[i] - per_pair_contains_pair(space, pair)),
                np.abs(dist[i] - ref.joint_distribution).max(),
                abs(gap[i] - ref.expectation_gap),
            )
        if n % 3 == 0:
            # the pure vertex state; its reduced state is I/2, so every a1 commutes
            phi = (u1 @ bell_state(k)[0].reshape(2, 2) @ u2.T).reshape(4)
            assert np.abs(np.outer(phi, phi.conj()) - rho).max() <= 1e-14
            stack = np.array([random_hermitian(rng) for _ in range(5)])
            partners = pure_twin_partners(stack, phi)
            for a, partner in zip(stack, partners):
                worst = max(worst, np.abs(partner - per_pair_pure_twin_partner(a, phi)).max())
    assert worst <= 1e-14


def test_pair_kernels_validate_rho():
    # the gate's ValueError: not the Hermitian part's tables, nor a table's consistency error
    a = pauli(3)[None]
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3
    bad = [
        (EDGE_A + skew, r"^density matrix is not Hermitian \(max deviation 2.000e-03\)$"),
        (2 * EDGE_A, "^density matrix trace is 2, expected 1$"),
        (np.diag([1.5, -0.5, 0, 0]).astype(complex), "^density matrix has negative eigenvalue"),
    ]
    for rho, message in bad:
        for kernel in (twin_residuals, correlation_tables):
            with pytest.raises(ValueError, match=message):
                kernel(a, a, rho)


def test_stacked_guards_name_the_operand():
    rho = EDGE_A
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    good = pauli(3)[None]
    stack = np.array([pauli(3), bad])
    with pytest.raises(ValueError, match="^is_twin_pair: a2 is not Hermitian"):
        twin_residuals(good, stack[1:], rho)
    with pytest.raises(ValueError, match="^correlation_tables: a1 is not Hermitian"):
        correlation_tables(stack, stack, rho)
    with pytest.raises(ValueError, match="^correlation_tables: a2 is not Hermitian"):
        correlation_tables(good, stack[1:], rho)
    # distant_correlation guards its pair as correlation_tables does
    with pytest.raises(ValueError, match="^correlation_tables: a1 is not Hermitian"):
        distant_correlation(herm_pair(bad, pauli(3)), rho)
    with pytest.raises(ValueError, match="^correlation_tables: a2 is not Hermitian"):
        distant_correlation(herm_pair(pauli(3), bad), rho)
    with pytest.raises(ValueError, match="^pure_twin_partner: a1 is not Hermitian"):
        pure_twin_partners(stack, bell_state(0)[0])
    with pytest.raises(ValueError, match="commute"):
        pure_twin_partners(np.array([pauli(3), pauli(1)]), np.array([0.9, 0, 0, np.sqrt(0.19)]))
