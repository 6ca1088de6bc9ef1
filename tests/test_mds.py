import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinscope.linalg import hs_norm, partial_trace, pauli, random_unitary, tensor
from twinscope.mds import (
    BELL_VERTEX,
    BINARY_EDGE,
    GENERIC_INTERIOR,
    NON_STATE,
    bell_state,
    bell_t_vector,
    build_T,
    canonicalize,
    classify,
    correlation_matrix,
    edge_mixture,
    is_mds,
    is_state,
    random_edge_t,
    random_interior_t,
    sample_tetrahedron,
    t_from_weights,
    validate_density_matrix,
    weights_from_t,
)
from twinscope.mds import _su2_from_rotation

HALF_I2 = np.eye(2) / 2


def test_bell_states_orthonormal_projectors():
    vecs = [bell_state(k)[0] for k in range(4)]
    for i in range(4):
        for j in range(4):
            assert abs(np.vdot(vecs[i], vecs[j]) - (i == j)) < 1e-12
    for k in range(4):
        _, proj = bell_state(k)
        assert np.abs(proj @ proj - proj).max() < 1e-12


def test_singlet_vector():
    vec, _ = bell_state(0)
    expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.abs(vec - expected).max() < 1e-15


def test_bell_t_vectors():
    assert np.array_equal(bell_t_vector(0), [-1, -1, -1])
    assert np.array_equal(bell_t_vector(1), [-1, 1, 1])
    assert np.array_equal(bell_t_vector(2), [1, -1, 1])
    assert np.array_equal(bell_t_vector(3), [1, 1, -1])
    # t-vectors measured from the projectors must match the table
    for k in range(4):
        _, proj = bell_state(k)
        measured = np.array(
            [np.trace(proj @ tensor(pauli(i), pauli(i))).real for i in (1, 2, 3)]
        )
        assert np.abs(measured - bell_t_vector(k)).max() < 1e-12


def test_bell_index_out_of_range():
    with pytest.raises(ValueError):
        bell_state(4)
    with pytest.raises(ValueError):
        bell_t_vector(-1)


def test_t_from_weights_examples():
    assert np.allclose(t_from_weights([0, 0.3, 0.7, 0]), [0.4, -0.4, 1.0])
    assert np.allclose(t_from_weights([1, 0, 0, 0]), [-1, -1, -1])
    assert np.allclose(t_from_weights([0.25, 0.25, 0.25, 0.25]), [0, 0, 0])


def test_weights_from_t_examples():
    assert np.allclose(weights_from_t([-1, -1, -1]), [1, 0, 0, 0])
    assert np.allclose(weights_from_t([1, 1, 1]), [-0.5, 0.5, 0.5, 0.5])
    assert np.allclose(weights_from_t([0.4, -0.4, 1.0]), [0, 0.3, 0.7, 0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=4, max_size=4)
)
def test_weight_roundtrip(raw):
    w = np.array(raw) / np.sum(raw)
    w2 = weights_from_t(t_from_weights(w))
    assert np.abs(w - w2).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3)
)
def test_t_roundtrip(raw):
    t = np.array(raw)
    t2 = t_from_weights(weights_from_t(t))
    assert np.abs(t - t2).max() < 1e-12


def test_build_T_centroid_and_vertex():
    assert np.abs(build_T([0, 0, 0]) - np.eye(4) / 4).max() < 1e-15
    _, singlet_proj = bell_state(0)
    assert np.abs(build_T([-1, -1, -1]) - singlet_proj).max() < 1e-12


def test_build_T_equal_weight_mixture_of_first_two():
    # t=(0,0,1) is the equal mixture of up-up and down-down products
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    expected = (
        tensor(np.outer(up, up), np.outer(up, up))
        + tensor(np.outer(down, down), np.outer(down, down))
    ) / 2
    assert np.abs(build_T([0, 0, 1]) - expected).max() < 1e-12


def test_build_T_matches_bell_mixture():
    rng = np.random.default_rng(2)
    projectors = [bell_state(k)[1] for k in range(4)]
    for _ in range(20):
        w = rng.dirichlet(np.ones(4))
        direct = sum(wk * pk for wk, pk in zip(w, projectors))
        assert np.abs(build_T(t_from_weights(w)) - direct).max() < 1e-12


def test_is_state_examples():
    assert not is_state(np.array([1.0, 1, 1])).ok
    v = is_state(np.array([1.0, 1, 1]))
    assert v.offending_index == 0 and abs(v.min_weight + 0.5) < 1e-12
    assert is_state(np.array([-1.0, -1, -1])).ok
    assert not is_state(np.array([0.9, 0.9, 0.9])).ok


def test_is_state_agreement_on_grid():
    # weight test and eigenvalue test agree over a coarse cube grid
    axis = np.linspace(-1, 1, 21)
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                v = is_state(np.array([t1, t2, t3]))
                assert v.ok == (v.min_weight >= -1e-9)
                assert v.ok == (v.min_eigenvalue >= -1e-9)


def test_classify_vertices_sign_table():
    for k in range(4):
        cls = classify(bell_t_vector(k))
        assert cls.kind == BELL_VERTEX
        assert cls.vertex == k


def test_classify_rejects_non_state_sign_patterns():
    for pattern in ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]):
        cls = classify(np.array(pattern, dtype=float))
        assert cls.kind == NON_STATE


def test_classify_edge_case_a():
    cls = classify(np.array([0.4, -0.4, 1.0]))
    assert cls.kind == BINARY_EDGE
    assert cls.axis == 3 and cls.case == "A"
    mixture = edge_mixture(cls)
    assert abs(mixture[1] - 0.3) < 1e-12
    assert abs(mixture[2] - 0.7) < 1e-12
    assert 0 not in mixture and 3 not in mixture


def test_classify_edge_case_b():
    cls = classify(np.array([0.6, 0.6, -1.0]))
    assert cls.kind == BINARY_EDGE
    assert cls.axis == 3 and cls.case == "B"
    mixture = edge_mixture(cls)
    assert abs(mixture[3] - 0.8) < 1e-12
    assert abs(mixture[0] - 0.2) < 1e-12


def test_classify_interior():
    cls = classify(np.array([0.2, 0.1, -0.05]))
    assert cls.kind == GENERIC_INTERIOR
    assert cls.weights.min() > 0


def test_classify_near_edge_is_interior():
    # a point close to but not on the edge legitimately classifies interior
    cls = classify(np.array([0.4, -0.4, 1.0 - 1e-6]))
    assert cls.kind == GENERIC_INTERIOR


def test_edge_mixture_rebuilds_state():
    rng = np.random.default_rng(4)
    for axis in (1, 2, 3):
        for case in ("A", "B"):
            t = random_edge_t(rng, axis, case)
            cls = classify(t)
            assert cls.kind == BINARY_EDGE
            assert cls.axis == axis and cls.case == case
            mixture = edge_mixture(cls)
            direct = sum(w * bell_state(k)[1] for k, w in mixture.items())
            assert np.abs(build_T(t) - direct).max() < 1e-12


def test_edge_consistency_relations():
    rng = np.random.default_rng(6)
    for axis in (1, 2, 3):
        j, m = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[axis]
        ta = random_edge_t(rng, axis, "A")
        assert abs(ta[m - 1] + ta[j - 1]) < 1e-12
        tb = random_edge_t(rng, axis, "B")
        assert abs(tb[m - 1] - tb[j - 1]) < 1e-12


def test_is_mds():
    for k in range(4):
        assert is_mds(bell_state(k)[1])
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = rng.dirichlet(np.ones(4))
        assert is_mds(build_T(t_from_weights(w)))
    up = np.array([1, 0], dtype=complex)
    not_mds = tensor(np.outer(up, up), np.eye(2) / 2)
    assert not is_mds(not_mds)


def test_validate_density_matrix_rejects_bad_input():
    non_hermitian = np.zeros((4, 4), dtype=complex)
    non_hermitian[0, 1] = 1.0
    non_hermitian[0, 0] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(non_hermitian)
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4, dtype=complex))
    bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(bad)


def test_correlation_matrix_diagonal_for_generating_states():
    t = np.array([0.3, -0.2, 0.55])
    c = correlation_matrix(build_T(t))
    assert np.abs(c - np.diag(t)).max() < 1e-12


def test_canonicalize_fixed_point():
    t = np.array([0.4, -0.4, 1.0])
    cf = canonicalize(build_T(t))
    assert cf.residual <= 1e-9
    # canonical order: |t| descending, tie broken by signed value
    assert np.allclose(cf.t, [1.0, 0.4, -0.4], atol=1e-10)
    assert sorted(np.abs(cf.t)) == pytest.approx(sorted(np.abs(t)), abs=1e-10)


def test_canonicalize_maximally_mixed():
    cf = canonicalize(np.eye(4, dtype=complex) / 4)
    assert np.abs(cf.t).max() < 1e-12
    assert cf.residual <= 1e-9


def test_canonicalize_roundtrip_random_scrambles():
    rng = np.random.default_rng(10)
    for _ in range(30):
        t = random_interior_t(rng)
        rho = build_T(t)
        u = tensor(random_unitary(rng), random_unitary(rng))
        scrambled = u @ rho @ u.conj().T
        cf = canonicalize(scrambled)
        assert cf.residual <= 1e-9
        assert np.abs(np.sort(np.abs(cf.t)) - np.sort(np.abs(t))).max() < 1e-9
        rebuilt = tensor(cf.u1, cf.u2) @ scrambled @ tensor(cf.u1, cf.u2).conj().T
        assert hs_norm(rebuilt - build_T(cf.t)) <= 1e-9


def test_canonicalize_rejects_non_mds():
    up = np.array([1, 0], dtype=complex)
    rho = tensor(np.outer(up, up), np.eye(2) / 2)
    with pytest.raises(ValueError, match="disordered"):
        canonicalize(rho)


def test_canonical_t_is_still_a_state():
    rng = np.random.default_rng(14)
    for _ in range(20):
        t = random_interior_t(rng)
        cf = canonicalize(build_T(t))
        assert is_state(cf.t).ok


def test_sample_tetrahedron_regions():
    assert np.array_equal(sample_tetrahedron(0, "vertex:0"), [-1, -1, -1])
    t = sample_tetrahedron(123, "interior")
    assert is_state(t).ok
    assert weights_from_t(t).min() > 0
    for axis in (1, 2, 3):
        for case in ("A", "B"):
            t = sample_tetrahedron(7, f"edge:{axis}:{case}")
            assert is_state(t).ok
            expected = 1.0 if case == "A" else -1.0
            assert t[axis - 1] == expected
    with pytest.raises(ValueError):
        sample_tetrahedron(0, "nowhere")


def test_sample_tetrahedron_deterministic():
    a = sample_tetrahedron(99, "interior")
    b = sample_tetrahedron(99, "interior")
    assert np.array_equal(a, b)


def test_random_edge_t_explicit_parameter():
    rng = np.random.default_rng(0)
    t = random_edge_t(rng, 3, "A", parameter=0.6)
    assert np.allclose(t, [-0.6, 0.6, 1.0])


def test_mds_partial_traces_maximally_mixed():
    rng = np.random.default_rng(16)
    for _ in range(10):
        t = random_interior_t(rng)
        rho = build_T(t)
        assert np.abs(partial_trace(rho, 1) - HALF_I2).max() < 1e-12
        assert np.abs(partial_trace(rho, 2) - HALF_I2).max() < 1e-12


def test_classify_never_sees_two_unit_components():
    # edge and vertex samples have their vanishing Bell weights at rounding
    # level and the others well away from the cut, so the weight-count
    # decision answers even at a sloppy tolerance
    rng = np.random.default_rng(20)
    for axis in (1, 2, 3):
        for case in ("A", "B"):
            for _ in range(10):
                classify(random_edge_t(rng, axis, case), tol=1e-6)
    for k in range(4):
        classify(bell_t_vector(k), tol=1e-6)


def _proper_signed_permutations():
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            r[range(3), perm] = signs
            if np.linalg.det(r) > 0:
                yield r


def test_su2_lift_reproduces_rotation():
    # the signed permutations include the pi rotations, where 1 + tr r = 0
    # forces a pivot other than the trace
    rotations = list(_proper_signed_permutations())
    assert len(rotations) == 24
    rng = np.random.default_rng(1978)
    for _ in range(500):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotations.append(q * np.sign(np.linalg.det(q)))
    for r in rotations:
        u = _su2_from_rotation(r)
        rec = np.array(
            [
                [np.trace(pauli(i) @ u @ pauli(j) @ u.conj().T).real / 2 for j in (1, 2, 3)]
                for i in (1, 2, 3)
            ]
        )
        assert np.abs(rec - r).max() <= 1e-12
        assert np.trace(u).real >= 0
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1) <= 1e-12
