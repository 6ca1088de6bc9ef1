import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinscope.linalg import (
    RankDecisionError,
    eigh,
    hermitian_check,
    hs_inner,
    partial_trace,
    pauli,
    random_hermitian,
    random_unitary,
    rank_split,
    real_nullspace,
    svd,
    tensor,
)

I2 = np.eye(2, dtype=complex)

# epsilon_{ijm} on 1-based indices
LEVI_CIVITA = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def test_pauli_matrices():
    assert np.array_equal(pauli(0), I2)
    assert np.array_equal(pauli(3), np.diag([1, -1]).astype(complex))
    for i in range(4):
        p = pauli(i)
        assert np.allclose(p, p.conj().T)
        assert np.allclose(p @ p.conj().T, I2)
    for i in range(1, 4):
        assert abs(np.trace(pauli(i))) < 1e-15


def test_pauli_index_out_of_range():
    with pytest.raises(ValueError):
        pauli(4)
    with pytest.raises(ValueError):
        pauli(-1)


def test_pauli_product_algebra():
    # sigma_i sigma_j = delta_ij I + i sum_m eps_ijm sigma_m
    for i in range(1, 4):
        for j in range(1, 4):
            expected = (i == j) * I2
            for m in range(1, 4):
                eps = LEVI_CIVITA.get((i, j, m), 0)
                if eps:
                    expected = expected + 1j * eps * pauli(m)
            assert np.abs(pauli(i) @ pauli(j) - expected).max() < 1e-12


def test_pauli_hs_orthonormality():
    for i in range(4):
        for j in range(4):
            val = hs_inner(pauli(i) / np.sqrt(2), pauli(j) / np.sqrt(2))
            assert abs(val - (i == j)) < 1e-15


def test_tensor_identity_and_diagonal():
    assert np.allclose(tensor(I2, I2), np.eye(4))
    assert np.allclose(tensor(pauli(3), pauli(3)), np.diag([1, -1, -1, 1]))


def test_tensor_flips_basis_vector():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(tensor(pauli(1), pauli(1)) @ ket00, ket11)


def test_tensor_bilinear():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng)
    b = random_hermitian(rng)
    c = random_hermitian(rng)
    assert np.allclose(tensor(a + 2 * b, c), tensor(a, c) + 2 * tensor(b, c))
    assert np.allclose(tensor(a, b + 2 * c), tensor(a, b) + 2 * tensor(a, c))


def test_tensor_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
        m = I2.copy()
        m[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            tensor(m, I2)
        with pytest.raises(ValueError, match="finite"):
            tensor(I2, m)


def test_partial_trace_singlet_is_maximally_mixed():
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    proj = np.outer(singlet, singlet.conj())
    assert np.allclose(partial_trace(proj, 1), I2 / 2)
    assert np.allclose(partial_trace(proj, 2), I2 / 2)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_hermitian(rng)
        b = random_hermitian(rng)
        assert np.allclose(partial_trace(tensor(a, b), 1), a * np.trace(b))
        assert np.allclose(partial_trace(tensor(a, b), 2), b * np.trace(a))


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = random_hermitian(rng, 4)
        for keep in (1, 2):
            red = partial_trace(m, keep)
            assert abs(np.trace(red) - np.trace(m)) < 1e-12
            assert np.abs(red - red.conj().T).max() < 1e-12


def test_partial_trace_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        partial_trace(np.eye(2), 1)
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 3)


def test_hs_inner_pauli_values():
    assert abs(hs_inner(pauli(1), pauli(1)) - 2) < 1e-15
    assert abs(hs_inner(pauli(1), pauli(2))) < 1e-15
    assert abs(hs_inner(I2 / np.sqrt(2), I2 / np.sqrt(2)) - 1) < 1e-15


def test_hs_inner_sesquilinear():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(hs_inner(a, b) - np.conj(hs_inner(b, a))) < 1e-12
    assert abs(hs_inner(1j * a, b) + 1j * hs_inner(a, b)) < 1e-12
    self_val = hs_inner(a, a)
    assert abs(self_val.imag) < 1e-12 and self_val.real >= 0


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_eigh_pauli_z():
    w, v = eigh(pauli(3))
    assert np.allclose(w, [1, -1])
    assert np.allclose(v[:, 0], [1, 0])
    assert np.allclose(v[:, 1], [0, 1])


def test_eigh_edge_state_spectrum():
    # 0.3/0.7 mixture of two Bell projectors: eigenvalues (0.7, 0.3, 0, 0)
    t = (0.4, -0.4, 1.0)
    T = 0.25 * (np.eye(4) + sum(ti * tensor(pauli(i + 1), pauli(i + 1)) for i, ti in enumerate(t)))
    w, _ = eigh(T)
    assert np.allclose(w, [0.7, 0.3, 0, 0], atol=1e-12)


def test_eigh_maximally_mixed_qubit():
    w, _ = eigh(I2 / 2)
    assert np.allclose(w, [0.5, 0.5])


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8, 32):
        m = random_hermitian(rng, dim)
        w, v = eigh(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
        assert np.all(np.diff(w) <= 1e-12)


def test_svd_identity_and_zero():
    _, s, _ = svd(np.eye(2))
    assert np.allclose(s, [1, 1])
    _, s, _ = svd(np.zeros((2, 2)))
    assert np.allclose(s, [0, 0])


def test_svd_singlet_coefficient_matrix():
    m = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2)
    _, s, _ = svd(m)
    assert np.allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_svd_reconstruction_random():
    rng = np.random.default_rng(17)
    for shape in ((4, 4), (32, 8), (8, 32)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, s, vh = svd(m)
        k = min(shape)
        assert np.abs((u[:, :k] * s) @ vh[:k] - m).max() < 1e-10
        assert np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() < 1e-10
        assert np.abs(vh @ vh.conj().T - np.eye(vh.shape[0])).max() < 1e-10


def test_svd_phase_convention_deterministic():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u1, _, _ = svd(m)
    u2, _, _ = svd(m.copy())
    assert np.array_equal(u1, u2)
    for k in range(4):
        first = u1[np.flatnonzero(np.abs(u1[:, k]) > 1e-12)[0], k]
        assert abs(first.imag) < 1e-12 and first.real > 0


def test_real_nullspace_zero_and_identity():
    res = real_nullspace(np.zeros((2, 2)))
    assert res.basis.shape == (2, 2)
    assert res.rank == 0
    res = real_nullspace(np.eye(3))
    assert res.basis.shape == (0, 3)
    assert res.rank == 3
    assert res.gap == float("inf")


def test_real_nullspace_basis_properties():
    rng = np.random.default_rng(29)
    # random rank-3 matrix inside R^6
    a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
    res = real_nullspace(a)
    assert res.basis.shape == (3, 6)
    smax = np.linalg.norm(a, 2)
    for v in res.basis:
        assert np.linalg.norm(a @ v) <= 1e-9 * smax
    gram = res.basis @ res.basis.T
    assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_real_nullspace_flags_ambiguous_rank():
    m = np.diag([1.0, 5e-9, 1e-11])
    with pytest.raises(RankDecisionError):
        real_nullspace(m, tol=1e-9)


def test_rank_split_mask_gap_and_guard_band():
    zero, gap = rank_split(np.array([1.0, 1e-12, 0.5, 0.0]), 1e-9)
    assert zero.tolist() == [False, True, False, True]
    assert gap == 0.5 / 1e-12
    assert rank_split(np.array([1.0, 0.0]), 1e-9)[1] == np.inf
    assert rank_split(np.array([1.0, 0.5]), 1e-9)[1] == np.inf
    # a value within a factor 10 of the cut, on either side, is ambiguous
    for value in (5e-9, 9.9e-9, 1.01e-10, 1e-9):
        with pytest.raises(RankDecisionError, match="ambiguous rank decision"):
            rank_split(np.array([1.0, value]), 1e-9)
    assert rank_split(np.array([1.0, 1e-8]), 1e-9)[0].tolist() == [False, False]
    assert rank_split(np.array([1.0, 1e-10]), 1e-9)[0].tolist() == [False, True]


def test_hermitian_check():
    chk = hermitian_check(pauli(2))
    assert chk.passes and chk.max_deviation == 0.0
    chk = hermitian_check(np.array([[0, 1e-6], [0, 0]]), tol=1e-9)
    assert not chk.passes


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(31)
    for dim in (2, 4):
        u = random_unitary(rng, dim)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_tensor_consistency(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng)
    b = random_hermitian(rng)
    assert np.abs(partial_trace(tensor(a, b), 1) - a * np.trace(b)).max() < 1e-12
