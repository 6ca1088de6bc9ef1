import ast
import inspect
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import local_move
import twinscope
from twinscope import cli, linalg, mds, schmidt, twins, verify
from twinscope.linalg import (
    RANK_GUARD,
    RankDecisionError,
    eigh,
    from_pauli,
    hermitian_check,
    hs_inner,
    leading_phases,
    partial_trace,
    pauli,
    pauli_adjoint,
    pauli_coordinates,
    random_hermitian,
    random_unitary,
    rank_split,
    real_nullspace,
    require_hermitian,
    svd,
    tensor,
    to_pauli,
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


def _phases_by_loop(a):
    """The per-column loop leading_phases replaced, kept as its reference."""
    phases = np.ones(a.shape[1], dtype=a.dtype)
    for k in range(a.shape[1]):
        idx = np.flatnonzero(np.abs(a[:, k]) > 1e-12)
        if idx.size:
            z = a[idx[0], k]
            phases[k] = z / abs(z)
    return phases


def test_leading_phases_reproduce_column_loop():
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for trial in range(50):
        real = rng.standard_normal((4, 6))
        cplx = real + 1j * rng.standard_normal((4, 6))
        for a in (real, cplx):
            a[:, 1] = 0.0  # no significant entry: phase 1
            a[0, 2] = 1e-13 * (-1) ** trial  # leading entry below 1e-12 is skipped
            a[:2, 3] = [5e-13, -9e-13]
            # only negative real entries, all below 1e-12: still phase 1, not -1
            a[:, 5] = [-5e-13, -1e-13, -9e-13, -1e-12]
            want = _phases_by_loop(a)
            got = leading_phases(a)
            assert got.dtype == a.dtype
            if a.dtype == float:
                assert np.array_equal(got, want)
            else:
                # the loop divides numpy scalars, whose abs rounds differently
                assert np.abs(got - want).max() <= 4 * eps
            assert got[1] == 1 and got[5] == 1
            # a stack takes the same phases slice by slice
            stacked = leading_phases(np.stack([a, a[::-1]]))
            assert np.array_equal(stacked[0], got)
            assert np.array_equal(stacked[1], leading_phases(a[::-1]))
            lead = (a * got.conj())[[0, 1, 2, 0], [0, 2, 3, 4]]
            assert np.all(np.abs(lead.imag) <= 4 * eps * np.abs(lead))
            assert np.all(lead.real > 0)


def test_from_pauli_stack_matches_rows():
    rng = np.random.default_rng(37)
    c = rng.standard_normal((3, 2, 4))
    stacked = from_pauli(c)
    assert stacked.shape == (3, 2, 2, 2)
    for i in range(3):
        for j in range(2):
            row = from_pauli(c[i, j])
            assert np.array_equal(stacked[i, j], row)
            direct = sum(c[i, j, k] * pauli(k) for k in range(4))
            assert np.abs(row - direct).max() <= 1e-15


def test_local_actions_match_kronecker_conjugation():
    # the Kronecker form is the reference for both local actions, on R and on 2x2 components
    rng = np.random.default_rng(41)
    for _ in range(20):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        rho = random_hermitian(rng, 4)
        adj = pauli_adjoint(u1)
        moved = adj @ pauli_coordinates(rho) @ pauli_adjoint(u2).T
        assert np.abs(pauli_coordinates(local_move(rho, u1, u2)) - moved).max() <= 1e-14
        assert np.abs(adj @ adj.T - np.eye(4)).max() <= 1e-14
        a = random_hermitian(rng)
        assert np.abs(adj @ to_pauli(a) - to_pauli(u1 @ a @ u1.conj().T)).max() <= 1e-14


def test_pauli_adjoint_matches_conjugated_components():
    # column l is to_pauli(u sigma_l u^dag), for every unitary, not only SU(2)
    rng = np.random.default_rng(43)
    assert not linalg._ADJOINT_MAP.flags.writeable
    for _ in range(200):
        u = random_unitary(rng)
        expected = np.array([to_pauli(u @ pauli(k) @ u.conj().T) for k in range(4)]).T
        assert np.abs(pauli_adjoint(u) - expected).max() <= 1e-15


def _random_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_pauli_coordinates_of_generating_states():
    # T(t) = (I x I + sum_i t_i sigma_i x sigma_i)/4 has R = diag(1/4, t/4): exactly on
    # a dyadic grid, where every partial sum is exact, and to rounding elsewhere
    grid = [np.array(t) / 8 for t in itertools.product(range(-8, 9, 2), repeat=3)]
    for t in [*grid, *(mds.bell_t_vector(k) for k in range(4))]:
        assert np.array_equal(pauli_coordinates(mds.build_T(t)), np.diag([0.25, *t / 4]))
    rng = np.random.default_rng(43)
    for _ in range(200):
        t = mds.random_interior_t(rng)
        assert np.abs(pauli_coordinates(mds.build_T(t)) - np.diag([0.25, *t / 4])).max() <= 1e-16


def test_pauli_coordinates_rebuild_and_reduce():
    # partial_trace stays the reference for the reduced states
    rng = np.random.default_rng(47)
    for _ in range(50):
        rho = _random_state(rng)
        r = pauli_coordinates(rho)
        assert r.dtype == float and r.shape == (4, 4)
        assert np.abs(np.einsum("ij,ijab->ab", r, linalg.PAULI2) - rho).max() <= 1e-15
        assert np.abs(from_pauli(2 * r[:, 0]) - partial_trace(rho, 1)).max() <= 1e-15
        assert np.abs(from_pauli(2 * r[0, :]) - partial_trace(rho, 2)).max() <= 1e-15


def test_pauli_coordinates_of_a_local_move():
    rng = np.random.default_rng(53)
    for _ in range(50):
        rho = _random_state(rng)
        u1, u2 = random_unitary(rng), random_unitary(rng)
        moved = pauli_coordinates(local_move(rho, u1, u2))
        expected = pauli_adjoint(u1) @ pauli_coordinates(rho) @ pauli_adjoint(u2).T
        assert np.abs(moved - expected).max() <= 1e-15


def test_pauli_coordinates_are_computed_in_one_place():
    # every private kernel reads R; the one conversion is pauli_coordinates
    source = Path(linalg.__file__).parent
    einsum = '"ijab,...ba->...ij"'
    counts = {path.name: path.read_text().count(einsum) for path in source.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"linalg.py": 1}
    assert "einsum" not in inspect.getsource(schmidt.operator_schmidt)
    assert not hasattr(schmidt, "PAULI2") and not hasattr(mds, "correlation_matrix")


def parsed_functions(module):
    """A module's syntax tree and its function definitions by name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return tree, {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def calls(node):
    """The callee of every call under a syntax node, as source text."""
    return [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]


def test_schmidt_expansion_is_computed_in_one_place():
    # both levels hand a coefficient matrix to schmidt._expand: one SVD, cut and profile
    tree, functions = parsed_functions(schmidt)
    everywhere, in_expand = calls(tree), calls(functions["_expand"])
    for name in ("svd", "rank_split", "_degeneracy_profile"):
        assert everywhere.count(name) == in_expand.count(name) == 1, name
    for name in ("np.linalg.svd", "leading_phases", "partial_trace"):
        assert name not in everywhere, name
    for name in ("pure_schmidt", "_operator_schmidt"):
        assert "_expand" in calls(functions[name]), name


def test_twin_oracle_solves_in_one_place():
    # one SVD per oracle call, on the complement of the trivial pair: no second SVD, no derived bound
    tree, functions = parsed_functions(twins)
    everywhere, in_oracle = calls(tree), calls(functions["_simultaneous_twins"])
    assert "np.linalg.svd" not in everywhere
    assert everywhere.count("real_nullspace") == in_oracle.count("real_nullspace") == 1
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_SVD_ERROR" not in names and "_space_from_nullspace" not in functions


def test_pauli_adjoint_is_formed_where_a_frame_is_made():
    # a frame carries its adjoints: the canonical form's two lifts and the seeded move's two
    # draws form them, and no library function takes a frame from its caller
    callers = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert calls(tree).count("linalg.pauli_adjoint") == 0, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                callers += [(path.stem, node.name)] * calls(node).count("pauli_adjoint")
        assert calls(tree).count("pauli_adjoint") == sum(c[0] == path.stem for c in callers)
    expected = [("mds", "_canonical_form"), ("state", "moved")]
    assert sorted(callers) == sorted(expected * 2)


def test_every_import_is_read():
    # no linter is installed: a name an import binds must be read in its module
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert sorted(bound - read) == [], path.name


def test_no_module_defines_or_imports_local_conj():
    # a local move is a rotation of the Pauli coordinates R: no complex move is left in src/
    for path in Path(linalg.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        names |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "local_conj" not in names, path.name


def test_library_modules_bind_no_tensor():
    # local unitaries act through pauli_adjoint there, not Kronecker products
    for module in (mds, verify, schmidt, cli):
        assert not hasattr(module, "tensor"), module.__name__


def test_kron_lives_only_in_tensor():
    # local operators contract with the (2, 2, 2, 2) view of rho instead; twins still
    # binds tensor, because biorthogonal_separable_forms builds its product states as
    # the independent construction the Bell forms are checked against
    source = Path(linalg.__file__).parent
    counts = {path.name: path.read_text().count("np.kron") for path in source.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"linalg.py": 1}
    assert "np.kron" in inspect.getsource(linalg.tensor)


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


def test_svd_keeps_real_input_real():
    # a real matrix gets real factors, with signs +-1 as its phases
    rng = np.random.default_rng(29)
    m = rng.standard_normal((4, 4))
    u, s, vh = svd(m)
    assert u.dtype == s.dtype == vh.dtype == np.float64
    assert np.abs((u * s) @ vh - m).max() < 1e-12
    assert np.all(leading_phases(u) == 1.0)
    # the complex path agrees to rounding: its LAPACK routine differs in the last bits
    for real, complex_ in zip((u, s, vh), svd(m.astype(complex))):
        assert np.abs(complex_ - real).max() < 1e-12


def test_svd_factors_a_stack_member_by_member():
    # phases go along each member's last axes, never along the stack axis
    rng = np.random.default_rng(31)
    complex_stack = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    for stack in (complex_stack, rng.standard_normal((3, 4, 4))):
        u, s, vh = svd(stack)
        for n, m in enumerate(stack):
            for stacked, member in zip((u[n], s[n], vh[n]), svd(m)):
                assert np.array_equal(stacked, member)
        assert np.abs((u * s[:, None, :]) @ vh - stack).max() < 1e-12


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


def test_real_nullspace_rejects_an_input_that_is_not_2d():
    with pytest.raises(ValueError) as info:
        real_nullspace(np.zeros(3))
    assert str(info.value) == "real_nullspace expects a 2-d array, got ndim=1"


def test_rank_split_rank_gap_and_guard_band():
    assert rank_split([1.0, 0.5, 1e-12, 0.0], 1e-9) == (2, 0.5 / 1e-12)
    assert rank_split([1.0, 0.0], 1e-9) == (1, np.inf)
    assert rank_split([1.0, 0.5], 1e-9) == (2, np.inf)
    assert rank_split([], 1e-9) == (0, np.inf)
    # a value within a factor 10 of the cut, on either side, is ambiguous
    for value in (5e-9, 9.9e-9, 1.01e-10, 1e-9):
        with pytest.raises(RankDecisionError, match="ambiguous rank decision"):
            rank_split([1.0, value], 1e-9)
    assert rank_split([1.0, 1e-8], 1e-9)[0] == 2
    assert rank_split([1.0, 1e-10], 1e-9)[0] == 1


def test_rank_split_rejects_a_spectrum_that_is_not_descending():
    for values in ([1.0, 1e-12, 0.5, 0.0], [0.0, 1.0], [1.0, np.nan, 0.0], [np.nan]):
        with pytest.raises(ValueError, match="expects a descending spectrum") as got:
            rank_split(values, 1e-9)
        assert type(got.value) is ValueError


def test_rank_split_builds_no_array_and_has_three_callers():
    # the kept values are a prefix: no mask, and no numpy array, in the cut itself
    _, functions = parsed_functions(linalg)
    assert not any(name.startswith("np.") for name in calls(functions["rank_split"]))
    callers = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert calls(tree).count("linalg.rank_split") == 0, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                callers += [(path.stem, node.name)] * calls(node).count("rank_split")
    assert sorted(callers) == [("linalg", "real_nullspace"), ("mds", "classify"), ("schmidt", "_expand")]
    assert "rank_split" not in twinscope.__all__


def _rank_split_by_generators(values, threshold):
    """The two generator scans rank_split replaced, kept as its reference: (mask, gap)."""
    values = np.asarray(values, dtype=float)
    threshold = float(threshold)
    zero = values <= threshold
    listed = values.tolist()
    smallest_kept = min((v for v in listed if v > threshold), default=np.inf)
    largest_dropped = max((v for v in listed if v <= threshold), default=0.0)
    if smallest_kept < RANK_GUARD * threshold or largest_dropped > threshold / RANK_GUARD:
        raise RankDecisionError(
            f"ambiguous rank decision: values cluster around the cut {threshold:.3e} "
            f"(smallest kept {smallest_kept:.3e}, largest dropped {largest_dropped:.3e}, "
            f"guard factor {RANK_GUARD:g})"
        )
    gap = smallest_kept / largest_dropped if largest_dropped > 0 else np.inf
    return zero, float(gap)


@st.composite
def _values_around_a_cut(draw):
    cut = draw(st.sampled_from((1e-9, 1e-12, 0.0)))
    near = st.sampled_from([0.0, cut / 100, cut / 10, cut, 10 * cut, 1.0, np.inf])
    uniform = st.floats(min_value=0.0, max_value=1.0)
    return draw(st.lists(near | uniform, min_size=1, max_size=8)), cut


@settings(max_examples=300, deadline=None)
@given(_values_around_a_cut())
def test_rank_split_matches_the_generator_scans(drawn):
    values, cut = drawn
    descending = sorted(values, reverse=True)
    if values != descending:
        with pytest.raises(ValueError, match="expects a descending spectrum"):
            rank_split(values, cut)
    try:
        want = _rank_split_by_generators(descending, cut)
    except RankDecisionError as exc:
        with pytest.raises(RankDecisionError) as got:
            rank_split(descending, cut)
        assert str(got.value) == str(exc)
        return
    # the rank counts the kept values, the ones the mask does not mark vanishing
    assert rank_split(descending, cut) == (len(values) - int(np.count_nonzero(want[0])), want[1])


def test_hermitian_check():
    dev = hermitian_check(pauli(2))
    assert dev <= linalg.HERMITIAN_TOL and dev == 0.0
    dev = hermitian_check(np.array([[0, 1e-6], [0, 0]]))
    assert not dev <= 1e-9
    for m in (np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(ValueError) as info:
            hermitian_check(m)
        assert str(info.value) == f"hermitian_check expects a square matrix, got {m.shape}"


def test_require_hermitian_names_the_operand():
    m = require_hermitian([[1, 1j], [-1j, 0]], "probe")
    assert m.dtype == complex
    with pytest.raises(ValueError, match=r"^probe is not Hermitian \(max deviation 1\.000e-06\)$"):
        require_hermitian(np.array([[0, 1e-6], [0, 0]]), "probe", tol=1e-9)
    with pytest.raises(ValueError, match=r"^eigh: matrix is not Hermitian"):
        eigh(np.array([[0, 1e-6], [0, 0]]), 1e-9)


def test_require_hermitian_names_a_non_finite_entry():
    for bad in (np.nan, np.inf, complex(0, np.inf)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError, match=r"^probe has a non-finite entry$"):
            require_hermitian(m, "probe")
    with pytest.raises(ValueError, match=r"^operator_schmidt: input has a non-finite entry$"):
        schmidt.operator_schmidt(np.full((4, 4), np.nan))


def test_non_finite_entries_raise_without_a_warning():
    for bad in (np.inf, np.nan):
        m = np.diag([bad, 0, 0, 0]).astype(complex)
        for fn, what in (
            (mds.validate_density_matrix, "density matrix"),
            (schmidt.operator_schmidt, "operator_schmidt: input"),
            (eigh, "eigh: matrix"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"^{what} has a non-finite entry$"):
                    fn(m)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(31)
    u = random_unitary(rng)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def _unitary_recipe(rng):
    # Mezzadri's recipe, one 2x2 matrix per call: the reference every draw is held to
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian_recipe(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def test_single_draws_match_the_one_matrix_recipes():
    # a single draw is the stack of one, bit for bit what one matrix per call gave
    for seed in range(50):
        for draw, recipe in (
            (random_unitary, _unitary_recipe),
            (random_hermitian, lambda rng: _hermitian_recipe(rng, 2)),
            (lambda rng: random_hermitian(rng, 4), lambda rng: _hermitian_recipe(rng, 4)),
        ):
            got, want = draw(np.random.default_rng(seed)), recipe(np.random.default_rng(seed))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_a_stacked_draw_is_sequential_single_draws(n):
    for seed in range(20):
        for draw in (random_unitary, random_hermitian, lambda rng, size=None: random_hermitian(rng, 4, size)):
            stack = draw(np.random.default_rng(seed), size=n)
            rng = np.random.default_rng(seed)
            singles = np.array([draw(rng) for _ in range(n)])
            assert stack.shape == singles.shape and stack.tobytes() == singles.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_tensor_consistency(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng)
    b = random_hermitian(rng)
    assert np.abs(partial_trace(tensor(a, b), 1) - a * np.trace(b)).max() < 1e-12

