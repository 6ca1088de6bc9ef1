import ast
import itertools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from conftest import local_move, package_trees
from twinscope import linalg, mds, schmidt, state, twins, verify
from twinscope.linalg import (
    PAULI,
    partial_trace,
    pauli,
    pauli_coordinates,
    random_unitary,
    tensor,
)
from twinscope.mds import (
    BINARY_EDGE,
    GENERIC_INTERIOR,
    NON_STATE,
    bell_state,
    bell_t_vector,
    build_T,
    canonicalize,
    classify,
    edge_mixture,
    is_state,
    random_edge_t,
    random_interior_t,
    state_test_rounding,
    t_from_weights,
    validate_density_matrix,
    weights_from_t,
)
from twinscope.mds import _is_mds, _su2_from_rotation

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


def test_membership_cut_is_never_looser_than_the_gate():
    # w0 = -5e-9 lies inside the 1e-8 gate, w0 = -2e-8 outside it
    inside = t_from_weights(np.array([-5e-9, 0.3, 0.35, 0.35 + 5e-9]))
    outside = t_from_weights(np.array([-2e-8, 0.3, 0.35, 0.35 + 2e-8]))
    for tol in (1e-8, 1e-4, 0.09):
        assert is_state(inside, tol).ok
        assert not is_state(outside, tol).ok
        cls = classify(outside, tol)
        assert cls.kind == NON_STATE
        assert cls.detail.endswith("< -1e-08")
    # below the gate the cut is --tol itself: the default does not move
    assert not is_state(inside).ok
    assert is_state(inside, 1e-8).ok and not is_state(inside, 4e-9).ok


def test_is_state_agreement_on_grid():
    # weight test and eigenvalue test agree over a coarse cube grid
    axis = np.linspace(-1, 1, 21)
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                v = is_state(np.array([t1, t2, t3]))
                assert v.ok == (v.min_weight >= -1e-9)
                assert v.ok == (v.min_eigenvalue >= -1e-9)


def test_state_test_rounding_scales_with_weight_mass():
    assert state_test_rounding(np.array([0.25, 0.25, 0.25, 0.25])) == 1e-12
    assert state_test_rounding(np.array([-1.0, 1.0, 1.0, 1.0])) == 4e-12


def test_state_test_rounding_is_bitwise_numpys_sum():
    # the Python-float sum of four |w_k| rounds as numpy's sum does, for a list or an array
    rng = np.random.default_rng(61)
    for _ in range(2000):
        for w in (weights_from_t(rng.uniform(-1.5, 1.5, 3)), rng.standard_normal(4)):
            want = linalg.ROUNDING_TOL * max(1, float(np.abs(w).sum()))
            for given in (w, w.tolist()):
                got = state_test_rounding(given)
                assert type(got) is float and got.hex() == want.hex()


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


def test_classify_names_the_later_of_two_tied_smallest_weights():
    # w2 and w3 tie at the bottom: a stable sort drops w2 as the smallest and names w3
    cls = classify(t_from_weights((0.4, 0.4, 0.1, 0.1)))
    assert cls.kind == GENERIC_INTERIOR
    assert "the second smallest, w3 = 0.1," in cls.detail


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


def test_edge_mixture_rejects_a_non_edge():
    with pytest.raises(ValueError) as info:
        edge_mixture(classify(bell_t_vector(0)))
    assert str(info.value) == "edge_mixture expects a binary edge, got bell_vertex"


@pytest.mark.parametrize(
    "fn, arg, message",
    [
        (t_from_weights, [0.5, 0.5, 0.0], "expected 4 weights, got shape (3,)"),
        (weights_from_t, [0.1, 0.2], "expected a 3-component t-vector, got shape (2,)"),
        (build_T, np.zeros((2, 2)), "expected a 3-component t-vector, got shape (4,)"),
    ],
)
def test_sign_table_maps_reject_a_wrong_shape(fn, arg, message):
    with pytest.raises(ValueError) as info:
        fn(arg)
    assert str(info.value) == message


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
        assert _is_mds(pauli_coordinates(validate_density_matrix(bell_state(k)[1])))
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = rng.dirichlet(np.ones(4))
        assert _is_mds(pauli_coordinates(validate_density_matrix(build_T(t_from_weights(w)))))
    up = np.array([1, 0], dtype=complex)
    not_mds = tensor(np.outer(up, up), np.eye(2) / 2)
    assert not _is_mds(pauli_coordinates(validate_density_matrix(not_mds)))


def test_build_T_map_matches_einsum_definition():
    # build_T(t) = (1/4)(I x I + sum_i t_i sigma_i x sigma_i), as one einsum over the products
    products = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(4, 4, 4, 4)
    rng = np.random.default_rng(41)
    for t in [*rng.uniform(-1, 1, (200, 3)), *(bell_t_vector(k) for k in range(4))]:
        direct = np.einsum("i,iiab->ab", np.concatenate(([1.0], t)), products) / 4
        assert np.array_equal(build_T(t), direct)
    assert not mds._T_MAP.flags.writeable


def test_validate_density_matrix_returns_exact_hermitian_part():
    rho = build_T(np.array([0.2, 0.1, -0.05]))
    # exactly Hermitian input comes back entry for entry
    assert np.array_equal(validate_density_matrix(rho), rho)
    near = rho.copy()
    near[0, 1] += 5e-9  # inside the 1e-8 gate
    h = validate_density_matrix(near)
    assert np.array_equal(h, (near + near.conj().T) / 2)
    assert np.array_equal(h, h.conj().T)


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


def test_validate_density_matrix_stack_is_a_batch_of_scalars():
    rng = np.random.default_rng(53)
    good = [local_move(build_T(t), random_unitary(rng), random_unitary(rng))
            for t in ([0.2, 0.1, -0.05], [0.4, -0.4, 1.0], [-1.0, -1.0, -1.0])]
    stack = validate_density_matrix(np.array(good))
    for rho, h in zip(good, stack):
        assert np.array_equal(h, validate_density_matrix(rho))
    one = validate_density_matrix(np.array(good[:1]))
    assert one.shape == (1, 4, 4)
    assert np.array_equal(one[0], validate_density_matrix(good[0]))
    non_hermitian = good[1].copy()
    non_hermitian[0, 1] += 1e-3
    bad_trace = 1.5 * good[1]
    negative = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    for bad in (non_hermitian, bad_trace, negative):
        with pytest.raises(ValueError) as scalar:
            validate_density_matrix(bad)
        for members in ([bad, good[0]], [good[0], good[2], bad]):
            with pytest.raises(ValueError) as stacked:
                validate_density_matrix(np.array(members))
            assert str(stacked.value) == str(scalar.value)
    with pytest.raises(ValueError, match=r"^expected a 4x4 density matrix, got \(2, 2, 2\)$"):
        validate_density_matrix(np.zeros((2, 2, 2)))


def test_non_finite_input_is_named():
    for t in ([np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf]):
        for fn in (weights_from_t, is_state, classify):
            with pytest.raises(ValueError, match=r"^t-vector \[.*\] has a non-finite component$"):
                fn(np.array(t))
    with pytest.raises(ValueError, match=r"^density matrix has a non-finite entry$"):
        validate_density_matrix(np.full((4, 4), np.nan))


def test_validation_memo_rechecks_a_matrix_changed_in_place(guard_callers):
    calls = guard_callers
    t = np.array([0.2, 0.1, -0.05])
    rho = build_T(t)
    assert is_state(t).ok
    validate_density_matrix(rho)
    validate_density_matrix(rho)
    assert len(calls) == 0
    rho[0, 3] = rho[3, 0] = 2.0  # still Hermitian with unit trace, no longer positive
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(rho)
    rho[0, 3] = rho[3, 0] = 0.0
    rho[0, 0] += 0.5
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(rho)


def test_validation_memo_hands_out_fresh_arrays(guard_callers):
    calls = guard_callers
    t = np.array([0.4, -0.4, 1.0])
    rho = build_T(t)
    assert is_state(t).ok
    first = validate_density_matrix(rho)
    first[:] = 7.0
    second = validate_density_matrix(rho)
    assert second is not first and second.flags.writeable
    assert np.array_equal(second, rho)
    second[0, 0] = 3.0
    assert np.array_equal(validate_density_matrix(rho), rho)
    # every validation was a hit on the record, each handing out its own copy
    assert len(calls) == 0


def test_validation_memo_serves_alternating_matrices(guard_callers):
    calls = guard_callers
    t = np.array([0.2, 0.1, -0.05])
    a = build_T(t)
    assert is_state(t).ok
    b = a.copy()
    b[0, 1] += 5e-9  # inside the gate: its Hermitian part differs from a
    not_a_state = np.eye(4, dtype=complex)
    for n in range(1, 4):
        assert np.array_equal(validate_density_matrix(a), a)
        assert np.array_equal(validate_density_matrix(b), (b + b.conj().T) / 2)
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(not_a_state)
        # a is recorded and runs no guard; b and not_a_state are guarded on each call
        assert len(calls) == 2 * n
        assert mds._last_accepted == a.tobytes()


def test_validation_memo_never_holds_a_stack(guard_callers):
    calls = guard_callers
    t = np.array([0.2, 0.1, -0.05])
    rho = build_T(t)
    assert is_state(t).ok
    stack = np.array([rho, rho])
    # a stack of the recorded T(t) is still guarded
    for n in range(1, 4):
        assert np.array_equal(validate_density_matrix(stack), stack)
        assert len(calls) == n
    validate_density_matrix(rho)
    assert len(calls) == 3
    validate_density_matrix(stack)
    assert len(calls) == 4


# a t whose smallest Bell weight sits at the 1e-8 gate: at --tol 1e-7 its weight passes
# (-9.99999999474e-9) and the smallest eigenvalue of T(t) fails (-1.00000000086e-8)
SLIVER_T = np.array([0.976960117838385, -0.18603611084318827, 0.20907603300480326])


def _unit_weights(raw: list[float]) -> np.ndarray:
    w = np.array(raw)
    return w / w.sum()


@st.composite
def _t_and_tol(draw):
    """(t, tol): a vertex, an edge point or an interior point at the default tol, or a
    point whose smallest weight lies in [-1e-8, 0] at tol 1e-7."""
    kind = draw(st.sampled_from(["vertex", "edge", "interior", "gate"]))
    if kind == "vertex":
        return bell_t_vector(draw(st.integers(0, 3))), mds.DEFAULT_TOL
    if kind == "edge":
        u = draw(st.floats(-0.99, 0.99))
        axis, case = draw(st.integers(1, 3)), draw(st.sampled_from("AB"))
        return random_edge_t(np.random.default_rng(0), axis, case, parameter=u), mds.DEFAULT_TOL
    rest = draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    if kind == "interior":
        return t_from_weights(_unit_weights([draw(st.floats(0.01, 1.0)), *rest])), mds.DEFAULT_TOL
    # a weight of exactly -1e-8 lands on either side of each test's cut after rounding
    low = -draw(st.one_of(st.just(1e-8), st.floats(0.0, 1e-8)))
    w = np.insert(_unit_weights(rest) * (1 - low), draw(st.integers(0, 3)), low)
    return t_from_weights(w), 1e-7


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


@settings(max_examples=300, deadline=None)
@given(_t_and_tol())
def test_an_admitted_t_is_the_gates_record(case):
    t, tol = case
    rho = build_T(t)
    with mock.patch.object(mds, "_last_accepted", None):
        try:
            full = validate_density_matrix(rho)  # the full path, with the record cleared
        except ValueError:
            full = None
        sentinel = (b"", np.zeros((4, 4), dtype=complex))
        mds._last_accepted = sentinel
        verdict = is_state(t, tol)
        if not verdict.ok:
            assert mds._last_accepted is sentinel
            return
        # is_state admits only what the gate admits, and records the gate's own result
        assert full is not None
        calls = []
        with (
            mock.patch.object(linalg, "hermitian_check", _counting(calls, linalg.hermitian_check)),
            mock.patch.object(
                _umath_linalg, "eigvalsh_lo", _counting(calls, _umath_linalg.eigvalsh_lo)
            ),
        ):
            got = validate_density_matrix(rho)
            assert calls == []
            # the counters see the gate's guard and its eigenvalue kernel when the record is not hit
            mds._last_accepted = None
            validate_density_matrix(rho)
            assert calls == ["hermitian_check", "eigvalsh_lo"]
        assert got.tobytes() == full.tobytes() and got.flags.writeable


def test_is_state_rejects_what_the_gate_rejects():
    verdict = is_state(SLIVER_T, 1e-7)
    assert verdict.min_weight >= -1e-8 > verdict.min_eigenvalue
    assert not verdict.ok
    cls = classify(SLIVER_T, 1e-7)
    assert cls.kind == NON_STATE
    assert cls.detail == "min eigenvalue of T(t) = -1.00000000086e-08 < -1e-08"
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-08"):
        validate_density_matrix(build_T(SLIVER_T))
    # at the default tol the weight test rejects it first, as before
    assert classify(SLIVER_T).detail == "weight w0 = -9.99999999474e-09 < -1e-09"


def test_a_rejected_t_leaves_the_record(guard_callers):
    calls = guard_callers
    kept_t = np.array([0.2, 0.1, -0.05])
    kept = build_T(kept_t)
    for t, tol in ((np.array([1.0, 1, 1]), mds.DEFAULT_TOL), (SLIVER_T, 1e-7)):
        assert is_state(kept_t).ok
        record = mds._last_accepted
        calls.clear()
        assert not is_state(t, tol).ok
        assert mds._last_accepted is record
        assert np.array_equal(validate_density_matrix(kept), kept) and calls == []


def test_is_state_admission_pairs_each_thread_with_its_own_matrix(monkeypatch):
    monkeypatch.setattr(mds, "_last_accepted", None)
    rng = np.random.default_rng(61)
    points = [random_interior_t(rng) for _ in range(3)]
    points += [bell_t_vector(1), np.array([0.4, -0.4, 1.0])]
    wrong = []

    def work(t):
        want = build_T(t).tobytes()
        for _ in range(300):
            if not is_state(t).ok or validate_density_matrix(build_T(t)).tobytes() != want:
                wrong.append(1)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in points]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not wrong


def test_operator_schmidt_skips_the_guard_only_on_an_admitted_state(guard_callers):
    calls = guard_callers
    t = np.array([0.2, 0.1, -0.05])
    rho = build_T(t)
    guarded = schmidt.operator_schmidt(rho)
    assert len(calls) == 1
    assert is_state(t).ok
    admitted = schmidt.operator_schmidt(rho)
    assert len(calls) == 1
    for a, b in zip(
        (guarded.coefficients, *guarded.left_ops, *guarded.right_ops),
        (admitted.coefficients, *admitted.left_ops, *admitted.right_ops),
    ):
        assert a.tobytes() == b.tobytes()
    # a Hermitian operator that is not a state is guarded, with a state on the record
    assert schmidt.operator_schmidt(np.kron(pauli(1), pauli(1))).schmidt_rank == 1
    assert len(calls) == 2


def test_validation_leaves_the_record(guard_callers):
    calls = guard_callers
    rng = np.random.default_rng(29)
    t = np.array([0.4, -0.4, 1.0])
    assert is_state(t).ok
    matrix = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
    # a validation reads the record and never writes it: each one runs the guard again
    for n in (1, 2):
        validate_density_matrix(matrix)
        assert len(calls) == n
        assert mds._last_accepted == build_T(t).tobytes()
    assert np.array_equal(validate_density_matrix(build_T(t)), build_T(t))
    assert len(calls) == 2


def test_operator_schmidt_still_rejects_what_the_gate_let_through(guard_callers):
    t = np.array([0.2, 0.1, -0.05])
    assert is_state(t).ok
    off = build_T(t)
    off[0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"^operator_schmidt: input is not Hermitian"):
        schmidt.operator_schmidt(off)
    # the 1e-8 gate admits a 5e-9 deviation; the 1e-9 guard still rejects the input itself
    near = build_T(t)
    near[0, 1] += 5e-9
    validate_density_matrix(near)
    with pytest.raises(ValueError, match=r"^operator_schmidt: input is not Hermitian"):
        schmidt.operator_schmidt(near)


def _functions_assigning(tree: ast.AST, name: str) -> list[str]:
    """Names of the innermost functions that bind `name` (as a variable, an attribute or
    a global declaration); module-level bindings are listed as '<module>'."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        elif isinstance(node, ast.Global) and name in node.names:
            found.append(where)
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Name) and sub.id == name) or (
                    isinstance(sub, ast.Attribute) and sub.attr == name
                ):
                    found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_admission_record_has_one_writer():
    # the record is the bytes of T(t) for the last t is_state admitted; only is_state binds
    # it after the module's None
    writers = {}
    for name, tree in package_trees().items():
        for where in _functions_assigning(tree, "_last_accepted"):
            writers.setdefault(f"{name}:{where}", 0)
            writers[f"{name}:{where}"] += 1
    # is_state declares the global and assigns it once
    assert writers == {"mds.py:<module>": 1, "mds.py:is_state": 2}


def test_correlation_matrix_diagonal_for_generating_states():
    # the correlation matrix canonicalize decomposes is 4 R[1:, 1:]
    t = np.array([0.3, -0.2, 0.55])
    c = 4 * pauli_coordinates(build_T(t))[1:, 1:]
    assert np.abs(c - np.diag(t)).max() < 1e-12


def test_mds_reads_no_partial_trace(monkeypatch):
    calls = []
    trace = partial_trace

    def counted(rho, keep):
        calls.append(keep)
        return trace(rho, keep)

    assert not hasattr(mds, "partial_trace")
    # every twinscope binding of partial_trace (twins reads tables from Pauli coordinates)
    for module in (linalg, schmidt, twins, verify):
        if hasattr(module, "partial_trace"):
            monkeypatch.setattr(module, "partial_trace", counted)
    rng = np.random.default_rng(23)
    rho = local_move(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))
    assert _is_mds(pauli_coordinates(validate_density_matrix(rho)))
    canonicalize(rho)
    assert calls == []


def test_disordered_gate_is_local_unitary_invariant():
    # rho_2 - I/2 = 1.3e-8 (sigma_1 + sigma_3)/sqrt(2): every entry is 9.2e-9, inside the
    # 1e-8 gate, but its operator norm 1.3e-8 is not, and no local unitary changes that
    kick = 1.3e-8 * (pauli(1) + pauli(3)) / np.sqrt(2)
    rho = build_T(np.array([0.3, -0.2, 0.1])) + tensor(HALF_I2, kick)
    assert np.abs(partial_trace(rho, 2) - HALF_I2).max() <= 1e-8
    rng = np.random.default_rng(0)
    moves = [local_move(rho, random_unitary(rng), random_unitary(rng)) for _ in range(20)]
    for state in [rho, *moves]:
        assert max(mds._disorder(pauli_coordinates(state))) == pytest.approx(1.3e-8, rel=1e-6)
        assert not _is_mds(pauli_coordinates(validate_density_matrix(state)))
        with pytest.raises(ValueError, match="1.300e-08 in operator norm"):
            canonicalize(state)


def test_residual_bound_is_the_local_part_norm():
    # ||L||_HS of L = (rho_1 - I/2) x I/2 + I/2 x (rho_2 - I/2), built with partial_trace
    rng = np.random.default_rng(29)
    for _ in range(20):
        psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = psi @ psi.conj().T
        rho /= np.trace(rho).real
        d1, d2 = partial_trace(rho, 1) - HALF_I2, partial_trace(rho, 2) - HALF_I2
        local = np.linalg.norm(tensor(d1, HALF_I2) + tensor(HALF_I2, d2))
        bound = mds._residual_bound(pauli_coordinates(rho))
        assert abs(bound - mds.RESIDUAL_TOL - local) <= 1e-15


def test_canonicalize_fixed_point():
    t = np.array([0.4, -0.4, 1.0])
    cf = canonicalize(build_T(t))
    assert cf.residual <= 1e-9
    # canonical order: |t| descending, tie broken by signed value
    assert np.allclose(cf.t, [1.0, 0.4, -0.4], atol=1e-10)
    assert sorted(np.abs(cf.t)) == pytest.approx(sorted(np.abs(t)), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["vertex", "edge-midpoint", "a,a,-a"]),
    index=st.integers(0, 5),
    a=st.floats(0.05, 1 / 3),
)
def test_canonical_axis_order_on_tied_states(seed, family, index, a):
    if family == "vertex":
        t = bell_t_vector(index % 4)
    elif family == "edge-midpoint":
        t = random_edge_t(None, index // 2 + 1, "AB"[index % 2], parameter=0.0)
    else:
        t = np.array([a, a, -a])
    rng = np.random.default_rng(seed)
    cf = canonicalize(local_move(build_T(t), random_unitary(rng), random_unitary(rng)))
    assert cf.residual <= 1e-9
    # |t| descending; where two |t_i| tie (to rounding), the signed values descend
    eps = 1e-12
    for x, y in itertools.pairwise(cf.t.tolist()):
        assert abs(x) >= abs(y) - eps
        assert abs(abs(x) - abs(y)) > eps or x >= y - eps


def test_canonicalize_maximally_mixed():
    cf = canonicalize(np.eye(4, dtype=complex) / 4)
    assert np.abs(cf.t).max() < 1e-12
    assert cf.residual <= 1e-9


def test_canonicalize_roundtrip_random_scrambles():
    rng = np.random.default_rng(10)
    for _ in range(30):
        t = random_interior_t(rng)
        scrambled = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
        cf = canonicalize(scrambled)
        assert cf.residual <= 1e-9
        assert np.abs(np.sort(np.abs(cf.t)) - np.sort(np.abs(t))).max() < 1e-9
        rebuilt = tensor(cf.u1, cf.u2) @ scrambled @ tensor(cf.u1, cf.u2).conj().T
        assert np.linalg.norm(rebuilt - build_T(cf.t)) <= 1e-9


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


def test_random_edge_t_explicit_parameter():
    rng = np.random.default_rng(0)
    t = random_edge_t(rng, 3, "A", parameter=0.6)
    assert np.allclose(t, [-0.6, 0.6, 1.0])


@pytest.mark.parametrize(
    "axis, case, parameter, message",
    [
        (0, "A", None, "edge axis must be 1..3, got 0"),
        (4, "B", 0.5, "edge axis must be 1..3, got 4"),
        (1, "C", None, "edge case must be 'A' or 'B', got 'C'"),
        (2, "A", 1.0, "edge parameter must be in (-1, 1), got 1.0"),
        (3, "B", -1.5, "edge parameter must be in (-1, 1), got -1.5"),
    ],
)
def test_random_edge_t_rejects_a_bad_axis_case_or_parameter(axis, case, parameter, message):
    with pytest.raises(ValueError) as info:
        random_edge_t(np.random.default_rng(0), axis, case, parameter=parameter)
    assert str(info.value) == message


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


def test_canonicalize_guards_each_lift_on_the_adjoint_it_reads(monkeypatch):
    rng = np.random.default_rng(1979)
    rho = local_move(build_T(random_interior_t(rng)), random_unitary(rng), random_unitary(rng))
    adjoints = []
    adjoint = mds.pauli_adjoint
    monkeypatch.setattr(mds, "pauli_adjoint", lambda u: adjoints.append(u) or adjoint(u))
    cf = canonicalize(rho)
    # one adjoint per lift serves both the guard and the residual
    assert len(adjoints) == 2
    assert np.array_equal(adjoints[0], cf.u1) and np.array_equal(adjoints[1], cf.u2)
    # the conjugate quaternion lifts the inverse rotation: the guard names the mismatch
    lift = mds._su2_from_rotation
    monkeypatch.setattr(mds, "_su2_from_rotation", lambda r: lift(r).conj().T)
    with pytest.raises(mds.InternalConsistencyError, match=r"SU\(2\) lift does not reproduce"):
        canonicalize(rho)


def test_canonical_form_carries_its_pauli_adjoints():
    rng = np.random.default_rng(1980)
    vectors = [bell_t_vector(k) for k in range(4)]
    vectors += [random_edge_t(rng, k % 3 + 1, "AB"[k % 2]) for k in range(6)]
    vectors += [random_interior_t(rng) for _ in range(10)]
    for t in vectors:
        cf = canonicalize(local_move(build_T(t), random_unitary(rng), random_unitary(rng)))
        assert cf.o1.tobytes() == linalg.pauli_adjoint(cf.u1).tobytes()
        assert cf.o2.tobytes() == linalg.pauli_adjoint(cf.u2).tobytes()
        # a t-vector keeps the identity frame, whose adjoints are pauli_adjoint(I) bit for bit
        frame = state.State(mds.DEFAULT_TOL, 0, t=t).frame
        identity = linalg.pauli_adjoint(frame.u1).tobytes()
        assert frame.o1.tobytes() == frame.o2.tobytes() == identity == np.eye(4).tobytes()


def _disorder_by_norms(R):
    """The array formula _disorder replaced, kept as its reference."""
    a = abs(2 * R[0, 0] - 0.5)
    return float(a + 2 * np.linalg.norm(R[1:, 0])), float(a + 2 * np.linalg.norm(R[0, 1:]))


def _residual_bound_by_norm(R):
    """The array formula _residual_bound replaced, kept as its reference."""
    local = np.concatenate(([2 * R[0, 0] - 0.5], R[1:, 0], R[0, 1:]))
    return mds.RESIDUAL_TOL + 2 * float(np.linalg.norm(local))


def test_float_disorder_and_bound_match_the_norm_formulas():
    rng = np.random.default_rng(1981)
    coords = []
    for _ in range(200):
        psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = psi @ psi.conj().T
        coords.append(pauli_coordinates(rho / np.trace(rho).real))
    # near the 1e-8 gate: Bell-diagonal coordinates with local parts of norm 0.8e-8 to 1.2e-8
    for _ in range(200):
        R = pauli_coordinates(build_T(random_interior_t(rng)))
        local = rng.standard_normal((2, 3))
        local *= rng.uniform(0.4e-8, 0.6e-8, (2, 1)) / np.linalg.norm(local, axis=1, keepdims=True)
        R[1:, 0], R[0, 1:] = local
        R[0, 0] += rng.uniform(-1e-10, 1e-10)
        coords.append(R)
    decisions = set()
    for R in coords:
        r = R.tolist()
        for got, expected in zip(mds._disorder(r), _disorder_by_norms(R)):
            assert abs(got - expected) <= 4 * np.spacing(expected)
        expected = _residual_bound_by_norm(R)
        assert abs(mds._residual_bound(r) - expected) <= 4 * np.spacing(expected)
        decisions.add(mds._is_mds(R))
        assert mds._is_mds(R) == (max(_disorder_by_norms(R)) <= mds.STATE_VALIDATION_TOL)
    assert decisions == {True, False}


def _canonical_by_determinants(R):
    """(t, u1, u2) with the factors' signs read off np.linalg.det, as before the triple product."""
    a, s, bt = np.linalg.svd(R[1:, 1:] / R[0, 0])
    da, db = np.linalg.det(np.stack([a, bt])).tolist()
    if da < 0:
        a[:, 2] = -a[:, 2]
    if db < 0:
        bt[2] = -bt[2]
    t = s.copy()
    t[2] *= np.sign(da) * np.sign(db)
    return t, mds._su2_from_rotation(a.T), mds._su2_from_rotation(bt)


_SVD_F = _umath_linalg.svd_f


def _svd_f_reflected(m, **kwargs):
    """numpy's full SVD kernel, last left and right singular vectors negated: the same product."""
    a, s, bt = _SVD_F(m, **kwargs)
    return a * [1, 1, -1], s, bt * [[1], [1], [-1]]


def test_triple_product_sign_is_the_determinant_sign(monkeypatch):
    rng = np.random.default_rng(1982)
    for _ in range(100):
        a, _, bt = np.linalg.svd(rng.standard_normal((3, 3)))
        # each factor and its reflection: the last column, or the last row, negated
        for f in (a, a * [1, 1, -1], bt, bt * [[1], [1], [-1]]):
            d = mds._det3(f.tolist())
            assert np.sign(d) == np.sign(np.linalg.det(f))
            assert abs(abs(d) - 1) <= 1e-12
    seen = []
    det3 = mds._det3
    monkeypatch.setattr(mds, "_det3", lambda m: seen.append(np.sign(det3(m))) or det3(m))
    for _ in range(40):
        t = random_interior_t(rng)
        R = pauli_coordinates(local_move(build_T(t), random_unitary(rng), random_unitary(rng)))
        forms = []
        # the kernel beneath both the LAPACK seam (mds) and np.linalg.svd (the reference)
        for svd in (_SVD_F, _svd_f_reflected):
            with mock.patch.object(_umath_linalg, "svd_f", svd):
                cf = mds._canonicalize(R)
                ref_t, ref_u1, ref_u2 = _canonical_by_determinants(R)
            assert cf.t.tobytes() == ref_t.tobytes()
            assert cf.u1.tobytes() == ref_u1.tobytes() and cf.u2.tobytes() == ref_u2.tobytes()
            forms.append(b"".join(x.tobytes() for x in (cf.t, cf.u1, cf.u2)))
        # the flips undo the reflection: the same canonical form either way
        assert forms[0] == forms[1]
    # both reflection branches ran, each alone: da < 0 with db > 0, and db < 0 with da > 0
    signs = set(zip(seen[::2], seen[1::2]))
    assert {(-1.0, 1.0), (1.0, -1.0)} <= signs
