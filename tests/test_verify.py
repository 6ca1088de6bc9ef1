import numpy as np
import pytest

from twinscope import cli, linalg, mds, schmidt, state, twins, verify
from twinscope.linalg import local_conj, random_unitary, tensor
from twinscope.mds import BELL_VERTEX, DEFAULT_TOL, bell_state, bell_t_vector, build_T


def test_oracle_twin_space_computed_once(monkeypatch):
    rng = np.random.default_rng(3)
    u = tensor(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_state(2)[1] @ u.conj().T
    oracle = state._twin_space
    calls = []

    def counted(state, tol):
        calls.append(state)
        return oracle(state, tol)

    monkeypatch.setattr(state, "_twin_space", counted)
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 0)
    results = verify.run_verification(ctx)
    assert ctx.cls.kind == BELL_VERTEX
    assert all(r.passed for r in results)
    # rho once in make_context, and the locally moved state once in the
    # local-unitary-covariance check; both as validated
    assert len(calls) == 2
    assert np.array_equal(calls[0], mds.validate_density_matrix(rho))
    assert calls[1] is ctx.moved[2].rho


@pytest.mark.parametrize(
    "t, validations",
    [
        # rho (make_context) and the moved state (frame) once each, plus
        # one stack of the Bell components in the mixture-intersection check
        (bell_t_vector(1), 3),
        (np.array([0.4, -0.4, 1.0]), 3),
        (np.array([0.2, 0.1, -0.05]), 3),
    ],
)
def test_verify_validation_count_per_stratum(monkeypatch, t, validations):
    calls = []
    validate = mds.validate_density_matrix

    def counted(rho, *args, **kwargs):
        calls.append(rho)
        return validate(rho, *args, **kwargs)

    for module in (mds, twins, schmidt, state):
        if hasattr(module, "validate_density_matrix"):
            monkeypatch.setattr(module, "validate_density_matrix", counted)
    rng = np.random.default_rng(7)
    rho = local_conj(build_T(t), random_unitary(rng), random_unitary(rng))
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 0)
    results = verify.run_verification(ctx)
    assert all(r.passed for r in results)
    assert len(calls) == validations


def test_shared_frame_drawn_once(monkeypatch):
    calls = []
    draw = state.random_unitary
    monkeypatch.setattr(state, "random_unitary", lambda rng: calls.append(rng) or draw(rng))
    rng = np.random.default_rng(11)
    rho = local_conj(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 5)
    assert all(r.passed for r in verify.run_verification(ctx))
    # canonical-form-roundtrip and local-unitary-covariance share (v1, v2)
    assert len(calls) == 2
    v1, v2, moved = ctx.moved
    fresh = ctx.rng()
    assert np.array_equal(v1, draw(fresh)) and np.array_equal(v2, draw(fresh))
    assert np.array_equal(moved.rho, mds.validate_density_matrix(local_conj(ctx.rho, v1, v2)))


def test_a_raw_matrix_meets_the_gate():
    # off-Hermitian by ~7e-3: the gate names that, rather than canonicalization's residual
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    matrix = build_T(np.array([0.4, -0.4, 1.0])) + 1e-3 * (a - a.conj().T)
    message = r"density matrix is not Hermitian \(max deviation 6.986e-03\)"
    with pytest.raises(ValueError, match=message):
        mds.validate_density_matrix(matrix)
    with pytest.raises(ValueError, match=message):
        state.State(DEFAULT_TOL, 0, matrix=matrix).rho
    with pytest.raises(ValueError, match=message):
        verify.run_verification(state.State(DEFAULT_TOL, 0, matrix=matrix))


def _scrambled_edge(seed):
    rng = np.random.default_rng(seed)
    return local_conj(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))


def test_pauli_coordinates_twice_per_verification(monkeypatch):
    calls = []
    coordinates = linalg.pauli_coordinates

    def counted(rho):
        calls.append(rho)
        return coordinates(rho)

    for module in (mds, schmidt, state):
        monkeypatch.setattr(module, "pauli_coordinates", counted)
    ctx = verify.make_context(_scrambled_edge(13), None, DEFAULT_TOL, 0)
    assert all(r.passed for r in verify.run_verification(ctx))
    # the input once in make_context, the moved frame state once in canonical-form-roundtrip
    assert len(calls) == 2
    assert calls[0] is ctx.rho and calls[1] is ctx.moved[2].rho


def test_canonical_form_roundtrip_reports_a_missed_bound(monkeypatch, capsys):
    ctx = verify.make_context(_scrambled_edge(19), None, DEFAULT_TOL, 0)
    monkeypatch.setattr(mds, "_residual_bound", lambda R: 0.0)
    result = verify._check_canonical_form_roundtrip(ctx)
    assert result.name == "canonical-form-roundtrip" and not result.passed
    # a --t input keeps the identity frame, so only the round trip canonicalizes
    assert cli.run(["verify", "--t", "0.4,-0.4,1"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert "- name: canonical-form-roundtrip\n      passed: false" in out
    assert "failed: 1" in out


def _failed_checks(out):
    """Names of the checks a verify report marks passed: false."""
    lines = out.splitlines()
    return [
        line.split(": ", 1)[1]
        for line, after in zip(lines, lines[1:])
        if line.lstrip().startswith("- name: ") and after.strip() == "passed: false"
    ]


def _moved_off_stratum(ctx):
    """Fault: the seeded move lands on an edge instead of a local image of the input."""
    eye = np.eye(2, dtype=complex)
    return eye, eye, state.State(ctx.tol, ctx.seed, matrix=build_T(np.array([0.4, -0.4, 1.0])))


def _vertex_for_every_state(t, tol, verdict):
    """Fault: classify calls every state Bell vertex 2."""
    cls = mds.classify(t, tol, verdict)
    return cls._replace(kind=BELL_VERTEX, vertex=2, axis=None, case=None, edge_parameter=None)


def _first_block(rho, keep):
    """Fault: the reduced state is read as twice the first diagonal block of rho."""
    return 2 * np.asarray(rho)[:2, :2]


def _oracle_with_a2_scaled(scale):
    """Fault: the a2 half of c of the first nontrivial oracle row is scaled by `scale`."""

    def oracle(rho, tol):
        space = twins._twin_space(rho, tol)
        rows = space.rows.copy()
        rows[1, 5:] *= scale
        return twins.TwinSpace(rows=rows, singular_value_gap=space.singular_value_gap)

    return oracle


def _sign_flipped_t(w):
    """Fault: t_from_weights returns -t."""
    return -mds.t_from_weights(w)


def _T_of_minus_t(t):
    """Fault: build_T builds T(-t)."""
    return mds.build_T(-np.asarray(t))


def _edge_weights_swapped(cls):
    """Fault: edge_mixture gives each Bell index of the edge the other's weight."""
    (i, wi), (j, wj) = mds.edge_mixture(cls).items()
    return {i: wj, j: wi}


@pytest.mark.parametrize(
    "attribute, fault, t, check, detail, failed",
    [
        (
            "moved",
            property(_moved_off_stratum),
            "1,-1,1",
            verify._check_local_unitary_covariance,
            "dimension changed 4 -> 2",
            ["canonical-form-roundtrip", "local-unitary-covariance"],
        ),
        (
            "classify",
            _vertex_for_every_state,
            "0.4,-0.4,1",
            verify._check_pure_state_commutant,
            "input is not a rank-one projector",
            [
                "vertex-sign-table",
                "twin-dimension-law",
                "analytic-twins-in-oracle",
                "pure-state-commutant",
            ],
        ),
        (
            "partial_trace",
            _first_block,
            "-1,-1,-1",
            verify._check_pure_state_commutant,
            "random observable fails to commute with I/2",
            ["pure-state-commutant"],
        ),
        (
            "_twin_space",
            _oracle_with_a2_scaled(-1.0),
            "1,-1,1",
            verify._check_perfect_correlation,
            "3 nondegenerate pairs, worst mismatch 1.000e+00",
            [
                "analytic-twins-in-oracle",
                "mixture-intersection-twins",
                "local-unitary-covariance",
                "pure-state-commutant",
                "perfect-correlation",
            ],
        ),
        (
            "_twin_space",
            _oracle_with_a2_scaled(2.0),
            "0.4,-0.4,1",
            verify._check_twin_spectra_match,
            "largest sorted-spectrum deviation 5.000e-01",
            [
                "analytic-twins-in-oracle",
                "mixture-intersection-twins",
                "local-unitary-covariance",
                "twin-spectra-match",
            ],
        ),
        (
            "t_from_weights",
            _sign_flipped_t,
            "0.2,0.1,-0.05",
            verify._check_weights_roundtrip,
            "t residual 4.000e-01",
            ["weights-roundtrip"],
        ),
        (
            "build_T",
            _T_of_minus_t,
            "1,-1,1",
            verify._check_bell_mixture_identity,
            "entrywise residual 1.000e+00",
            ["bell-mixture-identity"],
        ),
        (
            "edge_mixture",
            _edge_weights_swapped,
            "0.4,-0.4,1",
            verify._check_edge_weight_consistency,
            "closed-form edge weights match within 4.000e-01",
            ["edge-weight-consistency"],
        ),
    ],
    ids=[
        "covariance-dimension",
        "commutant-not-rank-one",
        "commutant-not-commuting",
        "anticorrelated-pair",
        "unequal-spectra",
        "weights-sign-flip",
        "mixture-of-minus-t",
        "edge-weights-swapped",
    ],
)
def test_failure_branch_witnesses(monkeypatch, capsys, attribute, fault, t, check, detail, failed):
    target = {"moved": state.State, "classify": state, "_twin_space": state}.get(attribute, verify)
    monkeypatch.setattr(target, attribute, fault)
    ctx = state.State(DEFAULT_TOL, 0, t=np.array([float(v) for v in t.split(",")]))
    result = check(ctx)
    assert not result.passed
    assert result.detail.startswith(detail)
    # verify reports the failed check and exits 2, with no internal error
    assert cli.run(["verify", f"--t={t}"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert _failed_checks(out) == failed
    assert f"failed: {len(failed)}\n" in out
