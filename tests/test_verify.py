import numpy as np
import pytest

from twinscope import cli, linalg, mds, schmidt, twins, verify
from twinscope.linalg import local_conj, random_unitary, tensor
from twinscope.mds import BELL_VERTEX, DEFAULT_TOL, bell_state, bell_t_vector, build_T


def test_oracle_twin_space_computed_once(monkeypatch):
    rng = np.random.default_rng(3)
    u = tensor(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_state(2)[1] @ u.conj().T
    oracle = verify._twin_space
    calls = []

    def counted(state, tol):
        calls.append(state)
        return oracle(state, tol)

    monkeypatch.setattr(verify, "_twin_space", counted)
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 0)
    results = verify.run_verification(ctx)
    assert ctx.cls.kind == BELL_VERTEX
    assert all(r.passed for r in results)
    # rho once in make_context, and the locally moved state once in the
    # local-unitary-covariance check; both as validated
    assert len(calls) == 2
    assert np.array_equal(calls[0], mds.validate_density_matrix(rho))
    assert calls[1] is ctx.moved[2]


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

    for module in (mds, twins, schmidt, verify):
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
    draw = verify.random_unitary
    monkeypatch.setattr(verify, "random_unitary", lambda rng: calls.append(rng) or draw(rng))
    rng = np.random.default_rng(11)
    rho = local_conj(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 5)
    assert all(r.passed for r in verify.run_verification(ctx))
    # canonical-form-roundtrip and local-unitary-covariance share (v1, v2)
    assert len(calls) == 2
    v1, v2, moved = ctx.moved
    fresh = ctx.rng()
    assert np.array_equal(v1, draw(fresh)) and np.array_equal(v2, draw(fresh))
    assert np.array_equal(moved, mds.validate_density_matrix(local_conj(ctx.rho, v1, v2)))


def _scrambled_edge(seed):
    rng = np.random.default_rng(seed)
    return local_conj(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))


def test_pauli_coordinates_twice_per_verification(monkeypatch):
    calls = []
    coordinates = linalg.pauli_coordinates

    def counted(rho):
        calls.append(rho)
        return coordinates(rho)

    for module in (mds, schmidt, verify):
        monkeypatch.setattr(module, "pauli_coordinates", counted)
    ctx = verify.make_context(_scrambled_edge(13), None, DEFAULT_TOL, 0)
    assert all(r.passed for r in verify.run_verification(ctx))
    # the input once in make_context, the moved frame state once in canonical-form-roundtrip
    assert len(calls) == 2
    assert calls[0] is ctx.rho and calls[1] is ctx.moved[2]


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
