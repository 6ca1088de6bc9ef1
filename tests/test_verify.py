import numpy as np

from twinscope import verify
from twinscope.linalg import random_unitary, tensor
from twinscope.mds import BELL_VERTEX, DEFAULT_TOL, bell_state


def test_oracle_twin_space_computed_once(monkeypatch):
    rng = np.random.default_rng(3)
    u = tensor(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_state(2)[1] @ u.conj().T
    oracle = verify.twin_space
    calls = []

    def counted(state, tol):
        calls.append(state)
        return oracle(state, tol)

    monkeypatch.setattr(verify, "twin_space", counted)
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 0)
    results = verify.run_verification(ctx)
    assert ctx.cls.kind == BELL_VERTEX
    assert all(r.passed for r in results)
    # rho once in make_context, and the locally moved state once in the
    # local-unitary-covariance check
    assert len(calls) == 2
    assert np.array_equal(calls[0], rho)
