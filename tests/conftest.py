import sys

import pytest

from twinscope import linalg, mds


def local_move(rho, u1, u2):
    """(u1 x u2) rho (u1 x u2)^dag, for a matrix or a stack (..., 4, 4): a scrambled input."""
    u = linalg.tensor(u1, u2)
    return u @ rho @ u.conj().T


@pytest.fixture
def guard_callers(monkeypatch):
    """The functions whose Hermitian guard runs, one entry per linalg.hermitian_check call.

    The admission record starts cleared, so no earlier test's T(t) skips a guard.
    """
    monkeypatch.setattr(mds, "_last_accepted", None)
    callers = []
    guard = linalg.hermitian_check

    def recording(*args, **kwargs):
        # the first caller outside linalg: the function whose guard this is
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "twinscope.linalg":
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return guard(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_check", recording)
    return callers
