import ast
import functools
import sys
from pathlib import Path

import pytest

from twinscope import linalg, mds
from twinscope.report import format_complex

PACKAGE = Path(linalg.__file__).resolve().parent


def local_move(rho, u1, u2):
    """(u1 x u2) rho (u1 x u2)^dag, for a matrix or a stack (..., 4, 4): a scrambled input."""
    u = linalg.tensor(u1, u2)
    return u @ rho @ u.conj().T


def matrix_file(path, rho):
    """Write rho as a `matrix 4 4` state file, entries in the re+imi form; returns str(path)."""
    rows = [" ".join(format_complex(z) for z in row) for row in rho]
    path.write_text("matrix 4 4\n" + "\n".join(rows) + "\n")
    return str(path)


@functools.cache
def package_sources() -> dict[str, str]:
    """The source of each module of the package by file name, in sorted order, read once."""
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def package_trees() -> dict[str, ast.Module]:
    """package_sources parsed once: the static pins share these trees and never edit them."""
    return {name: ast.parse(source) for name, source in package_sources().items()}


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
