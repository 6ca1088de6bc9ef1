"""The Bell sign table lives in one place, mds.BELL_SIGNS, and every closed form reads it."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from twinscope import mds, twins
from twinscope.linalg import PAULI2
from twinscope.mds import _BELL_PROJECTORS, BELL_SIGNS

PACKAGE = Path(mds.__file__).resolve().parent
SUPPORTS = [s for n in range(1, 5) for s in itertools.combinations(range(4), n)]


def test_table_is_orthogonal_and_read_only():
    assert BELL_SIGNS.shape == (4, 4)
    assert np.array_equal(BELL_SIGNS[:, 0], np.ones(4))
    assert np.array_equal(BELL_SIGNS @ BELL_SIGNS.T, 4 * np.eye(4))
    assert not BELL_SIGNS.flags.writeable


def test_rows_are_the_projectors_correlations():
    # the independent route: Tr[P_k (sigma_i x sigma_i)] of the projectors built from _BELL_VECTORS
    measured = np.einsum("kab,iiba->ki", _BELL_PROJECTORS, PAULI2).real
    assert np.abs(measured - BELL_SIGNS).max() <= 1e-12


@pytest.mark.parametrize("support", SUPPORTS, ids=lambda s: "".join(map(str, s)))
def test_sign_twins_match_the_oracle_on_every_support(support):
    closed = twins._sign_twins(list(support))
    oracle = twins.simultaneous_twins(_BELL_PROJECTORS[list(support)])
    expected = {1: 4, 2: 2, 3: 1, 4: 1}[len(support)]
    assert closed.dimension == oracle.dimension == expected
    assert twins.subspace_residual(closed, oracle) <= 1e-12


def _is_unit_sign(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and abs(node.value) == 1
    )


def test_no_sign_pattern_outside_the_table():
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "BELL_SIGNS"
                for target in node.targets
            ):
                table.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.List, ast.Tuple))
                and len(node.elts) in (3, 4)
                and all(_is_unit_sign(e) for e in node.elts)
                and id(node) not in table
            ):
                strays.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert strays == []
