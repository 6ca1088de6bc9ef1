"""The tolerance policy lives in one table: linalg's module constants."""

import ast
import inspect
import re
import tokenize
from pathlib import Path

import pytest

from twinscope import linalg, mds, schmidt, twins

PACKAGE = Path(linalg.__file__).resolve().parent
EXPONENT_LITERAL = re.compile(r"\d+(\.\d*)?e-\d+")


def _table_lines() -> set[int]:
    """Lines of linalg's module-level assignments of a literal: the tolerance table."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    return {
        node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    }


def test_no_tolerance_literal_outside_the_table():
    table = _table_lines()
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER or not EXPONENT_LITERAL.fullmatch(tok.string):
                    continue
                if path.name == "linalg.py" and tok.start[0] in table:
                    continue
                strays.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert strays == []


@pytest.mark.parametrize(
    "fn",
    [
        mds.validate_density_matrix,
        mds._is_mds,
        schmidt.pure_twin_partners,
        schmidt.pure_twin_partner,
    ],
    ids=lambda fn: fn.__name__,
)
def test_single_value_tolerances_are_constants(fn):
    assert "tol" not in inspect.signature(fn).parameters


@pytest.mark.parametrize(
    "fn, option",
    [(mds.random_interior_t, "min_weight"), (mds.random_edge_t, "margin"), (linalg.random_unitary, "dim")],
    ids=["random_interior_t", "random_edge_t", "random_unitary"],
)
def test_single_value_sampler_options_are_constants(fn, option):
    # every caller draws with the one value, so 0.01, 0.05 and 2 are written in the body
    assert option not in inspect.signature(fn).parameters


def test_default_tol_is_only_a_parameter_default():
    # DEFAULT_TOL is the rank cut --tol sets; a residual bound reads RESIDUAL_TOL, its own role
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                allowed |= {id(d) for d in node.args.defaults + node.args.kw_defaults if d}
            elif isinstance(node, ast.Call) and any(
                isinstance(a, ast.Constant) and a.value == "--tol" for a in node.args
            ):
                allowed |= {id(n) for n in ast.walk(node)}
        strays += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id == "DEFAULT_TOL"
            and id(node) not in allowed
        ]
    assert strays == []
    tree = ast.parse(inspect.getsource(twins.is_twin_pair))
    assert [ast.unparse(d) for d in tree.body[0].args.defaults] == ["RESIDUAL_TOL"]
