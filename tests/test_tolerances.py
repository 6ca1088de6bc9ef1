"""The tolerance policy lives in one table: linalg's module constants."""

import ast
import inspect
import io
import re
import tokenize

import pytest

from conftest import package_sources, package_trees
from twinscope import linalg, mds, schmidt, twins

EXPONENT_LITERAL = re.compile(r"\d+(\.\d*)?e-\d+")


def _table_lines() -> set[int]:
    """Lines of linalg's module-level assignments of a literal: the tolerance table."""
    return {
        node.lineno
        for node in package_trees()["linalg.py"].body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    }


def test_no_tolerance_literal_outside_the_table():
    table = _table_lines()
    strays = []
    for name, source in package_sources().items():
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.NUMBER or not EXPONENT_LITERAL.fullmatch(tok.string):
                continue
            if name == "linalg.py" and tok.start[0] in table:
                continue
            strays.append(f"{name}:{tok.start[0]}: {tok.string}")
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
    for name, tree in package_trees().items():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                allowed |= {id(d) for d in node.args.defaults + node.args.kw_defaults if d}
            elif isinstance(node, ast.Call) and any(
                isinstance(a, ast.Constant) and a.value == "--tol" for a in node.args
            ):
                allowed |= {id(n) for n in ast.walk(node)}
        strays += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id == "DEFAULT_TOL"
            and id(node) not in allowed
        ]
    assert strays == []
    tree = ast.parse(inspect.getsource(twins.is_twin_pair))
    assert [ast.unparse(d) for d in tree.body[0].args.defaults] == ["RESIDUAL_TOL"]
