"""The library surface is what something calls, and README's quickstart runs.

A name in twinscope._EXPORTS stays when code other than its own definition
and its own tests reads it: in src/, benchmarks/, tools/, the acceptance
suite or README's library quickstart. A read is an import of the name, the
bare name in its own module, or the name as an attribute of a twinscope
module. Docstrings and comments are not code, and the rest of tests/ is the
names' own tests.

Every class the package defines is a typing.NamedTuple result, an exception,
or state.State, the one class that keeps parts computed on first read.
"""

import ast
import importlib
import re
import typing
from pathlib import Path

import numpy as np

from conftest import package_sources, package_trees
import twinscope
from twinscope import state

ROOT = Path(__file__).resolve().parent.parent
# the files outside src/twinscope whose reads count; the package's own modules come parsed
CALLER_FILES = (
    *sorted((ROOT / "benchmarks").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
)


def quickstart() -> str:
    """The python block under README's '## Library quickstart' heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def _exported_by(module: str) -> set[str]:
    """The exported names an import of, or an attribute on, a twinscope module reaches."""
    if module == "twinscope":
        return set(twinscope._MODULE_OF)
    return set(twinscope._EXPORTS.get(module.removeprefix("twinscope."), ()))


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def exported_reads(tree: ast.Module, own_module: str | None) -> set[str]:
    """Exported names that a file's code reads, outside each name's own definition.

    own_module is the twinscope module the file is (its bare names count), or None.
    """
    own = set(twinscope._EXPORTS.get(own_module, ()))
    # node -> the exported name whose definition holds it
    definition_of = {
        id(node): stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name in own
        for node in ast.walk(stmt)
    }
    aliases, reads = {}, set()  # local name -> the twinscope module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "twinscope":
                    aliases[alias.asname or "twinscope"] = alias.name if alias.asname else "twinscope"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import inside the package
                module = "twinscope" + (f".{module}" if module else "")
            if module.split(".")[0] != "twinscope":
                continue
            for alias in node.names:
                if module == "twinscope" and alias.name in twinscope._EXPORTS:
                    aliases[alias.asname or alias.name] = f"twinscope.{alias.name}"
                elif alias.name in _exported_by(module):
                    reads.add(alias.name)
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            head, _, rest = (_dotted(node.value) or "").partition(".")
            if head in aliases and node.attr in _exported_by(".".join(filter(None, (aliases[head], rest)))):
                name = node.attr
        if name is not None and definition_of.get(id(node)) != name:
            reads.add(name)
    return reads


def test_every_export_has_a_caller():
    called = set()
    for name, tree in package_trees().items():
        called |= exported_reads(tree, name.removesuffix(".py"))
    for path in CALLER_FILES:
        called |= exported_reads(ast.parse(path.read_text(encoding="utf-8")), None)
    called |= exported_reads(ast.parse(quickstart()), None)
    assert sorted(set(twinscope._MODULE_OF) - called) == []


def test_reads_count_code_not_docstrings():
    source = '''
"""eigh and linalg.svd are named here, in a docstring."""
import numpy as np
from twinscope import linalg
from twinscope.mds import classify
import twinscope as ts

np.linalg.eigh
linalg.tensor
ts.twin_space
ts.linalg.pauli
'''
    reads = exported_reads(ast.parse(source), None)
    assert reads == {"classify", "tensor", "twin_space", "pauli"}
    own = "def tensor(a, b):\n    return tensor(b, a)\n\n\ndef pauli(i):\n    return tensor(i, i)\n"
    assert exported_reads(ast.parse(own), "linalg") == {"tensor"}


def test_readme_quickstart_runs():
    namespace = {}
    exec(compile(quickstart(), "README.md", "exec"), namespace)
    # the quickstart's comments: a binary edge, twin dimension 2, its Schmidt coefficients, entangled
    assert namespace["cls"].kind == "binary_edge"
    assert namespace["space"].dimension == 2
    expected = np.array([1, 1, 0.4, 0.4]) / np.sqrt(2.32)
    assert np.abs(namespace["os_"].coefficients - expected).max() <= 1e-12
    assert namespace["separable"] is False


def test_every_result_is_a_named_tuple():
    other_classes, caches = [], []
    for name, tree in package_trees().items():
        if name != "state.py" and "cached_property" in package_sources()[name]:
            caches.append(name)
        classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if not classes:
            continue  # __main__ runs the CLI on import
        module = importlib.import_module(f"twinscope.{name.removesuffix('.py')}")
        for class_name in classes:
            cls = getattr(module, class_name, None)
            named_tuple = typing.NamedTuple in getattr(cls, "__orig_bases__", ())
            exception = isinstance(cls, type) and issubclass(cls, BaseException)
            if not (named_tuple or exception or cls is state.State):
                other_classes.append(class_name)
    assert (other_classes, caches) == ([], [])
