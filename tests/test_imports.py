"""finsym itself needs only the standard library: numpy, hypothesis, sympy
and mpmath stay in the ``test`` extra.  The one numpy import is inside the
dense oracle ``ising.transfer_matrix``, which no finsym computation calls."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "finsym").rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"finsym"}


def absolute_imports(path: Path) -> set[tuple[str | None, str]]:
    """(innermost enclosing function or None, top-level module name) of every
    absolute import in ``path``."""
    found = set()
    todo = [(ast.parse(path.read_text(), filename=str(path)), None)]
    while todo:
        node, function = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            found.update((function, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((function, node.module.partition(".")[0]))
        todo.extend((child, function) for child in ast.iter_child_nodes(node))
    return found


def test_sources_are_found():
    assert any(p.name == "quadratic.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib(path):
    names = {name for function, name in absolute_imports(path)
             if (path.name, function, name) != ("ising.py", "transfer_matrix", "numpy")}
    assert names <= ALLOWED, names - ALLOWED


def test_numpy_is_imported_only_by_the_dense_transfer_oracle():
    assert {(path.name, function) for path in SOURCES
            for function, name in absolute_imports(path)
            if name == "numpy"} == {("ising.py", "transfer_matrix")}
