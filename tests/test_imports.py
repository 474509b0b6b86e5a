"""finsym itself needs only the standard library and numpy: hypothesis,
sympy and mpmath stay in the ``test`` extra.  numpy is imported only inside
functions, so importing a module never loads it."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "finsym").rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "finsym"}


def absolute_imports(path: Path, *, in_functions: bool = True) -> set[str]:
    """Top-level names of every absolute import in ``path``; without
    ``in_functions``, only those outside a function body, which run when the
    module is imported."""
    names, todo = set(), [ast.parse(path.read_text(), filename=str(path))]
    while todo:
        node = todo.pop()
        if not in_functions and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_sources_are_found():
    assert any(p.name == "quadratic.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_and_numpy(path):
    assert absolute_imports(path) <= ALLOWED, absolute_imports(path) - ALLOWED


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_numpy_is_imported_only_inside_functions(path):
    assert "numpy" not in absolute_imports(path, in_functions=False)
