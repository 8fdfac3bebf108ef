"""The package imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "so2mra"
ALLOWED = {"numpy", "so2mra"}


def _imported_roots(tree: ast.Module) -> set:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_only_stdlib_and_numpy(path):
    roots = _imported_roots(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    foreign = roots - ALLOWED - set(sys.stdlib_module_names)
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_checker_sees_a_foreign_import():
    tree = ast.parse("import scipy.linalg\nfrom .moments import debias\nfrom hypothesis import given\n")
    assert _imported_roots(tree) - ALLOWED - set(sys.stdlib_module_names) == {"scipy", "hypothesis"}
