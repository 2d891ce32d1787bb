"""The library runs on the standard library alone (``dependencies = []``).

Every module under ``src/pcdres`` may import only standard-library modules
and ``pcdres`` itself; a third-party import would need a runtime dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcdres"
MODULES = sorted(SRC.glob("*.py"))


def imported_roots(path: Path) -> set[str]:
    """The top-level names of the absolute imports in ``path``."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_pcdres(path):
    allowed = set(sys.stdlib_module_names) | {"pcdres"}
    assert sorted(imported_roots(path) - allowed) == []
