"""No module under ``src/pcdres`` carries an unused import or an unused private helper.

An imported name is used when the importing module reads it; in
``__init__.py`` a name listed in ``__all__`` counts as used.  A private
definition (its name starts with ``_`` and is not a dunder) is a top-level
function, class or assignment, or a method in a class body.  It is used
when some module under ``src/pcdres`` reads its name outside its own
definition, as a name, an attribute or an imported name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcdres"
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """``name:line`` for each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [f"{name}:{line}" for name, line in sorted(imported.items()) if name not in read]


def _reads(node: ast.AST, skip: ast.AST | None = None):
    """Every name read below ``node`` as a name, an attribute or an import, except in ``skip``."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree: ast.Module):
    """``(name, node)`` for each top-level def, class or assignment and each method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private definition read nowhere."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not _private(name):
                continue
            if not any(name in _reads(t, skip=node) for t in trees.values()):
                unused.append(f"{module}:{name}")
    return unused


def test_detectors_find_unused_imports_and_private_helpers():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .finset import FinFun, compose as _compose\n"
        "def _used(f: FinFun):\n"
        "    return json.dumps(f)\n"
        "def _dead():\n"
        "    return _dead\n"
        "class _Kept:\n"
        "    def __init__(self):\n"
        "        self._read()\n"
        "    def _read(self):\n"
        "        return _LIMIT\n"
        "    def _unread(self):\n"
        "        return _unread\n"
        "_LIMIT = 1 << 4\n"
        "_CACHE: dict = {}\n"
        "_alias = _used\n"
        "__all__ = ['_Kept']\n"
    )
    other = "from .mod import _Kept\nx = mod._used\n"
    assert unused_imports(source) == ["_compose:3", "os:2"]
    assert unused_imports("from .m import a, b\n__all__ = ['a']\n") == ["b:1"]
    sources = {"mod": source, "other": other}
    assert unused_private_definitions(sources) == [
        "mod:_dead", "mod:_unread", "mod:_CACHE", "mod:_alias"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_helper_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_private_definitions(sources) == []
