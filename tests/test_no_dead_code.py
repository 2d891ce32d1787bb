"""No module under ``src/pcdres`` carries an unused import or an unused private helper.

An imported name is used when the importing module reads it; in
``__init__.py`` a name listed in ``__all__`` counts as used.  A private
definition (its name starts with ``_`` and is not a dunder) is a top-level
function, class or assignment, or a method in a class body.  It is used
when some module under ``src/pcdres`` reads its name outside its own
definition, as a name, an attribute or an imported name.

The prose names no private helper that is gone: each private name that a
docstring under ``src/pcdres`` or ``README.md`` quotes in backticks, bare
(``_x``), dotted (``convert._x``) or in a ``:func:``/``:meth:`` role, is
defined under ``src/pcdres``.  The module docstrings under ``tests`` are
held to the private names they qualify by a module of ``src/pcdres``: each
``convert._x`` they quote is defined in ``convert``.  This file's own
docstring, whose names are examples, is left out.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcdres"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name)


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


# a dotted name in backticks; single ones also match inside ``x`` and roles
_QUOTED = re.compile(r"`~?([A-Za-z_][\w.]*\w)`")


def _defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level, in a class body, or as a ``__slots__`` entry."""
    names = set()
    for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return names


def _docstrings(tree: ast.Module) -> str:
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(
        ast.get_docstring(n) or "" for n in ast.walk(tree) if isinstance(n, nodes)
    )


def stale_private_names(sources: dict[str, str], prose: dict[str, str]) -> list[str]:
    """``where:name`` for each private name quoted in the prose or docstrings but defined nowhere."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = set().union(*map(_defined_names, trees.values()))
    texts = {**{name: _docstrings(tree) for name, tree in trees.items()}, **prose}
    stale = []
    for where, text in texts.items():
        for quoted in _QUOTED.findall(text):
            name = quoted.rsplit(".", 1)[-1]
            if _private(name) and name not in defined and f"{where}:{name}" not in stale:
                stale.append(f"{where}:{name}")
    return stale


def stale_qualified_names(sources: dict[str, str], docs: dict[str, str]) -> list[str]:
    """``where:module._name`` for each such name quoted in ``docs`` that the module lacks.

    ``sources`` maps file names to module sources; only names qualified by
    one of those modules, as ``convert._x`` or ``pcdres.convert._x``, count.
    """
    defined = {Path(name).stem: _defined_names(ast.parse(src)) for name, src in sources.items()}
    stale = []
    for where, text in docs.items():
        for quoted in _QUOTED.findall(text):
            *qualifier, name = quoted.split(".")
            module = qualifier[-1] if qualifier else None
            if _private(name) and module in defined and name not in defined[module]:
                stale.append(f"{where}:{module}.{name}")
    return stale


def test_detector_finds_stale_private_names_in_prose():
    source = (
        '"""Reads ``convert._gone`` and ``_LIMIT``; see :func:`_kept`."""\n'
        "_LIMIT = 4\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "def _kept():\n"
        '    """Unlike :meth:`Box._lost`, calls :meth:`~mod.Box._read` on ``_slot``."""\n'
        "class Box:\n"
        "    __slots__ = ('_slot',)\n"
        "    _size: int = 3\n"
        "    def _read(self):\n"
        '        """Not ``_b`` nor ``1_Z`` nor ``__init__`` nor ``f(_x)``; ``_none``."""\n'
    )
    prose = {"README.md": "Uses `Box._size` and `_a`, not `_old` nor ``_older``.\n"}
    assert stale_private_names({"mod": source}, prose) == [
        "mod:_gone", "mod:_lost", "mod:_none", "README.md:_old", "README.md:_older"
    ]
    sources = {"mod.py": source, "other.py": "_gone = 2\n"}
    docs = {
        "test_a.py": "Fills ``mod._kept`` and ``pcdres.mod._gone``; ``other._gone`` is there.",
        "test_b.py": "Bare ``_old``, ``Box._old`` and ``other._kept``.",
    }
    assert stale_qualified_names(sources, docs) == ["test_a.py:mod._gone", "test_b.py:other._kept"]


def test_prose_names_only_private_names_that_exist():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    prose = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    assert stale_private_names(sources, prose) == []
    docs = {
        path.name: ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))) or ""
        for path in TESTS
    }
    assert stale_qualified_names(sources, docs) == []
