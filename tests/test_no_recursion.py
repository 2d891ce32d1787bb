"""No function under ``src/pcdres`` calls itself.

A recursion whose depth grows with the input raises ``RecursionError`` at
about a thousand levels, so the library walks its inputs with loops.  A
function calls itself when its body calls its own name; a method does when
its body calls its own name on its first parameter (``self.name(...)``).  A
method that calls a module-level function of the same name is a delegation,
not a recursion.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcdres"
MODULES = sorted(SRC.glob("*.py"))


def _self_calls(fn: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool):
    """The line numbers where ``fn``'s body calls ``fn`` itself."""
    params = fn.args.posonlyargs + fn.args.args
    owner = params[0].arg if is_method and params else None
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if is_method:
            hit = (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == owner
            )
        else:
            hit = isinstance(callee, ast.Name) and callee.id == fn.name
        if hit:
            yield node.lineno


def recursive_functions(source: str) -> list[str]:
    """``name:line`` for every self-call of a function or method in ``source``."""
    tree = ast.parse(source)
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    hits = [
        (line, fn.name)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line in _self_calls(fn, id(fn) in methods)
    ]
    return [f"{name}:{line}" for line, name in sorted(hits)]


def test_detector_finds_direct_and_nested_recursion():
    source = (
        "def fact(n):\n"
        "    return 1 if n == 0 else n * fact(n - 1)\n"
        "def outer(xs):\n"
        "    def extend():\n"
        "        extend()\n"
        "    extend()\n"
        "class C:\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1)\n"
        "    def witness(self, f):\n"
        "        return witness(self, f)\n"
    )
    assert recursive_functions(source) == ["fact:2", "extend:5", "walk:9"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert recursive_functions(path.read_text(encoding="utf-8")) == []
