"""Every memo in ``src/pcdres`` has a finite ``maxsize`` or a stated reason it stays small.

A memo is a function wrapped by ``functools.lru_cache`` or
``functools.cache``, as a decorator or as ``name = lru_cache(...)(f)``.
Its ``maxsize`` is read from the call: a bare ``lru_cache`` has 128,
``cache`` has None, and a name is looked up among the module's top-level
constant assignments.  A memo with no bound is unbounded, and it must be
on :data:`UNBOUNDED`, which says what keeps it small.
"""

import ast
import operator
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcdres"

UNBOUNDED = {
    "cli.py:_build_parser": "takes no arguments, so it holds one parser",
    "convert.py:_free_funs": (
        "keyed by variant and two sizes; the monotone screens call it at sizes up to "
        "their size limit and the plain TheoryInstance scans at sizes within their bounds"
    ),
    "oracle.py:_fun_graphs": (
        "keyed by two sizes, which the relational plain scan keeps within its bounds"
    ),
    "monotones.py:_kept_unions": "called only at size limits 0-3, where _keeps_tables holds",
    "monotones.py:_kept_wirings": (
        "called only at size limits 0-3, where _keeps_tables holds, once per variant"
    ),
}

_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Pow: operator.pow,
    ast.LShift: operator.lshift,
}


def _value(node: ast.expr, constants: dict[str, ast.expr]):
    """A constant expression's value, following top-level names; raises ValueError if not one."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name) and node.id in constants:
        return _value(constants[node.id], constants)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_value(node.left, constants), _value(node.right, constants))
    raise ValueError(f"not a constant: {ast.unparse(node)}")


def _cache_kind(node: ast.expr) -> str | None:
    """``"lru_cache"`` or ``"cache"`` if ``node`` names that functools wrapper."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in ("lru_cache", "cache") else None


def _maxsize(wrapper: ast.expr, constants: dict[str, ast.expr]):
    """The ``maxsize`` a memo wrapper expression sets, or None if it is not one."""
    if _cache_kind(wrapper) == "cache":
        return None
    if _cache_kind(wrapper) == "lru_cache":
        return 128
    if isinstance(wrapper, ast.Call) and _cache_kind(wrapper.func) == "lru_cache":
        for keyword in wrapper.keywords:
            if keyword.arg == "maxsize":
                return _value(keyword.value, constants)
        return _value(wrapper.args[0], constants) if wrapper.args else 128
    raise LookupError


def memos(source: str) -> dict[str, object]:
    """``{name: maxsize}`` for each memo defined at the top level of ``source``."""
    tree = ast.parse(source)
    constants = {
        t.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            wrappers = [(node.name, d) for d in node.decorator_list]
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.targets[0], ast.Name)
        ):
            wrappers = [(node.targets[0].id, node.value.func)]
        else:
            continue
        for name, wrapper in wrappers:
            try:
                found[name] = _maxsize(wrapper, constants)
            except LookupError:
                continue
    return found


def all_memos() -> dict[str, object]:
    """``{"module.py:name": maxsize}`` over every module under ``src/pcdres``."""
    return {
        f"{path.name}:{name}": size
        for path in sorted(SRC.glob("*.py"))
        for name, size in memos(path.read_text(encoding="utf-8")).items()
    }


def test_detector_reads_every_form_of_memo():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "_LIMIT = 1 << 4\n"
        "@lru_cache(maxsize=None)\n"
        "def a(x): return x\n"
        "@functools.lru_cache(maxsize=_LIMIT)\n"
        "def b(x): return x\n"
        "@functools.cache\n"
        "def c(): return 1\n"
        "@lru_cache\n"
        "def d(x): return x\n"
        "@lru_cache(64)\n"
        "def e(x): return x\n"
        "@staticmethod\n"
        "def plain(x): return x\n"
        "f = functools.lru_cache(maxsize=2 * _LIMIT)(a)\n"
        "g = lru_cache(maxsize=None)(b)\n"
        "h = sorted(a)\n"
    )
    assert memos(source) == {
        "a": None, "b": 16, "c": None, "d": 128, "e": 64, "f": 32, "g": None
    }


def test_every_unbounded_memo_says_why_it_stays_small():
    unbounded = {name for name, size in all_memos().items() if size is None}
    assert unbounded - set(UNBOUNDED) == set(), "give these a finite maxsize"
    assert set(UNBOUNDED) - unbounded == set(), "no longer unbounded: drop from the allowlist"


def test_every_bounded_memo_is_listed_with_its_size():
    found = all_memos()
    assert all(isinstance(size, int) and size > 0 for size in found.values() if size is not None)
    assert found["convert.py:_first_candidate"] == 4096
