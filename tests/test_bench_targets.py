"""Every name the benchmark reads from the package still exists.

``perfbench/tracer.py`` names its targets by module and attribute path, and
``Tracer.install`` fails on a missing one; the workloads read names such as
``pcdres.theory_for`` and ``pcdres.cli.main``.  A rename in ``src`` would
break the benchmark run without these checks.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the tracer imports only the standard library
    return module.TARGETS


TARGETS = _load_targets()


def test_targets_found():
    assert TARGETS


@pytest.mark.parametrize("module_name, path, span", TARGETS, ids=[t[2] + ":" + t[1] for t in TARGETS])
def test_tracer_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    if "." in path:
        # methods are looked up in the class's own namespace, as install does
        cls_name, attr = path.split(".")
        target = vars(getattr(owner, cls_name))[attr]
    else:
        target = getattr(owner, path)
    assert callable(target)


def _dotted(node):
    """``pcdres.a.b`` for an attribute chain on the name ``pcdres`` or a string naming one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if re.fullmatch(r"pcdres(\.\w+)+", node.value) else None
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id == "pcdres":
        return ".".join(["pcdres", *reversed(parts)])
    return None


def _bench_names():
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        names.update(map(_dotted, ast.walk(ast.parse(path.read_text(), str(path)))))
    return sorted(names - {None})


BENCH_NAMES = _bench_names()


def test_bench_names_found():
    assert {"pcdres.theory_for", "pcdres.REL_TIMES_THEORY", "pcdres.cli.main"} <= set(BENCH_NAMES)


@pytest.mark.parametrize("dotted", BENCH_NAMES)
def test_bench_name_resolves(dotted):
    obj = importlib.import_module("pcdres")
    for part in dotted.split(".")[1:]:
        if not hasattr(obj, part):
            # a submodule, such as pcdres.cli, that the package does not import itself
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
