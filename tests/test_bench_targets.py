"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` names its targets by module and attribute path, and
``Tracer.install`` fails on a missing one, so a rename in ``src`` would break
the traced benchmark run without this check.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
