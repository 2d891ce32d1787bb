"""The examples in the package's docstrings run and hold.

Every ``pcdres`` module goes through ``doctest.testmod``; a module without
examples passes trivially, so the examples known to exist are counted too.
"""

import doctest
import importlib
import pkgutil

import pytest

import pcdres

# every module but ``__main__``, which runs the command line when imported
MODULES = ["pcdres"] + sorted(
    info.name
    for info in pkgutil.iter_modules(pcdres.__path__, "pcdres.")
    if info.name != "pcdres.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_profile_examples_are_attempted():
    assert doctest.testmod(importlib.import_module("pcdres.profiles")).attempted >= 3
