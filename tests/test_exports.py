"""The package's export list: every name resolves, and none is listed twice.

A name left in ``__all__`` after its object was removed or renamed would
make ``from pcdres import *`` fail.
"""

import pcdres


def test_every_export_resolves():
    missing = [name for name in pcdres.__all__ if not hasattr(pcdres, name)]
    assert missing == []


def test_every_export_listed_once():
    names = pcdres.__all__
    assert sorted(set(names)) == sorted(names)
