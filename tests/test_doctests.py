"""The ``>>>`` examples in the docstrings of every domscan module pass."""

import doctest
import importlib
import pkgutil

import domscan
from backends import HAVE_NUMPY


def test_docstring_examples_pass():
    names = ["domscan", *(m.name for m in pkgutil.iter_modules(domscan.__path__, "domscan."))]
    if not HAVE_NUMPY:
        names.remove("domscan.vector")  # it imports numpy
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0
