"""The ``>>>`` examples in the docstrings of every domscan module pass,
and so do the Python examples in the README."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import domscan
from backends import HAVE_NUMPY

README = Path(__file__).resolve().parent.parent / "README.md"


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


def readme_blocks():
    """Each ```` ```python ```` block of the README, named by the line its
    code starts on."""
    text = README.read_text()
    blocks = []
    for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, m.start(1)) + 1
        blocks.append(pytest.param(line, m.group(1), id=f"README.md:{line}"))
    return blocks


def test_readme_has_the_library_and_primitives_examples():
    assert len(readme_blocks()) == 2


@pytest.mark.parametrize("line, source", readme_blocks())
def test_readme_example_runs(line, source):
    # compiled at the README's own line numbers, so a traceback points there
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})
