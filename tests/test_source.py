"""Package-wide source checks: module doctests, one home for tolerances."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bagsched

MODULES = ["bagsched"] + sorted(
    f"bagsched.{m.name}" for m in pkgutil.iter_modules(bagsched.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_float_tolerances_live_in_numutil():
    # numutil names every float tolerance once; a literal elsewhere would be
    # a second, unnamed definition
    literal = re.compile(r"1e-\d")
    stray = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
        if path.name != "numutil.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if literal.search(line)
    ]
    assert stray == []
