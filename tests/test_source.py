"""Package-wide source checks: module doctests, one home for tolerances,
guards that survive `python -O`."""

import ast
import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def test_tolerant_compares_go_through_numutil():
    # math.isclose is a second tolerance compare with its own slack rule;
    # every tolerant compare of the package is numutil's close or leq
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "isclose" in line
    ]
    assert found == []


def test_relative_compares_go_through_numutil():
    # a slack scaled by hand, `rel * max(1.0, |x|)`, is a second relative
    # compare beside numutil.close and leq, and one that is not exact in
    # exact mode; numutil's own definitions are the only ones allowed
    scaled = re.compile(r"\*\s*max\(\s*1(\.0)?\s*,")
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
        if path.name != "numutil.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if scaled.search(line)
    ]
    assert found == []


def test_no_assert_statements():
    # `python -O` strips assert statements, so every guard in the package
    # raises explicitly instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_guards_hold_under_optimize():
    # hot-path guards fire the same way when asserts are stripped
    code = """
from bagsched import make_instance, make_job, realize_slice, simulate
inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3])])
profile = simulate(inst).intervals[0].profile
for call in (lambda: inst.capacity_prefix(-1), lambda: inst.machine_speed(3),
             lambda: realize_slice(profile, inst, (1.0, 1.0))):
    try:
        call()
    except AssertionError as exc:
        print(exc)
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bagsched.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "capacity_prefix of -1 machines",
        "machine 3 outside 1..2",
        "slice [1.0, 1.0) has no length",
    ]
