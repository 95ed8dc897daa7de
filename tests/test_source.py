"""Package-wide source checks: module doctests, one home for tolerances,
guards that survive `python -O`, no public name without a package caller."""

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


# gen.py's 53-bit RNG scale: a float in [0, 1) from 53 random bits, no
# tolerance
RNG_SCALE = ("gen.py", "return (self.next_u64() >> 11) * (2.0 ** -53)")


def test_float_tolerances_live_in_numutil():
    # numutil names every float tolerance, rounding margin and float range
    # once; a literal 1e-<digits> or ** -<digits>, or a read of
    # sys.float_info, elsewhere would be a second, unnamed definition
    literal = re.compile(r"1e-\d|\*\*\s*-\s*\d|float_info")
    stray = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
        if path.name != "numutil.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if literal.search(line) and (path.name, line.strip()) != RNG_SCALE
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
    # a slack scaled by hand, `rel * max(1.0, |x|)` or `rel * float(x or 1)`,
    # is a second relative compare or slack beside numutil.close, leq and
    # scaled_tol, and one that is not exact in exact mode; numutil's own
    # definitions are the only ones allowed
    scaled = re.compile(
        r"\*\s*(max\(\s*1(\.0)?\s*,|float\([^()]*\bor\s+1(\.0)?\s*\))")
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
    # hot-path guards fire the same way when asserts are stripped, and a
    # refused capacity_prefix leaves nothing in its memo to answer later
    code = """
from bagsched import make_instance, make_job, realize_slice, simulate
inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3])])
profile = simulate(inst).intervals[0].profile
for call in (lambda: inst.capacity_prefix(-1),
             lambda: inst.capacity_prefix(-1),
             lambda: realize_slice(profile, inst, (1.0, 1.0))):
    try:
        call()
    except AssertionError as exc:
        print(exc)
print("memoized:", -1 in inst._capacity_memo)
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bagsched.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "capacity_prefix of -1 machines",
        "capacity_prefix of -1 machines",
        "slice [1.0, 1.0) has no length",
        "memoized: False",
    ]


def _names_used(node):
    """Every name a piece of code reads, attribute it takes or name it
    imports."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _package_trees():
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
    }


def test_public_names_have_a_package_caller():
    # a public function, class or method that only tests call is API kept
    # for them alone. A top-level name needs a use outside its own
    # definition: in another statement of its module, in another module, or
    # in the acceptance gate. An export from bagsched/__init__.py is not a
    # use by itself, since any name can be exported. A method needs a call
    # (x.m(...)) or a binding (f = x.m) in the package or the gate, and a
    # property a read in the package: a read of another record's field of
    # the same name is no use of a method.
    trees = _package_trees()
    statements = [
        (name, node, _names_used(node))
        for name, tree in trees.items() if name != "__init__.py"
        for node in tree.body
    ]
    gate = Path(__file__).with_name("test_acceptance.py")
    gate_tree = ast.parse(gate.read_text(), filename=str(gate))
    acceptance = _names_used(gate_tree)
    attributes = {
        sub.attr for tree in trees.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
    }
    called = set()
    for tree in (*trees.values(), gate_tree):
        for sub in ast.walk(tree):
            target = sub.func if isinstance(sub, ast.Call) else (
                sub.value if isinstance(sub, (ast.Assign, ast.AnnAssign)) else None)
            if isinstance(target, ast.Attribute):
                called.add(target.attr)

    def used(item):
        properties = {"property", "cached_property"}
        if any(getattr(d, "id", getattr(d, "attr", None)) in properties
               for d in item.decorator_list):
            return item.name in attributes
        return item.name in called

    found = []
    for name, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") and node.name not in acceptance and not any(
                node.name in used for _, other, used in statements
                if other is not node):
            found.append(f"{name}: {node.name}")
        if isinstance(node, ast.ClassDef):
            found += [
                f"{name}: {node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.startswith("_")
                and not used(item)
            ]
    assert found == [], found


def test_rates_never_read_a_size():
    # the scheduler is non-clairvoyant: assign_rates sees alive jobs'
    # weights and counts and the machines, never a task size, so no code in
    # rates.py takes an instance's jobs, a job's groups or a group's size
    found = [
        f"rates.py:{node.lineno}: .{node.attr}"
        for node in ast.walk(_package_trees()["rates.py"])
        if isinstance(node, ast.Attribute) and node.attr in ("jobs", "groups", "size")
    ]
    assert found == []


def test_one_export_list():
    # bagsched/__init__.py is the package's export list; a module's own
    # __all__ would be a second one that can drift from it
    found = [name for name, tree in _package_trees().items()
             if name != "__init__.py" and "__all__" in _names_used(tree)]
    assert found == []


def test_check_records_are_made_by_check_lists():
    # a record made outside report.CheckList.add is in no certificate's
    # checks, so its violations could never affect feasibility
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(bagsched.__file__).parent.glob("*.py"))
        if path.name != "report.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "CheckRecord(" in line
    ]
    assert found == []


def test_only_the_checker_decides_certificates():
    # a certifying split: dualcheck.check_dual alone makes records that
    # decide feasibility, and it never imports the code that builds what it
    # checks. A record is made by a CheckList's .add("name", ...); outside
    # the checker every such call must pass diagnostic=True
    trees = _package_trees()
    found = []
    for name, tree in trees.items():
        if name == "dualcheck.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and not any(kw.arg == "diagnostic"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True
                                for kw in node.keywords)):
                found.append(f"{name}:{node.lineno}: {node.args[0].value}")
    imported = set()  # every module path part and name the checker imports
    for node in ast.walk(trees["dualcheck.py"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names for part in alias.name.split("."))
            imported.update((getattr(node, "module", None) or "").split("."))
    found += [f"dualcheck.py imports {m}" for m in sorted(imported & {"duals", "blocks"})]
    assert found == []


def test_general_family_reads_one_classification():
    # classify_blocks decides each alive job's block and simple classes once
    # per interval, and the general family reads that record: duals takes
    # nothing else from blocks, and no module but blocks reads a window
    trees = _package_trees()
    taken = [
        alias.name
        for node in ast.walk(trees["duals.py"]) if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module == "blocks" or (node.module is None and alias.name == "blocks")
    ]
    assert taken == ["classify_blocks"]
    windows = {"SIMPLE_JOB_WINDOW", "SIMPLE_BLOCK_WINDOW"}
    assert [name for name, tree in trees.items()
            if name != "blocks.py" and _names_used(tree) & windows] == []


def test_every_fitting_constant_is_read():
    # a constant that no construction reads is a second, stale statement of
    # the analysis; every FittingConstants field must be taken as an
    # attribute somewhere in the package
    trees = _package_trees()
    fields = [
        item.target.id
        for node in trees["duals.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "FittingConstants"
        for item in node.body if isinstance(item, ast.AnnAssign)
    ]
    read = {
        sub.attr for tree in trees.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    assert fields
    assert [f for f in fields if f not in read] == []


def test_the_embedding_never_reads_its_own_primal_back():
    # schedule_to_primal keeps the ledger of its check as it writes x and U,
    # and hands it to check_primal; a call of _read, or a pass over x or U
    # (a loop, .items(), or x or U handed to a call that may iterate it; len
    # is the one call allowed), would read back what it has just written
    (fn,) = [node for node in _package_trees()["lp.py"].body
             if isinstance(node, ast.FunctionDef) and node.name == "schedule_to_primal"]

    def written(node):
        return isinstance(node, ast.Name) and node.id in ("x", "U")

    found = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.comprehension)) and written(node.iter):
            found.append(f"{node.iter.lineno}: iterates {node.iter.id}")
        elif isinstance(node, ast.Attribute) and written(node.value) and node.attr != "get":
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, (ast.Starred, ast.YieldFrom)) and written(node.value):
            found.append(f"{node.lineno}: unpacks {node.value.id}")
        elif isinstance(node, ast.Dict) and any(k is None and written(v)
                                                for k, v in zip(node.keys, node.values)):
            found.append(f"{node.lineno}: unpacks a dict of x or U")
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else None
            if name == "_read":
                found.append(f"{node.lineno}: calls {name}")
            elif name != "len":
                found += [f"{arg.lineno}: passes {arg.id} to a call"
                          for arg in node.args if written(arg)]
    checks = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "check_primal"]
    assert checks and all(any(kw.arg == "_sums" for kw in node.keywords)
                          for node in checks)
    assert found == []


def test_alpha_spans_have_one_settle_path():
    # check_dual settles an alpha span, in both modes, with one float test
    # on the reads of its inputs: one call of cover.require_below, and
    # SCREEN_MARGIN read once in the package, where check_dual picks the
    # exact mode's reads and margin, so that no helper between the reads
    # and that call screens a span or a piece a second way
    trees = _package_trees()
    (fn,) = [node for node in trees["dualcheck.py"].body
             if isinstance(node, ast.FunctionDef) and node.name == "check_dual"]
    inside = {id(node) for node in ast.walk(fn)}
    settles = [
        node for node in ast.walk(trees["dualcheck.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "require_below"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "cover"
    ]
    assert [id(node) in inside for node in settles] == [True]
    margins = [
        (name, id(node) in inside) for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "SCREEN_MARGIN"
        and isinstance(node.ctx, ast.Load)
    ]
    assert margins == [("dualcheck.py", True)]


def test_exact_numbers_are_built_in_numutil():
    # numutil.coerce builds every exact number as a Rational, whose
    # arithmetic is the kernel's fast path; a Fraction(...) call, or a call
    # of a Fraction method such as from_float, elsewhere would build a plain
    # Fraction whose arithmetic silently falls off it
    def names_fraction(node):
        return any(isinstance(sub, ast.Name) and sub.id == "Fraction"
                   or isinstance(sub, ast.Attribute) and sub.attr == "Fraction"
                   for sub in ast.walk(node))

    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items() if name != "numutil.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and names_fraction(node.func)
    ]
    assert found == []


def test_certificates_convert_exact_values_with_to_float():
    # a bare float() of an exact value past the float range raises
    # OverflowError: the band flags of a single-job certificate on sizes of
    # 10^400, and a failed check's sides, once killed verify --exact with
    # a traceback. The certificate modules convert with numutil.to_float,
    # which reads such a value as +-inf; blocks._log alone calls float(),
    # as it catches the OverflowError itself
    trees = _package_trees()
    (log,) = [node for node in trees["blocks.py"].body
              if isinstance(node, ast.FunctionDef) and node.name == "_log"]
    allowed = {id(node) for node in ast.walk(log)}
    found = [
        f"{name}:{node.lineno}"
        for name in ("blocks.py", "dualcheck.py", "duals.py", "report.py")
        for node in ast.walk(trees[name])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float" and id(node) not in allowed
    ]
    assert found == []
