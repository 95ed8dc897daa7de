"""LP bridge: emission, ingestion, schedule embedding, brute-force oracle."""

import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bagsched
from bagsched import (
    brute_force_opt,
    build_weaker_duals,
    check_lp_solution,
    emit_lp,
    gen_lower_bound,
    gen_random_ica,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    make_job,
    parse_lp_solution,
    schedule_to_primal,
    simulate,
    solution_objective,
    task_table,
    with_speedup,
)
from bagsched.lp import (
    LP_LINE_WIDTH,
    LpError,
    PrimalSolution,
    check_primal,
    primal_to_solution_values,
)
from bagsched.numutil import REL_TOL, SOLVER_REL, Rational, close, leq
from bagsched.sim import Placement, ScheduleSlice, Segment, realize_slice

from oracles import unit_slot_lp_solution, unit_slot_lp_value, wspt_cost
from support import (
    lp_of,
    random_lp_instance,
    single_machine_chain_instance,
    weaker_gamma,
)


def unit_instance():
    return make_instance([(1, 1)], [make_job(1, 1.0, [1])])


def test_emit_unit_example():
    text = emit_lp(unit_instance(), horizon=2)
    assert text.count("x_1_1_0") >= 1 and text.count("x_1_1_1") >= 1
    assert "x_1_1_2" not in text
    values = parse_lp_solution("x_1_1_0 1\nC_1 1\nU_1_0 1\n")
    assert check_lp_solution(unit_instance(), values, horizon=2) == []
    assert solution_objective(unit_instance(), values, horizon=2) == (
        pytest.approx(2.0))


def test_ingestion_catches_violations():
    inst = unit_instance()
    # half the demand is missing and C understates the busy machine time
    values = {"x_1_1_0": 0.5, "C_1": 0.25, "U_1_0": 1.0}
    names = {name for name, lhs, rhs in check_lp_solution(inst, values, 2)}
    assert any(n.startswith("demand") or n.startswith("done") for n in names)
    assert any(n.startswith("time") for n in names)


def test_parse_solution_format():
    values = parse_lp_solution("# comment\nx_1_1_0 0.5\n\nC_1 2.5\n")
    assert values == {"x_1_1_0": 0.5, "C_1": 2.5}
    with pytest.raises(LpError):
        parse_lp_solution("x_1_1_0\n")


def test_emitted_lines_fit_the_width():
    # long rows once got their name and the obj: prefix added outside the
    # wrap, which let 61 lines of this LP reach 512 characters
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3, 2])])
    text = emit_lp(inst, horizon=40)
    lines = text.splitlines()
    assert max(len(line) for line in lines) <= LP_LINE_WIDTH
    assert sum(len(line) > LP_LINE_WIDTH - 20 for line in lines) > 0
    # every row name starts a line, continuations are indented
    assert all(line.startswith((" obj: ", " rem_", " time_", " done_", " cap_",
                                "   ", " 0 <= ", "\\", "Minimize",
                                "Subject To", "Bounds", "End"))
               for line in lines)


def test_zero_size_task_skipped():
    # job 1's zero-size task keeps its id 2 unlisted, so job 2's task is 3
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [2, 0]),
                                    make_job(2, 1.0, [2.0])])
    assert task_table(inst) == [(1, 1, 2.0), (3, 2, 2.0)]
    text = emit_lp(inst, horizon=4)
    assert "done_1_1" in text
    assert "done_1_2" not in text and "x_1_2_" not in text
    assert "done_2_3:" in text and "x_1_3_0" in text


def test_a_zero_size_group_is_never_expanded(monkeypatch):
    # the size caps count tasks of positive size only, so a zero-size group
    # of 10^6 tasks passed them and was then expanded by every LP function:
    # emit_lp alone took seconds and peaked near 100 MB. With no task of
    # positive size at all, the caps pass any machine count: emit_lp listed
    # every machine's speed and wrote an empty cap row per machine and slot
    # (75 s at 10^6 machines), and check_lp_solution visited every machine.
    # The spy refuses any expansion past 10^6 machines instead of making it.
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [3.0, (0.0, 10 ** 6)])])
    assert task_table(inst) == [(1, 1, 3.0)]
    idle = make_instance([(1, 10 ** 9)], [make_job(1, 1.0, [0.0])])
    assert task_table(idle) == []
    expand = type(inst).machine_speeds

    def spy(self, upto):
        if upto > 10 ** 6:
            raise AssertionError(f"speeds of {upto} machines listed")
        return expand(self, upto)

    monkeypatch.setattr(type(inst), "machine_speeds", spy)
    for case, horizon in ((inst, 2), (idle, 1)):
        trace = simulate(case)
        for call in (lambda: emit_lp(case, horizon),
                     lambda: check_lp_solution(case, {}, horizon),
                     lambda: schedule_to_primal(trace, case)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
    assert "cap_" not in emit_lp(idle, 1)


@pytest.mark.parametrize("exact", [False, True])
def test_a_released_job_of_zero_size_tasks_embeds(exact):
    # such a job completes at its release, as simulate says; the embedding
    # once started it at 0 and refused the trace
    num = Fraction if exact else float
    inst = make_instance(
        [(num(1), 1)],
        [make_job(1, num(1), [num(2)], exact=exact),
         make_job(2, num(1), [num(0), (num(0), 3)], release=num(1), exact=exact)],
        exact=exact)
    trace = simulate(inst)
    primal = schedule_to_primal(trace, inst)
    # an exact completion is the kernel's Rational, so it stays exact and
    # on the fast path
    assert primal.C[2] == 1 and type(primal.C[2]) is (Rational if exact else float)
    assert primal.cost == trace.objective
    check_primal(primal, inst)


def test_matched_offline_staircase_embedding():
    # every task on its own matching machine finishes at time 1; the
    # embedded value 2 certifies LP optimum <= 2 * offline cost
    inst = gen_lower_bound(2)
    inst = make_instance(
        [(c.speed, c.count) for c in inst.classes],
        [make_job(1, 1.0, [(64, 1), (1, 128)])])
    horizon = 4
    values = {"C_1": 1.0, "U_1_0": 1.0}
    for tid, job_id, size in task_table(inst):
        values[f"x_{tid}_{tid}_0"] = float(size)  # machine i runs task i
    assert check_lp_solution(inst, values, horizon) == []
    assert solution_objective(inst, values, horizon) == pytest.approx(2.0)


def test_schedule_embedding_single_task():
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [4])])
    primal = schedule_to_primal(simulate(inst), inst)
    assert primal.cost == pytest.approx(4.0)
    assert 4.0 - 1e-9 <= primal.objective <= 8.0 + 1e-9
    # U stays 1 for slots fully before completion
    full_slots = int(4.0 / primal.slot) if primal.slot else 0
    ones = [s for (j, s), u in primal.U.items() if u == pytest.approx(1.0)]
    assert ones, "remaining fraction must start at 1"


def test_schedule_embedding_random_sandwich():
    rng = random.Random(14)
    for _ in range(60):
        inst = random_lp_instance(rng)
        trace = simulate(inst)
        primal = schedule_to_primal(trace, inst)
        cost = float(trace.objective)
        assert cost - 1e-9 <= primal.objective <= 2 * cost + 1e-9
        check_primal(primal, inst)


def test_check_primal_rejects_corruption_under_optimize():
    # criterion 7 rests on this check, so it must raise rather than assert:
    # run it under `python -O` on corrupted primals, one per guard: no
    # processing at all, an objective outside the [cost, 2 cost] sandwich,
    # a machine the instance does not have, slots too short for their load,
    # U below the remaining fraction, a job's U sum over its C_j (U = 1
    # on enough extra slots past the schedule), x and U entries at a
    # negative slot and at a slot that is not an integer, an objective
    # inside the sandwich that is not the primal's own (1.9 cost where the
    # embedding gives 1.65 cost), a cost
    # that is not sum w_j C_j, and x and C entries for a task and a job the
    # instance lacks; x entries past machine 1's first entry whose machine is
    # 1.0 or True, or whose task is 2.0 (once read as machine 1 or task 2);
    # a bad machine at x's first entry before a bad slot at its last (each
    # key is refused at its own entry, so the machine is named); then, on an
    # instance with a zero-size task, an x entry on that task (it names no
    # LP variable) and a machine id that is not an int (once a TypeError)
    code = """
import dataclasses, sys
from bagsched import make_instance, make_job, schedule_to_primal, simulate
from bagsched.lp import LpError, check_primal
inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3, 2])])
primal = schedule_to_primal(simulate(inst), inst)
off_grid = {(0, v, s): amt for (i, v, s), amt in primal.x.items()}
last = max(s for _, s in primal.U)
padded = dict(primal.U)
for s in range(last + 1, last + 2 + int(primal.C[1] / primal.slot)):
    padded[(1, s)] = 1.0
print(round(primal.objective / primal.cost, 2))
for bad in (dataclasses.replace(primal, x={}, objective=5 * primal.cost),
            dataclasses.replace(primal, objective=5 * primal.cost),
            dataclasses.replace(primal, x=off_grid),
            dataclasses.replace(primal, slot=primal.slot / 10),
            dataclasses.replace(primal, U=dict.fromkeys(primal.U, 0.0)),
            dataclasses.replace(primal, U=padded),
            dataclasses.replace(primal, x={**primal.x, (2, 2, -1): 0.2}),
            dataclasses.replace(primal, U={**primal.U, (1, -1): -5.0}),
            dataclasses.replace(primal, x={**primal.x, (1, 1, 1.5): 0.0}),
            dataclasses.replace(primal, U={**primal.U, (1, 0.5): 0.0}),
            dataclasses.replace(primal, objective=1.9 * primal.cost),
            dataclasses.replace(primal, cost=1.2 * primal.cost),
            dataclasses.replace(primal, C={**primal.C, 9: 1.0}),
            dataclasses.replace(primal, x={**primal.x, (1, 7, 4): 0.05}),
            dataclasses.replace(primal, x={**primal.x, (1.0, 2, 9): 0.0}),
            dataclasses.replace(primal, x={**primal.x, (True, 2, 9): 0.0}),
            dataclasses.replace(primal, x={**primal.x, (1, 2.0, 9): 0.0}),
            dataclasses.replace(primal, x={(3, 1, 0): 0.0, **primal.x,
                                           (1, 1, -1): 0.0})):
    try:
        check_primal(bad, inst)
    except LpError as exc:
        print(exc)
    else:
        sys.exit(1)
inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3.0, 2.0, 0.0])])
primal = schedule_to_primal(simulate(inst), inst)
for bad in (dataclasses.replace(primal, x={**primal.x, (1, 3, 0): 0.0}),
            dataclasses.replace(primal, x={**primal.x, (2.0000000001, 1, 0): 0.0})):
    try:
        check_primal(bad, inst)
    except LpError as exc:
        print(exc)
    else:
        sys.exit(1)
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bagsched.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    ratio, *lines = done.stdout.splitlines()
    assert ratio == "1.65"
    assert lines[0].startswith("row done_1_")
    assert "outside [cost, 2 cost]" in lines[1]
    assert "no machine 0" in lines[2]
    assert lines[3].startswith("row cap_")
    assert lines[4].startswith("row rem_1_")
    assert "U sum" in lines[5] and "exceeds C" in lines[5]
    assert lines[6] == "x names slot -1: no slot -1"
    assert lines[7] == "U_1_-1 names no LP variable"
    assert lines[8] == "x names slot 1.5: no slot 1.5"
    assert lines[9] == "U_1_0.5 names no LP variable"
    assert lines[10].startswith("objective ") and "is not the primal's" in lines[10]
    assert lines[11].startswith("cost ") and "is not the primal's" in lines[11]
    assert lines[12] == "C_9 names no LP variable"
    assert lines[13] == "x names task 7: no task 7"
    assert lines[14] == "x names machine 1.0: no machine 1.0"
    assert lines[15] == "x names machine True: no machine True"
    assert lines[16] == "x names task 2.0: no task 2.0"
    assert lines[17] == "x names machine 3: no machine 3"
    assert lines[18] == "x names task 3: no task 3"
    assert lines[19] == "x names machine 2.0000000001: no machine 2.0000000001"
    assert len(lines) == 20
    # job ids are read by type as well: a U entry of job 1.0 or True past the
    # schedule's last slot, or C keyed by 1.0, once passed as job 1's
    code = """
import dataclasses, sys
from bagsched import make_instance, make_job, schedule_to_primal, simulate
from bagsched.lp import LpError, check_primal
inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3, 2])])
primal = schedule_to_primal(simulate(inst), inst)
past = 1 + max(s for _, s in primal.U)
for bad in (dataclasses.replace(primal, U={**primal.U, (1.0, past): 0.0}),
            dataclasses.replace(primal, U={**primal.U, (True, past): 0.0}),
            dataclasses.replace(primal, C={1.0: primal.C[1]})):
    try:
        check_primal(bad, inst)
    except LpError as exc:
        print(exc)
    else:
        sys.exit(1)
"""
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"U_1\.0_\d+ names no LP variable", lines[0])
    assert re.fullmatch(r"U_True_\d+ names no LP variable", lines[1])
    assert lines[2:] == ["C_1.0 names no LP variable"]


def test_the_emitted_bounds_are_checked():
    # emit_lp states 0 <= U <= 1, and LP format sets x >= 0 and C >= 0 by
    # default. Both checks once passed a negative x that a later slot makes
    # up for, and check_lp_solution a U of 5 or a negative C; each broken
    # bound is now reported after the rows, named after its variable
    inst = make_instance([(1, 2)], [make_job(1, 1.0, [1.0])])
    values = {"x_1_1_0": 1.0, "x_2_1_0": -0.5, "x_2_1_1": 0.5,
              "U_1_0": 1.0, "U_1_1": 0.5, "C_1": 2.0}
    assert check_lp_solution(inst, values, 2) == [("x_2_1_0", -0.5, 0.0)]
    primal = PrimalSolution(
        slot=1.0, x={(1, 1, 0): 1.0, (2, 1, 0): -0.5, (2, 1, 1): 0.5},
        U={(1, 0): 1.0, (1, 1): 0.5}, C={1: 2.0}, cost=2.0, objective=3.5)
    with pytest.raises(LpError, match=r"^x_2_1_0 is negative$"):
        check_primal(primal, inst)
    clean = primal_to_solution_values(
        schedule_to_primal(simulate(inst), inst, slot=1))
    assert check_lp_solution(inst, clean, 2) == []
    assert check_lp_solution(inst, {**clean, "U_1_0": 5.0}, 2) == [
        ("U_1_0", 5.0, 1.0)]
    # a job of zero-size tasks has no row, so only its bounds hold its U and C
    both = make_instance([(1, 2)], [make_job(1, 1.0, [1.0]),
                                    make_job(2, 1.0, [0.0])])
    assert check_lp_solution(both, {**clean, "U_2_1": -0.25, "C_2": -1.0}, 2) == [
        ("U_2_1", -0.25, 0.0), ("C_2", -1.0, 0.0)]


def test_check_primal_checks_every_bound():
    # check_primal once tested only U <= 1 and x >= 0: a zero-size job's
    # U and C, whose rows do not exist, passed at -0.25, cost and objective
    # restated to match. Its bounds come from the same scan as
    # check_lp_solution's, in the order x, U, C
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3.0, 2.0]),
                                            make_job(2, 1.0, [0.0])])
    primal = schedule_to_primal(simulate(inst), inst)
    check_primal(primal, inst)
    U = {**primal.U, (2, 0): -0.25}
    C = {**primal.C, 2: -0.25 * primal.slot}
    cost = sum(C.values())
    bad = dataclasses.replace(primal, U=U, C=C, cost=cost,
                              objective=cost + primal.slot * sum(U.values()))
    with pytest.raises(LpError, match=r"^U_2_0 is negative$"):
        check_primal(bad, inst)
    with pytest.raises(LpError, match=r"^C_2 is negative$"):
        check_primal(dataclasses.replace(bad, U=primal.U), inst)


@pytest.mark.parametrize("machine", [0, 3])
def test_check_primal_names_a_machine_outside_the_instance(machine):
    # machines are 1..m: an x entry at machine 0 or m + 1 is refused by name
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3.0, 2.0])])
    primal = schedule_to_primal(simulate(inst), inst)
    bad = dataclasses.replace(primal, x={**primal.x, (machine, 1, 0): 0.0})
    with pytest.raises(LpError, match=rf"^x names machine {machine}: no machine {machine}$"):
        check_primal(bad, inst)


def test_check_primal_reads_the_speedup_of_its_instance():
    # the speedup once came from a copy stored on the primal, so an
    # embedding at speedup 2 passed against the instance at speedup 0.5,
    # whose machines it overloads four times over
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3.0, 2.0])],
                         speedup=2)
    primal = schedule_to_primal(simulate(inst), inst)
    check_primal(primal, inst)
    with pytest.raises(LpError, match=r"^row "):
        check_primal(primal, with_speedup(inst, 0.5))


def test_check_primal_is_exact_in_exact_mode():
    # exact embeddings pass with no slack at all
    for seed in range(12):
        inst = instance_from_dict(
            instance_to_dict(gen_random_ica(2, 4, 2, seed)), exact=True)
        primal = schedule_to_primal(simulate(inst), inst)
        assert isinstance(primal.slot, Fraction)
        check_primal(primal, inst)
    # 30 of the 32 machine-slots of this embedding are full; shrinking the
    # slot by 1e-40 over-fills them, which a float compare cannot see
    inst = make_instance(
        [(2, 1), (1, 1)],
        [make_job(1, 1, [3, 2], exact=True), make_job(2, 2, [1], exact=True)],
        exact=True)
    primal = schedule_to_primal(simulate(inst), inst)
    assert primal.slot == Fraction(1, 8)
    check_primal(primal, inst)
    tight = primal.slot - Fraction(1, 10 ** 40)
    assert float(tight) == float(primal.slot)
    with pytest.raises(LpError, match=r"^row cap_1_0 violated"):
        check_primal(dataclasses.replace(primal, slot=tight), inst)


class CountingDict(dict):
    """A dict that counts the passes made over it by items() or iteration."""

    passes = 0

    def items(self):
        self.passes += 1
        return super().items()

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_check_primal_reads_x_and_u_once():
    inst = gen_random_ica(2, 4, 2, 7)
    primal = schedule_to_primal(simulate(inst), inst)
    x, U = CountingDict(primal.x), CountingDict(primal.U)
    check_primal(dataclasses.replace(primal, x=x, U=U), inst)
    assert (x.passes, U.passes) == (1, 1)


def test_check_primal_never_expands_a_huge_class(monkeypatch):
    # an x entry on machine 10^9, the last of the slow class, once made
    # check_primal list the speeds of machines 1..10^9; the spy refuses any
    # expansion past 10^6 machines instead of allocating it
    inst = make_instance([(2.0, 1), (1.0, 10 ** 9)], [make_job(1, 1.0, [3.0, 2.0])])
    primal = schedule_to_primal(simulate(inst), inst)
    primal.x[(10 ** 9, 1, 0)] = 0.0
    expand = type(inst).machine_speeds

    def spy(self, upto):
        if upto > 10 ** 6:
            raise AssertionError(f"speeds of {upto} machines listed")
        return expand(self, upto)

    monkeypatch.setattr(type(inst), "machine_speeds", spy)
    tracemalloc.start()
    try:
        check_primal(primal, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_lp_optimum_stays_below_the_embedded_objective():
    # the embedding at unit slots is a feasible point of the LP over its H
    # slots (gamma = 1, so its speeds are the LP's), so HiGHS's LP*(H) must
    # not exceed its objective; the embedding refuses some runs at slot 1,
    # where U's left-Riemann sum outgrows a C_j
    judged = 0
    for s in range(12):
        inst = gen_random_ica(1 + s % 2, 2 + s % 2, 2, s)
        assert inst.speedup == 1
        try:
            primal = schedule_to_primal(simulate(inst), inst, slot=1)
        except LpError:
            continue
        horizon = 1 + max(t for _, t in primal.U)
        lp_star = unit_slot_lp_value(*lp_of(inst), horizon)
        # HiGHS solves to a relative tolerance near 1e-7
        assert lp_star <= float(primal.objective) * (1 + 1e-6), (s, lp_star)
        judged += 1
    assert judged >= 6


def test_emit_lp_names_the_oracle_optimum():
    # the oracle builds its LP from plain numbers; named as emit_lp names
    # them, its optimal values satisfy every row of check_lp_solution and
    # give the same objective, so the two state the same LP
    for s in (0, 2, 6, 9):
        inst = gen_random_ica(1 + s % 2, 2 + s % 2, 2, s)
        horizon = 1 + math.ceil(float(simulate(inst).makespan))
        lp_star, x, U, C = unit_slot_lp_solution(*lp_of(inst), horizon)
        tasks = [v for v, _, _ in task_table(inst)]
        jobs = [job.job_id for job in inst.jobs]
        values = {f"x_{i + 1}_{tasks[k]}_{t}": amount
                  for i, row in enumerate(x) for k, slots in enumerate(row)
                  for t, amount in enumerate(slots)}
        values.update((f"U_{jobs[k]}_{t}", u) for k, us in enumerate(U)
                      for t, u in enumerate(us))
        values.update((f"C_{jobs[k]}", c) for k, c in enumerate(C))
        assert check_lp_solution(inst, values, horizon) == []
        assert solution_objective(inst, values, horizon) == pytest.approx(lp_star, rel=1e-6)
        names = set(re.findall(r"\b[xUC](?:_\d+)+\b", emit_lp(inst, horizon)))
        assert set(values) <= names


def test_exact_embedding_decides_completion_exactly():
    # job 2's task is 1e-20 longer than job 1's, so it outlives the first
    # segment; a float compare of its quota with its remainder saw them
    # equal and retired it a segment early
    inst = make_instance(
        [(Fraction(1), 1)],
        [make_job(1, Fraction(1), [Fraction(1)], exact=True),
         make_job(2, Fraction(1), [Fraction(1) + Fraction(1, 10 ** 20)],
                  exact=True)],
        exact=True)
    primal = schedule_to_primal(simulate(inst), inst, slot=Fraction(1, 2))
    assert primal.C[2] == 2 + Fraction(1, 10 ** 20)
    check_primal(primal, inst)


def parent_check_lp_solution(instance, values, horizon):
    """check_lp_solution as first written, with its own row sums and its
    SOLVER_REL * max(1, .) slack, followed by the bounds of the emitted LP
    (x >= 0, 0 <= U <= 1, C >= 0), each named after its variable. Also
    returns whether some row's or bound's sides lie within 10 SOLVER_REL
    (scaled) of each other without being equal, where the two slack rules
    may disagree."""
    m = instance.machine_count()
    tasks = [(v, j, p) for (v, j, p) in task_table(instance) if p > 0]
    speeds = instance.machine_speeds(m)
    bad = []
    near = []

    def edge(a, b):
        gap = abs(a - b) / max(1.0, abs(a), abs(b))
        near.append(SOLVER_REL / 10 < gap <= 10 * SOLVER_REL)

    def x(i, v, t):
        return values.get(f"x_{i}_{v}_{t}", 0.0)

    for v, j, p in tasks:
        suffix = 0.0
        for t in range(horizon - 1, -1, -1):
            suffix += sum(x(i, v, t) for i in range(1, m + 1)) / float(p)
            u = values.get(f"U_{j}_{t}", 0.0)
            edge(u, suffix)
            if u < suffix - SOLVER_REL * max(1.0, suffix):
                bad.append((f"rem_{j}_{v}_{t}", u, suffix))
        spent = sum(
            x(i, v, t) / float(speeds[i - 1])
            for t in range(horizon)
            for i in range(1, m + 1)
        )
        c = values.get(f"C_{j}", 0.0)
        edge(c, spent)
        if c < spent - SOLVER_REL * max(1.0, spent):
            bad.append((f"time_{j}_{v}", c, spent))
        done = sum(
            x(i, v, t) / float(p)
            for t in range(horizon)
            for i in range(1, m + 1)
        )
        edge(done, 1.0)
        if done < 1 - SOLVER_REL:
            bad.append((f"done_{j}_{v}", done, 1.0))
    for i in range(1, m + 1):
        for t in range(horizon):
            load = sum(x(i, v, t) for v, _, _ in tasks) / float(speeds[i - 1])
            edge(load, 1.0)
            if load > 1 + SOLVER_REL:
                bad.append((f"cap_{i}_{t}", load, 1.0))
    bounds = [(f"x_{i}_{v}_{t}", 0.0, None) for i in range(1, m + 1)
              for v, _, _ in tasks for t in range(horizon)]
    bounds += [(f"U_{job.job_id}_{t}", 0.0, 1.0) for job in instance.jobs
               for t in range(horizon)]
    bounds += [(f"C_{job.job_id}", 0.0, None) for job in instance.jobs]
    for name, low, high in bounds:
        if name not in values:
            continue
        value = values[name]
        edge(value, low)
        if value < low - SOLVER_REL:
            bad.append((name, value, low))
        elif high is not None:
            edge(value, high)
            if value > high + SOLVER_REL * max(1.0, value):
                bad.append((name, value, high))
    return bad, any(near)


_lp_values = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=4.0),
)


@st.composite
def _lp_cases(draw):
    speeds = draw(st.sampled_from([[4], [2], [1], [4, 1], [3, 2], [2, 1]]))
    classes = [(s, draw(st.integers(1, 2))) for s in speeds]
    jobs = [
        make_job(j, draw(st.integers(1, 3)),
                 draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
        for j in range(1, draw(st.integers(1, 3)) + 1)
    ]
    exact = draw(st.booleans())
    inst = make_instance(classes, jobs)
    if exact:
        inst = instance_from_dict(instance_to_dict(inst), exact=True)
    horizon = draw(st.integers(1, 3))
    m, n, tasks = inst.machine_count(), len(jobs), inst.task_count()
    # indices one past each range: machines 0 and m+1, task 0 and unknown
    # tasks (zero-size tasks come from the sizes), slot `horizon`, job 0
    # and unknown jobs; none of them is a variable of the LP
    x_names = st.builds("x_{}_{}_{}".format, st.integers(0, m + 1),
                        st.integers(0, tasks + 1), st.integers(0, horizon))
    names = st.one_of(
        x_names, x_names, x_names,
        st.builds("U_{}_{}".format, st.integers(0, n + 1),
                  st.integers(0, horizon)),
        st.builds("C_{}".format, st.integers(0, n + 1)),
    )
    values = draw(st.dictionaries(names, _lp_values, max_size=40))
    return inst, values, horizon


@settings(max_examples=300, deadline=None)
@given(_lp_cases())
@example((make_instance([(4.0, 1), (1.0, 1)],
                        [make_job(1, 1.0, [0.0]), make_job(2, 1.0, [2.0]),
                         make_job(3, 1.0, [0.0])]),
          {"x_1_2_0": 5e-324, "x_2_2_0": 5e-324}, 1))
def test_check_lp_solution_matches_first_definition(case):
    """The package sums a task's amounts and then divides by its size; the
    first definition divides each amount first. Below the smallest normal
    float the two orders differ only by underflow (the example's 5e-324
    amounts sum to 5e-324 one way and to 0 the other), hence the floor."""
    inst, values, horizon = case
    want, near = parent_check_lp_solution(inst, values, horizon)
    assume(not near)
    got = check_lp_solution(inst, values, horizon)
    assert [name for name, _, _ in got] == [name for name, _, _ in want]
    floor = sys.float_info.min
    for (_, lhs, rhs), (_, want_lhs, want_rhs) in zip(got, want):
        assert lhs == pytest.approx(want_lhs, rel=1e-12, abs=floor)
        assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=floor)


def first_schedule_to_primal(slices, instance, slot=None):
    """schedule_to_primal on slices as first written: pass B adds every
    amount to x, and U is built slot by slot over the whole task table from
    (task, slot) sums of x. The other steps are unchanged and copied here so
    that every value can be compared bit for bit."""
    gamma = instance.speedup
    table = task_table(instance)
    job_tasks = {}
    for v, j, p in table:
        job_tasks.setdefault(j, []).append((v, p))
    weights = {j.job_id: j.weight for j in instance.jobs}
    zero = instance.speedup - instance.speedup
    segments = [seg for sl in slices for seg in sl.segments if seg.end > seg.start]
    segments.sort(key=lambda s: float(s.start))
    remaining = {v: p for v, _, p in table}
    completion = {j.job_id: zero for j in instance.jobs}
    work_curve = {j.job_id: [(zero, zero)] for j in instance.jobs}
    cum_work = {j.job_id: zero for j in instance.jobs}
    seg_alive = {}
    for si, seg in enumerate(segments):
        length = seg.end - seg.start
        for pl in seg.placements:
            rate = pl.per_task_rate
            if rate == 0:
                continue
            for job_id, cnt in pl.members:
                alive = [(v, p) for v, p in job_tasks[job_id] if remaining[v] > 0]
                seg_alive[(si, job_id)] = [v for v, _ in alive]
                for v, p in alive:
                    got = rate * length
                    slack = 0 if instance.exact else REL_TOL * float(p or 1)
                    if float(got) >= float(remaining[v]) - slack:
                        t_done = seg.start + min(remaining[v] / rate, length)
                        remaining[v] = zero
                        if t_done > completion[job_id]:
                            completion[job_id] = t_done
                    else:
                        remaining[v] = remaining[v] - got
                curve = work_curve[job_id]
                if curve[-1][0] < seg.start:
                    curve.append((seg.start, cum_work[job_id]))
                cum_work[job_id] = cum_work[job_id] + rate * length
                curve.append((seg.end, cum_work[job_id]))
    cost = sum(weights[j] * completion[j] for j in weights) if weights else zero
    if slot is None:
        gap = None
        for job in instance.jobs:
            p_max = max((p for _, p in job_tasks[job.job_id]), default=0)
            if p_max == 0:
                continue
            area = zero
            curve = work_curve[job.job_id]
            for (t0, w0), (t1, w1) in zip(curve, curve[1:]):
                u0 = max(zero, 1 - w0 / p_max)
                u1 = max(zero, 1 - w1 / p_max)
                area = area + (t1 - t0) * (u0 + u1) / 2
            g = completion[job.job_id] - area
            gap = g if gap is None else min(gap, g)
        slot = 1 if gap is None else gap / 2

    speeds = instance.machine_speeds(
        max((pl.machine_hi for seg in segments for pl in seg.placements), default=0)
    )
    x = {}
    for si, seg in enumerate(segments):
        for pl in seg.placements:
            if pl.per_task_rate == 0 or pl.machine_lo > pl.machine_hi:
                continue
            alive_of = {
                job_id: seg_alive[(si, job_id)] for job_id, _ in pl.members
            }
            t0, t1 = seg.start, seg.end
            s = int(t0 / slot)
            while t0 < t1:
                edge = (s + 1) * slot
                hi = edge if edge < t1 else t1
                d = hi - t0
                if d > 0:
                    share = d / pl.count
                    for i in range(pl.machine_lo, pl.machine_hi + 1):
                        amount = share * gamma * speeds[i - 1]
                        for job_id in alive_of:
                            for v in alive_of[job_id]:
                                key = (i, v, s)
                                x[key] = x.get(key, zero) + amount
                t0 = hi
                s += 1

    by_vt = {}
    for (i, v, s), amt in x.items():
        key = (v, s)
        by_vt[key] = by_vt.get(key, zero) + amt
    max_slot = max((s for _, s in by_vt), default=-1)
    U = {}
    suffix = {}
    for s in range(max_slot, -1, -1):
        for v, j, p in table:
            if p == 0:
                continue
            suffix[v] = suffix.get(v, zero) + by_vt.get((v, s), zero)
            frac = suffix[v] / p
            key = (j, s)
            if key not in U or U[key] < frac:
                U[key] = frac

    u_cost = slot * sum(weights[j] * u for (j, _), u in U.items()) if U else zero
    return PrimalSolution(slot=slot, x=x, U=U, C=dict(completion),
                          cost=cost, objective=cost + u_cost)


def first_violated_rows(table, x, U, C, speeds, slot, horizon, rel):
    """_violated_rows as first written: one dict of (task, slot) sums, and
    every rem row walked slot by slot."""
    zero = slot - slot
    one = zero + 1
    by_vt = {}
    spent = {}
    load = {}
    for (i, v, t), amt in x.items():
        key = (v, t)
        by_vt[key] = by_vt.get(key, zero) + amt
        spent[v] = spent.get(v, zero) + amt / speeds[i - 1]
        key = (i, t)
        load[key] = load.get(key, zero) + amt
    for v, j, p in table:
        if not p:
            continue
        suffix = frac = zero
        for t in range(horizon - 1, -1, -1):
            suffix += by_vt.get((v, t), zero)
            frac, u = suffix / p, U.get((j, t), zero)
            if not leq(frac, u, rel):
                yield f"rem_{j}_{v}_{t}", u, frac
        c, sp = C.get(j, zero), spent.get(v, zero)
        if not leq(sp, c, rel):
            yield f"time_{j}_{v}", c, sp
        if not leq(one, frac, rel):
            yield f"done_{j}_{v}", frac, one
    over = sorted(
        key for key, amt in load.items()
        if not leq(amt / speeds[key[0] - 1], slot, rel)
    )
    for i, t in over:
        yield f"cap_{i}_{t}", load[(i, t)] / speeds[i - 1], slot


def first_check_primal(primal, instance):
    """check_primal as first written, on first_violated_rows."""
    machines = {i for i, _, _ in primal.x}
    for i in machines:
        if not (leq(1, i) and leq(i, instance.machine_count())):
            raise LpError(f"x names machine {i}: no machine {i}")
    speeds = [instance.speedup * sp
              for sp in instance.machine_speeds(max(machines, default=0))]
    horizon = 1 + max(max((s for _, _, s in primal.x), default=-1),
                      max((s for _, s in primal.U), default=-1))
    row = next(first_violated_rows(task_table(instance), primal.x, primal.U,
                                   primal.C, speeds, primal.slot, horizon,
                                   REL_TOL), None)
    if row is not None:
        name, lhs, rhs = row
        raise LpError(f"row {name} violated: lhs={float(lhs)!r} rhs={float(rhs)!r}")
    u_sum = {}
    for (j, s), u in primal.U.items():
        if not leq(u, 1):
            raise LpError(f"U_{j}_{s} exceeds 1")
        u_sum[j] = u_sum.get(j, 0) + u
    for j, c in primal.C.items():
        usum = primal.slot * u_sum.get(j, 0)
        if not leq(usum, c):
            raise LpError(f"job {j}: U sum {float(usum)} exceeds C {float(c)}")
    if not (leq(primal.cost, primal.objective)
            and leq(primal.objective, 2 * primal.cost)):
        raise LpError(
            f"objective {float(primal.objective)} outside "
            f"[cost, 2 cost] for cost {float(primal.cost)}"
        )


def guarded_first_check_primal(primal, instance):
    """first_check_primal behind the guards added after it: every x, U and
    C entry names an LP variable; after the rows, the LP's bounds hold,
    x >= 0, then 0 <= U <= 1, then C >= 0, each in its dict's order, before
    any later error of first_check_primal; and the stored cost and
    objective are the primal's own, summed as schedule_to_primal sums
    them."""
    weights = {j.job_id: j.weight for j in instance.jobs}
    tasks = instance.task_count()
    for _, v, s in primal.x:
        if s < 0:
            raise LpError(f"x names slot {s}: no slot {s}")
        if not 0 < v <= tasks:
            raise LpError(f"x names task {v}: no task {v}")
    for j, s in primal.U:
        if s < 0 or j not in weights:
            raise LpError(f"U_{j}_{s} names no LP variable")
    for j in primal.C:
        if j not in weights:
            raise LpError(f"C_{j} names no LP variable")
    try:
        first_check_primal(primal, instance)
        later = None
    except LpError as exc:
        if str(exc).startswith(("x names machine", "row ")):
            raise
        later = exc  # a U above 1, a Riemann sum or the sandwich
    zero = primal.slot - primal.slot
    for (i, v, t), amt in primal.x.items():
        if not leq(zero, amt):
            raise LpError(f"x_{i}_{v}_{t} is negative")
    for (j, s), u in primal.U.items():
        if not leq(zero, u):
            raise LpError(f"U_{j}_{s} is negative")
        if not leq(u, 1):
            raise LpError(f"U_{j}_{s} exceeds 1")
    for j, c in primal.C.items():
        if not leq(zero, c):
            raise LpError(f"C_{j} is negative")
    if later is not None:
        raise later
    cost = sum(w * primal.C.get(j, zero) for j, w in weights.items())
    objective = cost + primal.slot * sum(
        weights[j] * u for (j, _), u in primal.U.items())
    for name, stored, want in (("cost", primal.cost, cost),
                               ("objective", primal.objective, objective)):
        if not close(stored, want):
            raise LpError(f"{name} {float(stored)!r} is not the primal's {float(want)!r}")


def first_error(check, primal, instance):
    try:
        check(primal, instance)
    except (LpError, ArithmeticError, LookupError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _corrupt(primal, instance, kind, k, value):
    """A copy of the primal with one entry added or changed: `kind` says
    which, `k` picks the entry, `value` is the number written."""
    x, U, C = dict(primal.x), dict(primal.U), dict(primal.C)
    top = max((s for _, _, s in x), default=0)
    jobs = sorted(C)
    m, tasks = instance.machine_count(), instance.task_count()
    machine = 1 + k % m
    if kind == "U past the work":     # a slot with no work of any task
        U[(jobs[k % len(jobs)], top + 1 + k % 3)] = value
    elif kind == "task outside the table":
        x[(machine, tasks + 1 + k % 2, k % (top + 1))] = value
    elif kind == "negative slot":
        x[(machine, 1 + k % tasks, -1 - k % 2)] = value
    elif kind == "U at a negative slot":
        U[(jobs[k % len(jobs)], -1 - k % 2)] = value
    elif kind == "x entry":           # overwrite one existing amount
        keys = list(x)
        x[keys[k % len(keys)]] = value
    else:                             # "C"
        C[jobs[k % len(jobs)]] = value
    return dataclasses.replace(primal, x=x, U=U, C=C)


@st.composite
def _embeddings(draw):
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        inst = gen_random_ica(draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                              draw(st.integers(1, 3)), seed)
    else:
        inst = random_lp_instance(random.Random(seed))
    if draw(st.booleans()):
        inst = instance_from_dict(instance_to_dict(inst), exact=True)
    slot = draw(st.sampled_from([None, None, 1]))
    kinds = st.sampled_from(["U past the work", "task outside the table",
                             "negative slot", "U at a negative slot",
                             "x entry", "C"])
    values = st.sampled_from([-0.0, 0.0, -0.25, 0.5, 3.0, Fraction(-1, 3)])
    corruptions = draw(st.lists(
        st.tuples(kinds, st.integers(0, 10 ** 6), values), max_size=3))
    return inst, slot, corruptions


@settings(max_examples=120, deadline=None)
@given(_embeddings())
def test_schedule_to_primal_matches_first_definition(case):
    inst, slot, corruptions = case
    slices = [realize_slice(iv.profile, inst, iv)
              for iv in simulate(inst).intervals]
    want = first_schedule_to_primal(slices, inst, slot)
    want_error = first_error(first_check_primal, want, inst)
    try:
        got = schedule_to_primal(slices, inst, slot)
    except LpError as exc:
        # a slot given by hand can be too long for U's Riemann sum
        assert want_error == f"LpError: {exc}"
        return
    assert want_error is None
    # repr tells 0 from 0.0 and -0.0, and a Fraction from an equal float
    for name in ("x", "U", "C"):
        assert repr(list(getattr(got, name).items())) == repr(
            list(getattr(want, name).items()))
    assert repr((got.slot, got.cost, got.objective)) == repr(
        (want.slot, want.cost, want.objective))
    bad = got
    for kind, k, value in corruptions:
        bad = _corrupt(bad, inst, kind, k, value)
        assert first_error(check_primal, bad, inst) == first_error(
            guarded_first_check_primal, bad, inst)


def _by_key(value):
    """value with each dict, at any depth, as its items sorted by key: a
    ledger's dicts are read by key, so their insertion order is no part of
    what it says."""
    if isinstance(value, dict):
        return sorted((k, _by_key(v)) for k, v in value.items())
    if isinstance(value, list):
        return [_by_key(v) for v in value]
    return value


THREE_WRITERS = gen_random_ica(1, 3, 2, 2)  # one of its slots has 3 segments


@settings(max_examples=120, deadline=None)
@given(_embeddings())
@example((THREE_WRITERS, None, []))
@example((instance_from_dict(instance_to_dict(THREE_WRITERS), exact=True), None, []))
@example((make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3.0, 2.0]),
                                          make_job(2, 1.0, [1.0], release=5.0)]),
          None, []))
@example((make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3.0, (0.0, 2), 2.0]),
                                          make_job(2, 2.0, [0.0])]), None, []))
@example((THREE_WRITERS, 1, []))
def test_the_embedding_keeps_the_ledger_that_a_read_gives(case):
    # schedule_to_primal sums x and U as it writes them; its ledger must be
    # the one that check_primal's own read of the primal gives, bit for bit,
    # and the check must decide the same on both
    inst, slot, _ = case
    slices = [realize_slice(iv.profile, inst, iv)
              for iv in simulate(inst).intervals]
    kept = []
    check = bagsched.lp.check_primal

    def keep(primal, instance, *, _sums=None):
        kept.append((primal, _sums))
        check(primal, instance, _sums=_sums)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bagsched.lp, "check_primal", keep)
        error = first_error(lambda p, i: schedule_to_primal(slices, i, slot), None, inst)
    if not kept:  # refused before its check, as a slot given by hand can be
        return
    (primal, ledger), = kept
    assert ledger is not None
    weights = {j.job_id: j.weight for j in inst.jobs}
    fresh = bagsched.lp._read(primal.x, primal.U, inst, task_table(inst), weights,
                              inst.speedup, primal.slot - primal.slot, 0)
    assert repr(_by_key(vars(ledger))) == repr(_by_key(vars(fresh)))
    assert first_error(check_primal, primal, inst) == error


def test_primal_entry_cap(monkeypatch):
    # pass B stops as soon as x holds more entries than the cap
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3, 2])])
    entries = len(schedule_to_primal(simulate(inst), inst).x)
    monkeypatch.setattr(bagsched.lp, "MAX_PRIMAL_ENTRIES", entries)
    schedule_to_primal(simulate(inst), inst)
    monkeypatch.setattr(bagsched.lp, "MAX_PRIMAL_ENTRIES", entries - 1)
    with pytest.raises(LpError, match=f"exceeds {entries - 1} entries"):
        schedule_to_primal(simulate(inst), inst)


def test_size_caps_come_before_any_expansion(monkeypatch):
    # one group of 10^9 tasks: each entry point refuses it from the group
    # counts, before it expands the groups or realizes a slice
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [(1.0, 10 ** 9)])])
    trace = simulate(inst)

    def expanded(*args):
        raise AssertionError("task groups expanded")

    monkeypatch.setattr(bagsched.lp, "task_table", expanded)
    monkeypatch.setattr(bagsched.lp, "realize_slice", expanded)
    with pytest.raises(LpError, match=r"LP too large: 1 machines x 1000000000 tasks"):
        emit_lp(inst, 1)
    with pytest.raises(LpError, match=r"LP too large: 1 machines x 1000000000 tasks"):
        check_lp_solution(inst, {}, 1)
    with pytest.raises(LpError, match="capped at 5 tasks, got 1000000000"):
        brute_force_opt(inst)
    with pytest.raises(LpError, match="exceeds 2000000 entries: 1000000000 tasks"):
        schedule_to_primal(trace, inst)


def test_emit_cap_counts_the_rem_row_terms(monkeypatch):
    # each task's rem rows hold m*H*(H+1)/2 x terms, so the text grows as the
    # square of the horizon H: one task once emitted 137 MB at H = 4,000 under
    # a cap of machines x tasks x slots. On one task and one machine the
    # last admitted horizon is 1410 (998,985 terms); 1411 makes 1,000,399
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [1.0])])
    monkeypatch.setattr(bagsched.lp, "task_table", lambda instance: [])
    assert emit_lp(inst, 1410).endswith("End\n")
    assert check_lp_solution(inst, {}, 1410) == []

    def expanded(*args):
        raise AssertionError("task groups expanded")

    monkeypatch.setattr(bagsched.lp, "task_table", expanded)
    refused = "1411 slots make 1000399 x terms, over 1000000"
    with pytest.raises(LpError, match=refused):
        emit_lp(inst, 1411)
    with pytest.raises(LpError, match=refused):
        check_lp_solution(inst, {}, 1411)


def test_solution_roundtrip_slot_one():
    inst = make_instance(
        [(1, 1)], [make_job(1, 1.0, [4]), make_job(2, 2.0, [3])])
    trace = simulate(inst)
    primal = schedule_to_primal(trace, inst, slot=1)
    values = primal_to_solution_values(primal)
    horizon = max(s for (_, _, s) in primal.x) + 1
    assert check_lp_solution(inst, values, horizon) == []
    assert solution_objective(inst, values, horizon) == pytest.approx(
        primal.objective, rel=1e-9)


def test_solution_export_needs_unit_slots():
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [4]), make_job(2, 2.0, [3])])
    primal = schedule_to_primal(simulate(inst), inst, slot=0.5)
    with pytest.raises(LpError) as err:
        primal_to_solution_values(primal)
    assert str(err.value) == "solution export needs unit slots, got 0.5"


def wspt_slices(order, speed=1.0):
    """Sequential single-machine schedule as hand-built slices."""
    slices = []
    t = 0.0
    for job_id, size in order:
        end = t + size / speed
        pl = Placement(members=((job_id, 1),), count=1, position_lo=0,
                       machine_lo=1, machine_hi=1, per_task_rate=speed)
        slices.append(ScheduleSlice(
            start=t, end=end, segments=[Segment(start=t, end=end,
                                                placements=(pl,))],
            work={job_id: size}))
        t = end
    return slices


MALFORMED = {  # kind -> (change to the first segment, LpError message)
    "machine past m": ({"machine_hi": 3}, "pool on machines 1..3, not 1..2"),
    "empty pool": ({"count": 0},
                   "pool of count 0 at rate 1.0: needs count >= 1 and rate >= 0"),
    "machine 0": ({"machine_lo": 0}, "pool on machines 0..1, not 1..2"),
    "negative rate": ({"per_task_rate": -1.0},
                      "pool of count 1 at rate -1.0: needs count >= 1 and rate >= 0"),
    "negative start": ({"start": -1.0}, "segment starts at -1.0, before time 0"),
    "job in two pools": ({"machine_lo": 2, "machine_hi": 2},
                         "job 2 split across pools in one segment"),
    "job past the instance": ({"members": ((2, 1), (3, 0))},
                              "pool member (3, 0) is not >= 1 task of a job of the instance"),
}


@pytest.mark.parametrize("kind", MALFORMED)
def test_a_malformed_slice_list_is_refused(kind):
    # each segment of a hand-built slice list is checked as it is read;
    # a machine past m once died with IndexError, and an empty pool with
    # ZeroDivisionError, and a member naming no job of the instance with
    # KeyError. The slices run two jobs on machine 1 of 2.
    inst = make_instance([(1, 2)], [make_job(1, 1.0, [4]), make_job(2, 2.0, [3])])
    first, *rest = wspt_slices([(2, 3.0), (1, 4.0)])
    schedule_to_primal([first] + rest, inst)
    change, message = MALFORMED[kind]
    seg = first.segments[0]
    (pl,) = seg.placements
    if kind == "negative start":
        seg = seg._replace(**change)
    elif kind == "job in two pools":
        seg = seg._replace(placements=(pl, pl._replace(**change)))
    else:
        seg = seg._replace(placements=(pl._replace(**change),))
    with pytest.raises(LpError) as err:
        schedule_to_primal([dataclasses.replace(first, segments=[seg])] + rest, inst)
    assert str(err.value) == message



def test_a_slice_list_is_checked_in_time_order():
    # two bad segments given out of time order: [3, 7) at a negative rate
    # comes first in the list, [0, 3) with a member of no job second. The
    # embedding reads segments in time order, so it names the earlier fault
    inst, (first, second) = _two_job_slices({"members": ((3, 1),)})
    (pl,) = second.segments[0].placements
    seg = second.segments[0]._replace(placements=(pl._replace(per_task_rate=-1.0),))
    with pytest.raises(LpError) as err:
        schedule_to_primal([dataclasses.replace(second, segments=[seg]), first], inst)
    assert str(err.value) == "pool member (3, 1) is not >= 1 task of a job of the instance"


def _two_job_slices(change=None):
    """test_a_malformed_slice_list_is_refused's instance and slices, with
    the first pool's fields changed by `change`."""
    inst = make_instance([(1, 2)], [make_job(1, 1.0, [4]), make_job(2, 2.0, [3])])
    first, *rest = wspt_slices([(2, 3.0), (1, 4.0)])
    if change:
        seg = first.segments[0]
        (pl,) = seg.placements
        seg = seg._replace(placements=(pl._replace(**change),))
        first = dataclasses.replace(first, segments=[seg])
    return inst, [first] + rest


@pytest.mark.parametrize("inst, slices, message", [
    # job 2's one task, pooled as two
    (*_two_job_slices({"members": ((2, 2),)}), "pool of job 2 covers 2 tasks, 1 alive"),
    # job 1's two tasks, pooled as one
    (make_instance([(1, 2)], [make_job(1, 1.0, [4, 2])]), wspt_slices([(1, 2.0)]),
     "pool of job 1 covers 1 tasks, 2 alive"),
])
def test_a_pool_must_cover_the_alive_tasks_of_its_jobs(inst, slices, message):
    with pytest.raises(LpError) as err:
        schedule_to_primal(slices, inst)
    assert str(err.value) == message


def test_a_task_the_slices_never_finish_is_refused():
    # job 1's task of size 4 runs for 2 time units at rate 1
    inst, _ = _two_job_slices()
    with pytest.raises(LpError) as err:
        schedule_to_primal(wspt_slices([(2, 3.0), (1, 2.0)]), inst)
    assert str(err.value) == "task 1 not finished by the given schedule"


def test_the_embedding_audits_the_completions_of_its_trace():
    # a trace whose recorded completion of job 1 is a time unit late
    inst, _ = _two_job_slices()
    trace = simulate(inst)
    late = dataclasses.replace(trace, group_completions={
        **trace.group_completions, (1, 0): trace.group_completions[(1, 0)] + 1})
    with pytest.raises(LpError) as err:
        schedule_to_primal(late, inst)
    assert str(err.value) == "job 1: derived completion 4.0 vs trace 5.0"


def _embedded():
    inst, _ = _two_job_slices()
    primal = schedule_to_primal(simulate(inst), inst)
    assert (primal.cost, primal.objective) == (10.0, 16.140625)
    return inst, primal


def test_check_primal_refuses_a_c_key_that_is_not_an_int():
    inst, primal = _embedded()
    with pytest.raises(LpError) as err:
        check_primal(dataclasses.replace(primal, C={**primal.C, 1.5: 0.0}), inst)
    assert str(err.value) == "C_1.5 names no LP variable"


def test_check_primal_refuses_an_objective_outside_the_sandwich():
    inst, primal = _embedded()
    with pytest.raises(LpError) as err:
        check_primal(dataclasses.replace(primal, objective=50.0), inst)
    assert str(err.value) == "objective 50.0 outside [cost, 2 cost] for cost 10.0"


@pytest.mark.parametrize("change, message", [
    ({"objective": 19.0}, "objective 19.0 is not the primal's 16.140625"),
    ({"cost": 12.0}, "cost 12.0 is not the primal's 10.0"),
])
def test_check_primal_refuses_a_stored_value_that_is_not_the_primals(change, message):
    # both stay inside [cost, 2 cost], so only the restatement catches them
    inst, primal = _embedded()
    with pytest.raises(LpError) as err:
        check_primal(dataclasses.replace(primal, **change), inst)
    assert str(err.value) == message

def test_brute_force_examples():
    two = make_instance(
        [(1, 1)], [make_job(1, 1.0, [1]), make_job(2, 2.0, [1])])
    assert brute_force_opt(two, grid=1) == pytest.approx(4.0)

    sym = make_instance([(1, 2)], [make_job(1, 1.0, [1, 1])])
    assert brute_force_opt(sym, grid=1) == pytest.approx(1.0)

    assert brute_force_opt(gen_lower_bound(1), grid=1) == pytest.approx(1.0)


def test_brute_force_reads_exact_speeds_exactly():
    # a machine of speed 1/3 runs a task of size 1 in exactly three time
    # units; read through a float, three quanta left about 5e-17 of work,
    # and grids 1 and 2 gave 4.0 and 3.5
    inst = make_instance([(Fraction(1, 3), 1)], [make_job(1, 1, [1], exact=True)],
                         exact=True)
    assert brute_force_opt(inst, grid=1) == 3.0
    assert brute_force_opt(inst, grid=2) == 3.0


def test_brute_force_caps():
    big_m = make_instance([(1, 4)], [make_job(1, 1.0, [1])])
    with pytest.raises(LpError):
        brute_force_opt(big_m)
    many = make_instance([(1, 1)], [make_job(1, 1.0, [1] * 6)])
    with pytest.raises(LpError):
        brute_force_opt(many)
    huge = make_instance([(1, 1)], [make_job(1, 1.0, [5])])
    with pytest.raises(LpError):
        brute_force_opt(huge)
    ok = make_instance([(1, 1)], [make_job(1, 1.0, [1])])
    with pytest.raises(LpError):
        brute_force_opt(ok, grid=5)


def test_brute_force_cap_counts_positive_sizes_only():
    # zero-size tasks take no machine time: one size-1 task beside a
    # zero-size group of 5 was once refused as 6 tasks over the cap of 5
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [(1, 1), (0, 5)])])
    assert brute_force_opt(inst, grid=1) == pytest.approx(1.0)
    released = make_instance([(1, 1)], [make_job(1, 1.0, [1], release=1.0)])
    with pytest.raises(LpError):
        brute_force_opt(released)


def test_brute_force_matches_chain_oracle():
    rng = random.Random(23)
    for _ in range(20):
        inst = single_machine_chain_instance(rng)
        want = wspt_cost([(float(j.weight), float(j.groups[0].size))
                          for j in inst.jobs])
        assert brute_force_opt(inst, grid=1) == pytest.approx(want)


def test_dual_lp_brute_dominance_chain():
    # dual objective <= embedded-optimum LP value <= 2 * brute optimum
    rng = random.Random(77)
    for _ in range(10):
        inst = single_machine_chain_instance(rng)
        jobs = [(j.job_id, float(j.weight), float(j.groups[0].size))
                for j in inst.jobs]
        order = sorted(jobs, key=lambda x: (x[2] / x[1], x[2]))
        opt_cost = 0.0
        t = 0.0
        for _, w, p in order:
            t += p
            opt_cost += w * t
        brute = brute_force_opt(inst, grid=1)
        assert brute == pytest.approx(opt_cost)

        slices = wspt_slices([(j, p) for j, _, p in order])
        primal = schedule_to_primal(slices, inst)
        assert primal.cost == pytest.approx(opt_cost, rel=1e-9)
        assert primal.objective <= 2 * brute + 1e-9

        sped = with_speedup(inst, weaker_gamma(inst))
        cert = build_weaker_duals(simulate(sped), sped)
        assert cert.feasible
        assert cert.objective <= primal.objective + 1e-9


def test_exact_embedding_is_scale_invariant_past_the_float_range():
    # with class speeds of 2/10^400 and 1/10^400 the segment starts are past
    # the float range; the embedding once sorted them by float(start) and
    # died with an OverflowError
    def ratio(fast, slow):
        inst = make_instance(
            [(fast, 1), (slow, 2)],
            [make_job(1, Fraction(3), [Fraction(5, 2), Fraction(1)], exact=True),
             make_job(2, Fraction(1), [Fraction(3), Fraction(3)], exact=True)],
            exact=True)
        primal = schedule_to_primal(simulate(inst), inst)
        return primal.objective / primal.cost

    tiny = Fraction(1, 10 ** 400)
    assert ratio(2 * tiny, tiny) == ratio(Fraction(2), Fraction(1))
    assert ratio(Fraction(2), Fraction(1)) == Fraction(19901659, 12000000)


@pytest.mark.parametrize("slot", [0.25, 1.0, 3.0, 1e300, 1.7976931348623157e308])
def test_cap_rows_are_decided_as_leq_decides(slot):
    # the cap rows pass a load up to slot + REL_TOL * max(slot, 1) without
    # calling leq; loads an ulp either side of that bound and of the slot,
    # and an infinite one, are each decided as leq decides them
    edge = slot + REL_TOL * max(slot, 1.0)
    loads = sorted({load for x in (slot, edge, math.inf) for load in [x] + [
        math.nextafter(x, math.copysign(math.inf, steps)) for steps in (-1, 1)]})
    led = bagsched.lp._Ledger(load={1: dict(enumerate(loads))}, spent={}, rate={1: 1.0},
                               negative=[], fracs=[], cols={}, u_out=[], u_sum={},
                               u_cost=0.0)
    rows = [name for name, _, _ in bagsched.lp._violated_rows([], led, {}, slot, REL_TOL)]
    assert rows == [f"cap_1_{t}" for t, load in enumerate(loads)
                    if not leq(load, slot, REL_TOL)]
    assert len(rows) < len(loads)
