"""LP bridge: emission, ingestion, schedule embedding, brute-force oracle."""

import math
import os
import random
import subprocess
import sys

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from bagsched.lp import LpError, check_primal, primal_to_solution_values
from bagsched.numutil import SOLVER_REL
from bagsched.sim import Placement, ScheduleSlice, Segment

from oracles import wspt_cost
from support import (
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


def test_zero_size_task_skipped():
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [2, 0])])
    text = emit_lp(inst, horizon=4)
    assert "done_1_1" in text
    assert "done_1_2" not in text


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
    # U below the remaining fraction, and a job's U sum over its C_j (U = 1
    # on enough extra slots past the schedule)
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
for bad in (dataclasses.replace(primal, x={}, objective=5 * primal.cost),
            dataclasses.replace(primal, objective=5 * primal.cost),
            dataclasses.replace(primal, x=off_grid),
            dataclasses.replace(primal, slot=primal.slot / 10),
            dataclasses.replace(primal, U=dict.fromkeys(primal.U, 0.0)),
            dataclasses.replace(primal, U=padded)):
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
    lines = done.stdout.splitlines()
    assert lines[0].startswith("row done_1_")
    assert "outside [cost, 2 cost]" in lines[1]
    assert "no machine 0" in lines[2]
    assert lines[3].startswith("row cap_")
    assert lines[4].startswith("row rem_1_")
    assert "U sum" in lines[5] and "exceeds C" in lines[5]


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


def parent_check_lp_solution(instance, values, horizon):
    """check_lp_solution as first written, with its own row sums and its
    SOLVER_REL * max(1, .) slack. Also returns whether some row's sides lie
    within 10 SOLVER_REL (scaled) of each other without being equal, where
    the two slack rules may disagree."""
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
    return bad, any(near)


_lp_values = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
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
    m, n, tasks = inst.machine_count(), len(jobs), len(task_table(inst))
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
def test_check_lp_solution_matches_first_definition(case):
    inst, values, horizon = case
    want, near = parent_check_lp_solution(inst, values, horizon)
    assume(not near)
    got = check_lp_solution(inst, values, horizon)
    assert [name for name, _, _ in got] == [name for name, _, _ in want]
    for (_, lhs, rhs), (_, want_lhs, want_rhs) in zip(got, want):
        assert lhs == pytest.approx(want_lhs, rel=1e-12, abs=0)
        assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=0)


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


def test_brute_force_examples():
    two = make_instance(
        [(1, 1)], [make_job(1, 1.0, [1]), make_job(2, 2.0, [1])])
    assert brute_force_opt(two, grid=1) == pytest.approx(4.0)

    sym = make_instance([(1, 2)], [make_job(1, 1.0, [1, 1])])
    assert brute_force_opt(sym, grid=1) == pytest.approx(1.0)

    assert brute_force_opt(gen_lower_bound(1), grid=1) == pytest.approx(1.0)


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
