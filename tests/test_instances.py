"""Instance model: speed rounding, capacity selection, validation, thresholds."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagsched import (
    SPEED_BASE,
    make_instance,
    make_job,
    validate_ica,
    with_speedup,
)
from bagsched.instances import (
    InstanceError,
    SpeedClass,
    TaskGroup,
    instance_from_dict,
    instance_to_dict,
    preprocess_raw_speeds,
    round_speeds,
    select_capacity_classes,
    thresholds,
)

from support import classes_of


def staircase(classes, sizes=None, weight=1, exact=False):
    sizes = sizes if sizes is not None else [(s, c) for s, c in classes]
    job = make_job(1, weight, sizes, exact=exact)
    return make_instance(classes, [job], exact=exact)


# --- round_speeds ---------------------------------------------------------

def ones(speeds):
    return [(s, 1) for s in speeds]


def test_round_speeds_examples():
    assert [(c.speed, c.count) for c in round_speeds(ones([100, 70, 1]))] == [
        (64, 2), (1, 1)]
    assert [(c.speed, c.count) for c in round_speeds(ones([64, 64]))] == [(64, 2)]
    assert [(c.speed, c.count) for c in round_speeds(ones([5000, 64, 3, 0.9]))] == [
        (4096, 1), (64, 1), (1, 1), (0.015625, 1)]
    # a class is rounded once and keeps its count
    assert [(c.speed, c.count) for c in round_speeds([(100, 10**9), (70, 3), (1, 5)])] == [
        (64, 10**9 + 3), (1, 5)]


def test_round_speeds_rejects_bad_input():
    with pytest.raises(InstanceError):
        round_speeds([])
    with pytest.raises(InstanceError):
        round_speeds(ones([1.0, 0.0]))
    with pytest.raises(InstanceError):
        round_speeds(ones([-2.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e9), min_size=1,
                max_size=8))
def test_round_speeds_properties(raw):
    classes = round_speeds(ones(raw))
    # counts account for every input machine
    assert sum(c.count for c in classes) == len(raw)
    # strictly decreasing merged speeds, each a power of the base
    speeds = [c.speed for c in classes]
    assert speeds == sorted(set(speeds), reverse=True)
    for s in speeds:
        e = round(math.log(s, SPEED_BASE))
        assert s == float(SPEED_BASE) ** e
    # never increases, never loses more than a factor of the base
    for s in raw:
        e = math.floor(math.log(s, SPEED_BASE))
        rounded = float(SPEED_BASE) ** e
        assert rounded <= s < rounded * SPEED_BASE
    # idempotent
    again = round_speeds((c.speed, c.count) for c in classes)
    assert again == classes


# --- select_capacity_classes ---------------------------------------------

def test_select_keeps_doubling_capacities():
    cl = [SpeedClass(10, 1), SpeedClass(1, 1281), SpeedClass(0.1, 2000000)]
    kept, inflated = select_capacity_classes(cl)
    assert kept == (1, 2, 3)
    # counts inflated by the kept-class count, capacities preserved in ratio
    assert [c.count for c in inflated] == [3, 3843, 6000000]


def test_select_drops_slow_growth():
    cl = [SpeedClass(4, 10), SpeedClass(2, 20), SpeedClass(1, 40)]
    kept, inflated = select_capacity_classes(cl)
    assert kept == (1,)
    assert [(c.speed, c.count) for c in inflated] == [(4, 10)]


def test_select_single_class():
    kept, inflated = select_capacity_classes([SpeedClass(7, 3)])
    assert kept == (1,)
    assert [(c.speed, c.count) for c in inflated] == [(7, 3)]


# --- validate_ica ----------------------------------------------------------

def test_validate_examples():
    ok = staircase([(64, 1), (1, 128)])
    assert validate_ica(ok).ok

    short = staircase([(64, 1), (1, 100)])
    rep = validate_ica(short)
    assert not rep.ok
    assert rep.boundaries[0].speed_ratio_ok
    assert not rep.boundaries[0].capacity_ok

    # capacity clause compares against the cumulative capacity of all
    # faster classes: 16384 < 2 * (4096 + 128*64) fails
    cum_short = staircase([(4096, 1), (64, 128), (1, 16384)])
    rep = validate_ica(cum_short)
    assert not rep.ok
    assert rep.boundaries[1].speed_ratio_ok
    assert not rep.boundaries[1].capacity_ok

    assert validate_ica(staircase([(4096, 1), (64, 128), (1, 24576)])).ok

    # speed ratio below the base fails the first clause
    close_speeds = staircase([(32, 1), (1, 64)])
    assert not validate_ica(close_speeds).boundaries[0].speed_ratio_ok


# --- thresholds ------------------------------------------------------------

def test_thresholds_examples():
    t = thresholds(staircase([(64, 1), (1, 128)]))
    assert [x.m_blend for x in t] == [64.0]

    assert thresholds(staircase([(64, 2)])) == []

    t3 = thresholds(staircase([(4096, 1), (64, 128), (1, 24576)]))
    assert [x.m_blend for x in t3] == [64.0, 12288.0]


def test_thresholds_band_ordering():
    # blended counts and leftovers interleave: f_l <= m_{l+1} - m_blend_l
    # <= f_{l+1} wherever both are defined
    inst = staircase([(4096, 1), (64, 128), (1, 24576)])
    t = thresholds(inst)
    counts = [c.count for c in inst.classes]
    for a, b in zip(t, t[1:]):
        leftovers = counts[a.index] - a.m_blend
        assert a.m_blend <= leftovers <= b.m_blend


def test_thresholds_requires_capacity_assumptions():
    with pytest.raises((InstanceError, AssertionError)):
        thresholds(staircase([(64, 1), (1, 100)]))


# --- construction and serialization ---------------------------------------

def test_make_instance_rejections():
    with pytest.raises(InstanceError):
        make_instance([], [make_job(1, 1, [1])])
    with pytest.raises(InstanceError):
        make_instance([(0, 1)], [make_job(1, 1, [1])])
    with pytest.raises(InstanceError):
        make_instance([(1, 2), (1, 1)], [make_job(1, 1, [1])])  # not falling
    with pytest.raises(InstanceError):
        make_job(1, 0, [1])  # zero weight
    with pytest.raises(InstanceError):
        make_job(1, 1, [])  # no tasks
    with pytest.raises(InstanceError):
        make_job(1, 1, [-1])  # negative size


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_rejected(exact, bad):
    # json and argparse's float both accept NaN and Infinity; no instance
    # field may carry them
    for build in (lambda: make_job(1, bad, [1], exact=exact),
                  lambda: make_job(1, 1, [1], release=bad, exact=exact),
                  lambda: make_job(1, 1, [2, bad], exact=exact),
                  lambda: make_job(1, 1, [(bad, 3)], exact=exact),
                  lambda: make_instance([(bad, 1)], [], exact=exact),
                  lambda: make_instance([(2, 1), (bad, 1)], [], exact=exact),
                  lambda: make_instance([(1, 1)], [], speedup=bad, exact=exact)):
        with pytest.raises(InstanceError, match="must be finite"):
            build()
    with pytest.raises(InstanceError, match="must be finite"):
        with_speedup(make_instance([(1, 1)], [], exact=exact), bad)


def test_float_jobs_make_no_exact_instance():
    with pytest.raises(InstanceError,
                       match=r"^job 1: weight 1\.0 is a float in an exact instance$"):
        make_instance([(2, 1), (1, 1)],
                      [make_job(1, 1, [3, 2]), make_job(2, 2, [1])], exact=True)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("field", ["weight", "release", "task size"])
def test_jobs_of_the_other_mode_are_rejected(exact, field):
    # every number of a job must be in the instance's mode, in either
    # direction; make_job coerces, so build the odd field by hand
    job = make_job(2, 3, [4, 2], exact=exact)
    other = Fraction if not exact else float
    bad = {
        "weight": dataclasses.replace(job, weight=other(3)),
        "release": dataclasses.replace(job, release=other(0)),
        "task size": dataclasses.replace(
            job, groups=job.groups[:1] + (TaskGroup(size=other(2), count=1),)),
    }[field]
    mode = "a float in an exact" if exact else "exact in a float"
    good = make_job(1, 1, [1], exact=exact)
    with pytest.raises(InstanceError, match=rf"^job 2: {field} .* is {mode} instance$"):
        make_instance([(2, 1), (1, 1)], [good, bad], exact=exact)
    make_instance([(2, 1), (1, 1)], [good, job], exact=exact)


@pytest.mark.parametrize("jobs", [
    [make_job(2, 1.0, [3.0]), make_job(1, 1.0, [1.0])],
    [make_job(1, 1.0, [3.0]), make_job(3, 1.0, [1.0])],
    [make_job(1.0, 1.0, [3.0]), make_job(2, 1.0, [1.0])],
    [make_job(True, 1.0, [3.0]), make_job(2, 1.0, [1.0])],
])
def test_job_ids_count_up_from_one_in_list_order(jobs):
    # job j is found at jobs[j - 1]: swapped ids would run each job with the
    # other's tasks, and a gap would end in an IndexError. An id equal to
    # its position but not an int, 1.0 or True, was once accepted
    with pytest.raises(InstanceError, match=r"ids must be 1\.\.2 in list order"):
        make_instance([(1, 1)], jobs)


@pytest.mark.parametrize("exact", [False, True])
def test_a_boolean_is_not_a_number(exact):
    # True was once read as 1 wherever a number goes, though counts refuse it
    for build, what in (
            (lambda: make_job(1, True, [1], exact=exact), "job 1: weight"),
            (lambda: make_job(1, 1, [False], exact=exact), "job 1: task size"),
            (lambda: make_job(1, 1, [1], release=False, exact=exact), "job 1: release"),
            (lambda: make_instance([(True, 1)], [], exact=exact), "speed"),
            (lambda: make_instance([(1, 1)], [], speedup=True, exact=exact), "speedup")):
        with pytest.raises(InstanceError, match=f"^{what} must be a number, got (True|False)$"):
            build()


@pytest.mark.parametrize("gamma", [0, -1, 0.0, Fraction(-1, 2)])
def test_non_positive_speedup_is_rejected(gamma):
    inst = make_instance([(1, 1)], [make_job(1, 1, [1])])
    with pytest.raises(InstanceError, match="speedup must be positive"):
        with_speedup(inst, gamma)
    with pytest.raises(InstanceError, match="speedup must be positive"):
        make_instance([(1, 1)], [], speedup=gamma, exact=True)


def test_non_finite_json_is_rejected():
    # json.loads reads NaN and Infinity; in exact mode they used to escape as
    # the OverflowError or ValueError of Fraction's conversion
    text = json.dumps({"classes": [{"sigma": 1, "count": 1}],
                       "jobs": [{"weight": 1, "sizes": [math.inf]}]})
    assert "Infinity" in text
    for exact in (False, True):
        with pytest.raises(InstanceError, match="task size must be finite"):
            instance_from_dict(json.loads(text), exact=exact)


def test_capacity_prefix_flat_and_concave():
    inst = staircase([(4, 1), (2, 2), (1, 1)])
    caps = [inst.capacity_prefix(k) for k in range(0, 8)]
    assert caps == [0, 4, 6, 8, 9, 9, 9, 9]
    steps = [b - a for a, b in zip(caps, caps[1:])]
    assert steps == sorted(steps, reverse=True)


@pytest.mark.parametrize("classes, exact", [
    # dyadic speeds, so every float prefix sum is exact
    ([(64.0, 2), (8.5, 3), (0.75, 4)], False),
    ([(4096.0, 1), (64.0, 130), (1.0, 9000)], False),
    ([(Fraction(10, 3), 2), (Fraction(7, 5), 1), (Fraction(1, 7), 5)], True),
])
def test_prefix_helpers_match_expanded_speeds(classes, exact):
    inst = staircase(classes, sizes=[1], exact=exact)
    expanded = [s for s, c in classes for _ in range(c)]
    m = len(expanded)
    knees = [sum(c for _, c in classes[:li]) for li in range(len(classes) + 1)]
    assert inst.machine_count() == m
    assert knees[-1] == m
    for copy in (inst, with_speedup(inst, 3)):
        # every k in 0..m+2, so at and next to each class knee
        want = Fraction(0) if exact else 0.0
        for k in range(m + 3):
            got = copy.capacity_prefix(k)
            assert got == want and isinstance(got, Fraction) == exact, k
            want += expanded[k] if k < m else 0
        assert copy.machine_speeds(m + 5) == expanded
        assert [copy.machine_speed(i) for i in range(1, m + 1)] == expanded
        for knee in knees:
            assert copy.machine_speeds(knee + 1) == expanded[:knee + 1]
    with pytest.raises(AssertionError):
        inst.capacity_prefix(-1)


@pytest.mark.parametrize("classes, exact", [
    ([(Fraction(7, 2), 3), (Fraction(1), 2), (Fraction(1, 3), 4)], True),
    ([(3.7, 3), (1.1, 2), (0.3, 4)], False),
])
def test_capacity_prefix_memo_matches_a_fresh_computation(classes, exact):
    # every k in 0..m+2, asked in a scrambled order and then again from the
    # memo, gives what an instance with an empty memo computes: the same
    # value of the same type
    inst = staircase(classes, sizes=[1], exact=exact)
    m = inst.machine_count()
    order = list(range(m + 3))
    order = order[1::2] + order[::2]
    for k in order + order[::-1]:
        got = inst.capacity_prefix(k)
        want = dataclasses.replace(inst).capacity_prefix(k)
        assert got == want and type(got) is type(want), k
    assert sorted(inst._capacity_memo) == list(range(m + 3))


def test_capacity_prefix_memo_holds_only_the_asked_ks():
    # a class of 10^9 machines is never expanded: the memo gains one entry
    # per k asked for, and a negative k raises and is never stored
    inst = make_instance([(4, 10**9), (1, 3)], [make_job(1, 1, [1])])
    asked = [0, 7, 10**9, 10**9 + 2, 10**9 + 2, 5 * 10**9]
    got = [inst.capacity_prefix(k) for k in asked]
    assert got == [0.0, 28.0, 4.0 * 10**9, 4.0 * 10**9 + 2, 4.0 * 10**9 + 2,
                   4.0 * 10**9 + 3]
    for _ in range(2):
        with pytest.raises(AssertionError):
            inst.capacity_prefix(-1)
    assert sorted(inst._capacity_memo) == sorted(set(asked))


def test_json_roundtrip_float_and_exact():
    inst = staircase([(64, 1), (1, 128)], sizes=[(64, 1), (1.5, 3)])
    data = instance_to_dict(inst)
    back = instance_from_dict(json.loads(json.dumps(data)))
    assert classes_of(back) == classes_of(inst)
    assert back.jobs == inst.jobs
    assert back.speedup == inst.speedup

    ex = staircase([(Fraction(64), 1), (Fraction(1), 128)],
                   sizes=[(Fraction(64), 1), (Fraction(3, 2), 3)],
                   exact=True)
    ex = with_speedup(ex, Fraction(5, 2))
    data = instance_to_dict(ex)
    back = instance_from_dict(json.loads(json.dumps(data)), exact=True)
    assert back.speedup == Fraction(5, 2)
    assert back.jobs[0].groups == ex.jobs[0].groups
    assert isinstance(back.classes[0].speed, Fraction)


# --- preprocessing pipeline ------------------------------------------------

def test_preprocess_output_always_validates():
    for raw in ([1000.0, 900.0, 10.0, 9.0, 1.0],
                [5.0] * 4,
                [64.0 ** 3, 64.0 ** 3, 17.0, 1.0],
                [3.0]):
        classes, meta = preprocess_raw_speeds(raw)
        assert meta["raw_count"] == len(raw)
        inst = make_instance(classes, [make_job(1, 1, [1])])
        assert validate_ica(inst).ok
        caps = [c.speed * c.count for c in classes]
        for a, b in zip(caps, caps[1:]):
            assert b >= 2 * SPEED_BASE * a
