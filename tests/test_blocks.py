"""Block taxonomy: rate windows, labels, per-interval structural claims."""

import json
import math
import random

import pytest

from bagsched import (
    classify_blocks,
    gen_lower_bound,
    gen_random_ica,
    simulate,
    with_speedup,
)
from bagsched.blocks import class_windows, nearest_class, window_classes
from bagsched.instances import make_instance, make_job, thresholds
from bagsched.rates import Block, BlockMember, RateProfile
from bagsched.sim import Interval, Trace


def simple_job_classes(rate, gamma, classes):
    return window_classes(rate, class_windows(gamma, classes, 64))


def test_rate_window_membership():
    classes = gen_lower_bound(2).classes  # speeds (64, 1)
    gamma = 2.0
    # rate far above every window qualifies nowhere
    assert simple_job_classes(64.0 ** 3 * gamma, gamma, classes) == ()
    # gamma*64 sits inside both windows (factor-64 slack each way)
    assert simple_job_classes(64.0 * gamma, gamma, classes) == (1, 2)
    # slow rate only matches the slow class
    assert simple_job_classes(gamma / 32, gamma, classes) == (2,)
    # window edges are inclusive up to tolerance
    assert simple_job_classes(gamma / 64, gamma, classes) == (2,)


def test_nearest_class_resolves_overlap():
    classes = gen_lower_bound(2).classes
    gamma = 2.0

    def nearest(rate):
        log_centres = [math.log(gamma * c.speed) for c in classes]
        return nearest_class(simple_job_classes(rate, gamma, classes), rate, log_centres)

    # geometric midpoint of 64*gamma and 1*gamma is 8*gamma: closer to slow
    assert nearest(4.0 * gamma) == 2
    assert nearest(32.0 * gamma) == 1
    assert nearest(64.0 ** 3 * gamma) == 0


def test_staircase_blocks_are_simple():
    inst = with_speedup(gen_lower_bound(2), 2.0)
    cls = classify_blocks(simulate(inst), inst)
    assert all(c.ok for c in cls.checks)
    first, second = cls.intervals
    # phase 1: one block over all 129 machines, average speed
    # 192*gamma/129 lands in the slow class window
    assert len(first.blocks) == 1
    blk = first.blocks[0]
    assert blk.label == "simple"
    assert blk.label_class == 2
    avg = float(blk.block.speed) / blk.block.task_count()
    gamma = float(inst.speedup)
    assert avg == pytest.approx(192.0 * gamma / 129.0)
    assert gamma / 2 <= avg <= 2 * gamma
    # phase 2: the lone big task on the fast machine
    assert len(second.blocks) == 1
    assert second.blocks[0].label == "simple"
    assert second.blocks[0].label_class == 1


def test_single_class_block_is_simple():
    inst = gen_lower_bound(1)
    cls = classify_blocks(simulate(inst), inst)
    for iv in cls.intervals:
        for blk in iv.blocks:
            assert blk.label == "simple"
            assert blk.label_class == 1


def test_classification_invariants_on_random_traces():
    rng = random.Random(17)
    for seed in range(40):
        k = 1 + seed % 3
        inst = gen_random_ica(k=k, jobs=1 + rng.randint(0, 4),
                              max_tasks=6, seed=seed)
        inst = with_speedup(inst, rng.choice([1.0, 4.0, 64.0]))
        trace = simulate(inst)
        cls = classify_blocks(trace, inst)
        for check in cls.checks:
            assert check.ok, (seed, check.name, check.min_witness)

        blend = {t.index: t.m_blend for t in thresholds(inst)}
        for iv_cls, iv in zip(cls.intervals, trace.intervals):
            labels = {}
            for blk in iv_cls.blocks:
                assert blk.label in ("simple", "long", "cheap", "short")
                for job_id in (mb.job_id for mb in blk.block.members):
                    assert job_id not in labels  # partition of alive jobs
                    labels[job_id] = blk.label
            assert set(labels) == {j.job_id for j in iv.jobs}

            cheap = [b for b in iv_cls.blocks if b.label == "cheap"]
            assert len(cheap) <= k
            assert sum(float(b.block.weight) for b in cheap) <= (
                float(iv.alive_weight()) / 10 + 1e-9)

            for blk in iv_cls.blocks:
                if blk.label == "short":
                    # short blocks touch exactly two consecutive classes
                    touched = [li for li, c in enumerate(
                        blk.class_machine_counts, start=1) if c > 0]
                    assert len(touched) == 2
                    assert touched[1] == touched[0] + 1
                for l in blk.long_classes:
                    # long blocks stay inside the blended machine count
                    # and their total speed straddles the class capacity
                    if l in blend:
                        assert blk.block.task_count() <= blend[l] + 1e-9
                    cap = float(inst.speedup) * (
                        inst.classes[l - 1].speed * inst.classes[l - 1].count)
                    assert cap / 2 - 1e-9 <= float(blk.block.speed) <= 4 * cap + 1e-9

            simple_long = sum(
                float(b.block.weight) for b in iv_cls.blocks
                if b.label in ("simple", "long"))
            assert float(iv.alive_weight()) <= 90 * simple_long + 1e-9


def test_a_simple_block_without_simple_jobs_fails_its_job_weight_check():
    # a block whose average rate is gamma * sigma_2 is simple with respect
    # to class 2, yet job 1's one task runs at 100 * gamma * sigma_2 and
    # job 2's 99 tasks at gamma * sigma_2 / 100, outside the job window
    # [1/64, 64] of class 2: the block's simple weight is 0
    gamma = 2.0
    inst = make_instance([(64.0, 1), (1.0, 128)],
                         [make_job(1, 100.0, [1.0]), make_job(2, 0.99, [(1.0, 99)])],
                         speedup=gamma)
    members = (BlockMember(1, 100.0, 1, 100.0, 100.0 * gamma),
               BlockMember(2, 0.99, 99, 0.01, 0.01 * gamma))
    block = Block(index=0, tau=gamma, lo=0, hi=100, speed=100.99 * gamma, members=members)
    profile = RateProfile(gamma=gamma, blocks=(block,))
    trace = Trace(inst, [Interval(0.0, 1.0, profile)], {})
    cls = classify_blocks(trace, inst)
    (view,) = cls.intervals[0].blocks
    assert (view.label, view.label_class) == ("simple", 2)
    assert [cls.intervals[0].jobs[j].simple for j in (1, 2)] == [(1,), ()]
    assert cls.flags["worst_simple_block_ratio"] == math.inf
    (check,) = [r for r in cls.checks if r.name == "simple-block-job-weight"]
    assert (check.checked, check.violation_count) == (1, 1)
    assert check.violations[0].witness == (0, 0)


def test_a_run_with_more_alive_tasks_than_machines():
    # gen_random_ica tops up its last class to host every task at once, so
    # no random run has tasks waiting for a machine. Here 570 tasks share
    # 129 machines: at t=0 job 2's block is short on the slow class alone,
    # and its short-block-two-classes violation has a flat witness, as
    # report's JSON output needs
    inst = make_instance([(64.0, 1), (1.0, 128)],
                         [make_job(1, 10.0, [(5.0, 70)]), make_job(2, 1.0, [(1.0, 500)])])
    trace = simulate(inst)
    cls = classify_blocks(trace, inst)
    assert [[(v.label, v.class_machine_counts) for v in iv.blocks]
            for iv in cls.intervals] == [[("simple", (1, 69)), ("short", (0, 59))],
                                         [("long", (1, 128))]]
    assert {r.name: [v.witness for v in r.violations] for r in cls.checks if not r.ok} == {
        "short-block-two-classes": [(0, 1, 2)]}
    json.loads(json.dumps([r.to_dict() for r in cls.checks]))
