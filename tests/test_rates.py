"""Water-filling rate assignment: worked cases, oracle agreement, invariants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagsched import (
    Instance, assign_rates, make_instance, make_job, realize_slice, simulate)
from bagsched.numutil import leq, tie_leq
from bagsched.rates import (
    AliveJob, Block, BlockMember, RateError, RateProfile, star_witness)

from oracles import sweep_rates, subsets_feasible
from support import alive_instance, alive_jobs, random_alive_case


def rates_for(alive, classes, gamma, exact=False):
    inst = alive_instance(classes, gamma, exact=exact)
    return assign_rates(alive_jobs(alive), inst), inst


def test_equal_shares_pool_both_machines():
    prof, _ = rates_for([(1, 1.0, 1), (2, 1.0, 1)], [(2, 1), (1, 1)], 1.0)
    assert prof.rate_of(1) == pytest.approx(1.5)
    assert prof.rate_of(2) == pytest.approx(1.5)
    assert len(prof.blocks) == 1  # ties freeze as one group


def test_skewed_shares_freeze_in_stages():
    prof, _ = rates_for([(1, 10.0, 1), (2, 1.0, 1)], [(4, 1), (1, 1)], 1.0)
    assert prof.rate_of(1) == pytest.approx(4.0)
    assert prof.rate_of(2) == pytest.approx(1.0)
    assert len(prof.blocks) == 2
    assert prof.blocks[0].tau < prof.blocks[1].tau


def test_single_task_gets_fastest_machine():
    prof, _ = rates_for([(1, 0.37, 1)], [(8, 2), (1, 3)], 2.5)
    assert prof.rate_of(1) == pytest.approx(2.5 * 8)


def test_three_equal_shares_bind_at_full_capacity():
    prof, _ = rates_for([(1, 1.0, 3)], [(2, 1), (1, 1)], 1.0)
    assert prof.rate_of(1) == pytest.approx(1.0)


def test_oracle_agreement_on_random_cases():
    rng = random.Random(20260814)
    for _ in range(300):
        alive, classes, gamma = random_alive_case(rng)
        prof, inst = rates_for(alive, classes, gamma)
        want = sweep_rates(alive, classes, gamma)
        for job_id, weight, count in alive:
            got = prof.rate_of(job_id)
            assert got == pytest.approx(want[job_id], rel=1e-5, abs=1e-9)
        flat = []
        for job_id, _, count in alive:
            flat.extend([prof.rate_of(job_id)] * count)
        assert subsets_feasible(flat, classes, gamma, rel=1e-7)
        assert star_witness(prof, inst) == (True, None)


def test_uniform_rates_and_tightness_exact():
    rng = random.Random(5)
    for _ in range(50):
        alive, classes, _ = random_alive_case(rng)
        alive = [(j, Fraction(w).limit_denominator(1000), c)
                 for j, w, c in alive]
        classes = [(Fraction(s), c) for s, c in classes]
        gamma = Fraction(7, 2)
        prof, inst = rates_for(alive, classes, gamma, exact=True)
        seen = set()
        for blk in prof.blocks:
            total = Fraction(0)
            for mem in blk.members:
                assert mem.job_id not in seen  # no job splits across blocks
                seen.add(mem.job_id)
                assert mem.rate == mem.share * blk.tau
                total += mem.rate * mem.count
            lo_cap = inst.capacity_prefix(blk.lo)
            hi_cap = inst.capacity_prefix(blk.hi)
            assert total == gamma * (hi_cap - lo_cap)  # exact tightness
        assert seen == {j for j, _, _ in alive}


def test_block_rates_dominate_boundary_speed():
    rng = random.Random(99)
    for _ in range(200):
        alive, classes, gamma = random_alive_case(rng)
        prof, inst = rates_for(alive, classes, gamma)
        floor_prev = None
        for blk in prof.blocks:
            slowest = min(m.rate for m in blk.members)
            if blk.hi <= inst.machine_count():
                edge = gamma * inst.machine_speeds(blk.hi)[-1]
                assert slowest >= edge * (1 - 1e-9)
            if floor_prev is not None:
                fastest = max(m.rate for m in blk.members)
                assert fastest <= floor_prev * (1 + 1e-9)
            floor_prev = slowest


def test_weight_scaling_leaves_rates_unchanged():
    alive = [(1, 2.0, 2), (2, 5.0, 1), (3, 1.0, 3)]
    classes = [(8.0, 1), (1.0, 4)]
    base, _ = rates_for(alive, classes, 2.0)
    scaled, _ = rates_for([(j, w * 7, c) for j, w, c in alive], classes, 2.0)
    for j, _, _ in alive:
        assert scaled.rate_of(j) == pytest.approx(base.rate_of(j), rel=1e-9)

    # exact mode: identical profiles, not just close
    al = [(j, Fraction(w), c) for j, w, c in alive]
    cl = [(Fraction(s), c) for s, c in classes]
    b, _ = rates_for(al, cl, Fraction(2), exact=True)
    s, _ = rates_for([(j, w * 7, c) for j, w, c in al], cl, Fraction(2),
                     exact=True)
    for j, _, _ in alive:
        assert s.rate_of(j) == b.rate_of(j)


def test_star_witness_rejects_overload():
    # rates computed for fast machines fail the check on slower ones: the
    # first task's rate 3 exceeds the fastest slow machine's speed 2
    prof, _ = rates_for([(1, 1.0, 1), (2, 1.0, 1)], [(4, 1), (2, 1)], 1.0)
    slow = alive_instance([(2, 1), (1, 1)], 1.0)
    assert star_witness(prof, slow) == (False, ("prefix", 1, 3.0, 2.0))


def test_star_witness_reports_a_rising_rate():
    # the realize test's profile with its blocks reversed fits 3 machines
    # of speed 100 in every prefix, but its rates rise from 1 to 4
    prof = assign_rates([AliveJob(1, 3.0, 1), AliveJob(2, 1.0, 2)],
                        make_instance([(4, 1), (1, 2)], []))
    reversed_prof = RateProfile(gamma=prof.gamma, blocks=prof.blocks[::-1])
    assert star_witness(reversed_prof, make_instance([(100, 3)], [])) == (
        False, ("order", 1.0, 4.0))


def test_freeze_order_comparisons():
    # two facts about a task v, each job standing for one of its tasks,
    # against the tasks that freeze with or after it and those that freeze
    # with or before it (n alive tasks, s_n the n-th machine's speed):
    #   share(v) / s_n     >= share-sum(after) / S(n)     when n <= m
    #   share(v) / rate(v) <= share-sum(before) / rate-sum(before)
    # cross-multiplied, as rates and speeds are positive
    cases = [([(1, 1.0, 1)], [(2, 1)], 1.0),
             ([(1, 10.0, 1), (2, 1.0, 1)], [(4, 1), (1, 1)], 1.0)]
    rng = random.Random(31)
    cases += [random_alive_case(rng) for _ in range(100)]
    for alive, classes, gamma in cases:
        prof, inst = rates_for(alive, classes, gamma)
        n = prof.blocks[-1].hi
        placed = [(b.index, m) for b in prof.blocks for m in b.members]
        for index, v in placed:
            after = [m for i, m in placed if i >= index]
            before = [m for i, m in placed if i <= index]
            if n <= inst.machine_count():
                assert leq(sum(m.share for m in after) * inst.machine_speeds(n)[-1],
                           v.share * inst.capacity_prefix(n))
            assert leq(v.share * sum(m.rate for m in before),
                       sum(m.share for m in before) * v.rate)


def test_job_lookups_match_a_scan_and_reject_absent_jobs():
    rng = random.Random(47)
    for exact in (False, True):
        for _ in range(60):
            alive, classes, gamma = random_alive_case(rng)
            if exact:
                alive = [(j, Fraction(w), c) for j, w, c in alive]
                classes = [(Fraction(s), c) for s, c in classes]
                gamma = Fraction(gamma)
            prof, _ = rates_for(alive, classes, gamma, exact=exact)
            for j, _, _ in alive:
                member = next(m for m in prof.members() if m.job_id == j)
                assert prof.rate_of(j) is member.rate
            for absent in (0, len(alive) + 1, -3):
                with pytest.raises(RateError):
                    prof.rate_of(absent)
    empty = assign_rates([], alive_instance([(1.0, 1)]))
    with pytest.raises(RateError):
        empty.rate_of(1)


@pytest.mark.parametrize("weight, count", [
    (0.0, 1), (-1.0, 1), (math.nan, 1), (math.inf, 1), (1.0, 0), (1.0, -1)])
def test_assign_rates_refuses_a_bad_weight_or_count(weight, count):
    # building the job raises nothing, an empty alive set included, whose
    # share is never divided; assign_rates refuses the job and names it
    bad = AliveJob(7, weight, count)
    assert bad._share is None
    with pytest.raises(RateError, match="^job 7: "):
        assign_rates([AliveJob(1, 1.0, 1), bad], make_instance([(2.0, 2)], []))


def test_assign_rates_reads_each_run_end_once(monkeypatch):
    # one capacity_prefix per run of equal shares, plus one for no tasks
    calls = []
    prefix = Instance.capacity_prefix
    monkeypatch.setattr(Instance, "capacity_prefix",
                        lambda inst, k: calls.append(k) or prefix(inst, k))
    rng = random.Random(61)
    for _ in range(100):
        alive, classes, gamma = random_alive_case(rng)
        inst = alive_instance(classes, gamma)
        calls.clear()
        assign_rates(alive_jobs(alive), inst)
        runs = len({w / c for _, w, c in alive})
        assert len(calls) == runs + 1


def first_assign_rates(alive, instance):
    """assign_rates as first written: from each freeze end, a scan of every
    later run end for the least water level, the rightmost one on ties
    (tie_leq: within TIE_REL of the larger level, at every scale)."""
    gamma = instance.speedup
    entries = sorted(alive, key=lambda a: (a._share, -a.job_id), reverse=True)
    runs = []  # [share, members, task count, share * task count]
    for a in entries:
        if runs and runs[-1][0] == a._share:
            runs[-1][1].append(a)
        else:
            runs.append([a._share, [a]])
    for run in runs:
        count = sum(a.count for a in run[1])
        run += [count, run[0] * count]
    blocks = []
    b, s_b, start = 0, instance.capacity_prefix(0), 0
    while start < len(runs):
        cum_n, cum_share, best = 0, 0, None
        for idx in range(start, len(runs)):
            cum_n += runs[idx][2]
            cum_share = cum_share + runs[idx][3]
            tau = gamma * (instance.capacity_prefix(b + cum_n) - s_b) / cum_share
            if best is None or tie_leq(tau, best[0]):
                best = (tau, idx, cum_n)
        tau, last, n = best
        s_hi = instance.capacity_prefix(b + n)
        members = tuple(
            BlockMember(job_id=a.job_id, weight=a.weight, count=a.count,
                        share=runs[i][0], rate=runs[i][0] * tau)
            for i in range(start, last + 1) for a in runs[i][1])
        blocks.append(Block(index=len(blocks), tau=tau, lo=b, hi=b + n,
                            speed=gamma * (s_hi - s_b), members=members))
        b, s_b, start = b + n, s_hi, last + 1
    return RateProfile(gamma=gamma, blocks=tuple(blocks))


@st.composite
def _rate_cases(draw):
    """Alive jobs whose shares tie exactly or within a few ulps to 2^-24
    relative, often in chains, on one to three classes; float or exact.
    Shares reach from 6.4e7, where water levels fall far below 1, down to
    10^-18, and often all but the first job's sit 10^12 below it."""
    exact = draw(st.booleans())
    speeds = sorted(draw(st.sets(st.sampled_from([64, 13, 8, 5, 3, 2, 1]),
                                 min_size=1, max_size=3)), reverse=True)
    classes = [(Fraction(s), draw(st.integers(1, 4))) for s in speeds]
    gamma = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(7, 2)]))
    # shares near the speeds make the water levels of runs on different
    # classes tie as well
    targets = draw(st.lists(
        st.builds(lambda t, k: t * Fraction(10) ** k,
                  st.sampled_from([64, 13, 8, 5, 3, 2, 1, Fraction(1, 3)]),
                  st.sampled_from([0, 0, 0, -3, -6, 3, 6])),
        min_size=1, max_size=3))
    exponent = draw(st.integers(24, 52))
    alive = []
    for job_id in range(1, draw(st.integers(1, 8)) + 1):
        count = draw(st.integers(1, 3))
        nudge = Fraction(draw(st.integers(-3, 3)), 2 ** draw(st.integers(exponent, 52)))
        weight = draw(st.sampled_from(targets)) * count * (1 + nudge)
        alive.append((job_id, weight, count))
    if draw(st.booleans()):
        # every later share sum adds small shares to a large one
        alive[1:] = [(j, w / 10 ** 12, c) for j, w, c in alive[1:]]
    if not exact:
        alive = [(j, float(w), c) for j, w, c in alive]
        classes = [(float(s), c) for s, c in classes]
        gamma = float(gamma)
    return alive, classes, gamma, exact


@settings(max_examples=400, deadline=None)
@given(_rate_cases())
# shares 12 orders of magnitude apart: a level's share sum taken as a
# difference of running totals cancels, and the two small runs tie
@example(([(1, 1e6, 1), (2, 1e-6 * (1 + 1e-8), 1), (3, 1e-6, 1)], [(1.0, 3)], 1.0, False))
# water levels near 1e-6 that differ by 6e-8 relative: an absolute tie
# slack of 1e-12 would freeze them as one over-full block
@example(([(1, 64000000.0, 1), (2, 64000004.0, 1)], [(64.0, 2)], 1.0, False))
# exactly tied shares admitted out of job-id order: a run lists its members
# by ascending job id
@example(([(5, 4.0, 2), (2, 1.0, 1), (4, 2.0, 1), (1, 1.0, 1), (3, 6.0, 3)],
          [(3.0, 2), (1.0, 3)], 1.0, False))
@example(([(5, Fraction(4), 2), (2, Fraction(1), 1), (4, Fraction(2), 1), (1, Fraction(1), 1),
           (3, Fraction(6), 3)], [(Fraction(3), 2), (Fraction(1), 3)], Fraction(1), True))
def test_assign_rates_matches_first_definition(case):
    alive, classes, gamma, exact = case
    inst = alive_instance(classes, gamma, exact=exact)
    got = assign_rates(alive_jobs(alive), inst)
    want = first_assign_rates(alive_jobs(alive), inst)
    # repr tells a Fraction from an equal float, and floats by their bits
    assert repr(got) == repr(want)
    oracle = sweep_rates([(j, float(w), c) for j, w, c in alive],
                         [(float(s), c) for s, c in classes], float(gamma))
    for prof in (got, want):
        assert star_witness(prof, inst) == (True, None)
        for j, _, _ in alive:
            assert float(prof.rate_of(j)) == pytest.approx(oracle[j], rel=1e-5, abs=1e-9)


def test_levels_below_one_tie_relative_to_their_size():
    # the two levels, about 1e-6, lie 6e-8 apart relative to their size but
    # within 1e-12 absolute; they are not tied, so the jobs freeze apart and
    # every interval realizes
    inst = make_instance([(64, 2)], [make_job(1, 64000000.0, [1]),
                                     make_job(2, 64000004.0, [1])])
    trace = simulate(inst)
    first = trace.intervals[0].profile
    assert [[m.job_id for m in b.members] for b in first.blocks] == [[2], [1]]
    for iv in trace.intervals:
        realize_slice(iv.profile, inst, iv)
