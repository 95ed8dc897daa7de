"""Simulator: event loop, objective identities, slice realization, trace IO."""

import io
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagsched import (
    check_primal,
    gen_lower_bound,
    gen_random_ica,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    make_job,
    RateProfile,
    realize_slice,
    schedule_to_primal,
    simulate,
    with_speedup,
    write_trace,
)
from bagsched.duals import weaker_threshold
from bagsched.numutil import EVENT_REL, Rational
from bagsched.rates import Block, BlockMember

from oracles import step_realize
from support import alive_instance, alive_jobs, classes_of
from bagsched import assign_rates


def test_single_task_single_machine():
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [5])])
    tr = simulate(inst)
    assert tr.completions[1] == pytest.approx(5.0)
    assert tr.makespan == pytest.approx(5.0)
    assert tr.objective == pytest.approx(5.0)
    assert len(tr.intervals) == 1


def test_two_tasks_pool_machines():
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [3, 3])])
    tr = simulate(inst)
    # both tasks run at 1.5 and finish together at t=2
    assert tr.completions[1] == pytest.approx(2.0)
    assert len(tr.intervals) == 1
    iv = tr.intervals[0]
    assert iv.profile.rate_of(1) == pytest.approx(1.5)


def test_staircase_makespan_exact():
    tr = simulate(gen_lower_bound(2))
    assert tr.makespan == Fraction(53, 32)
    assert float(tr.makespan) == 1.65625
    # phase structure: one interval per class
    assert len(tr.intervals) == 2


def test_objective_identities():
    rng = random.Random(3)
    for seed in range(25):
        inst = gen_random_ica(k=1 + seed % 3, jobs=1 + rng.randint(0, 3),
                              max_tasks=5, seed=seed)
        inst = with_speedup(inst, rng.choice([1.0, 2.0, 5.0]))
        tr = simulate(inst)
        by_completion = sum(
            float(j.weight) * float(tr.completions[j.job_id])
            for j in inst.jobs)
        assert float(tr.objective) == pytest.approx(by_completion, rel=1e-9)
        alive_weight_integral = sum(
            iv.alive_weight() * iv.length() for iv in tr.intervals)
        assert float(tr.objective) == pytest.approx(
            float(alive_weight_integral), rel=1e-9)
        assert tr.makespan == max(tr.completions.values())


def test_work_conservation_exact_mode():
    inst = make_instance(
        [(Fraction(64), 1), (Fraction(1), 128)],
        [make_job(1, Fraction(2), [(Fraction(64), 1), (Fraction(1), 16)],
                  exact=True),
         make_job(2, Fraction(1), [(Fraction(7, 2), 3)], exact=True)],
        speedup=Fraction(3),
        exact=True,
    )
    tr = simulate(inst)
    for job in inst.jobs:
        for gi, grp in enumerate(job.groups):
            done = tr.group_completions[(job.job_id, gi)]
            delivered = Fraction(0)
            for iv in tr.intervals:
                if iv.start >= done:
                    continue
                j = next((x for x in iv.jobs if x.job_id == job.job_id), None)
                if j is None:
                    continue
                overlap = min(iv.end, done) - iv.start
                delivered += j.rate * overlap
            assert delivered == grp.size  # exact conservation per task


def test_equal_tasks_complete_in_one_batch():
    inst = make_instance([(2, 1), (1, 1)], [make_job(1, 1.0, [2, 2, 2, 2])])
    tr = simulate(inst)
    assert len(tr.intervals) == 1
    assert tr.completions[1] == tr.intervals[0].end


def test_completions_batch_within_event_rel():
    # a completion at most EVENT_REL (relative) after the next one joins its
    # event; one ulp further it gets an interval of its own, and exact mode
    # batches equal times only
    def run(second, exact=False):
        one = Fraction(1) if exact else 1.0
        return simulate(make_instance(
            [(one, 2)],
            [make_job(1, one, [one], exact=exact),
             make_job(2, one, [second], exact=exact)],
            exact=exact))

    edge = run(1 + EVENT_REL)
    assert len(edge.intervals) == 1
    assert edge.group_completions == {(1, 0): 1.0, (2, 0): 1.0}
    past = run(math.nextafter(1 + EVENT_REL, 2))
    assert len(past.intervals) == 2
    assert past.group_completions[(2, 0)] > past.group_completions[(1, 0)] == 1.0
    exact = run(1 + Fraction(1, 10 ** 13), exact=True)
    assert len(exact.intervals) == 2
    assert exact.group_completions[(2, 0)] == 1 + Fraction(1, 10 ** 13)


def test_release_dates_enter_alive_set():
    inst = make_instance(
        [(1, 1)],
        [make_job(1, 1.0, [1]), make_job(2, 1.0, [1], release=0.5)])
    tr = simulate(inst)
    assert inst.has_releases()
    assert tr.completions[1] == pytest.approx(1.5)
    assert tr.completions[2] == pytest.approx(2.0)


def test_interval_jobs_are_the_profile_members_in_job_order():
    # job 3 arrives before job 2, and job 2's share (6) tops job 3's (2/3)
    # and job 1's (1/2), so the profile lists jobs as 2, 3, 1
    inst = make_instance(
        [(4, 1), (1, 3)],
        [make_job(1, 1.0, [8, 8]), make_job(2, 6.0, [4], release=1.5),
         make_job(3, 2.0, [8, 8, 8], release=0.5)],
        speedup=2)
    tr = simulate(inst)
    assert [[m.job_id for m in iv.profile.members()] for iv in tr.intervals] \
        == [[1], [3, 1], [2, 3, 1], [3, 1], [3]]
    for iv in tr.intervals:
        members = {m.job_id: m for m in iv.profile.members()}
        assert [j.job_id for j in iv.jobs] == sorted(members)
        assert all(j is members[j.job_id] for j in iv.jobs)
        weight = 0
        for j in iv.jobs:
            weight = weight + j.weight
        assert iv.alive_weight() == weight


@pytest.mark.parametrize("exact", [False, True])
def test_idle_gaps_and_zero_size_tasks(exact):
    # worked by hand on machines of speed 2 and 1: jobs 1 and 3 share both
    # (rate 3/2 each) until job 1's size 2 is done at 4/3; job 3's last
    # unit then runs at 2 until 11/6. Zero-size tasks finish at their
    # release (job 3's at 0, job 4's at 2), so nothing runs from 11/6 until
    # job 2 arrives at 5; its two unit tasks run at 3/2 each until 17/3.
    jobs = [make_job(1, 1, [2], exact=exact),
            make_job(2, 2, [1, 1], release=5, exact=exact),
            make_job(3, 1, [0, 3], exact=exact),
            make_job(4, 1, [0], release=2, exact=exact)]
    tr = simulate(make_instance([(2, 1), (1, 1)], jobs, exact=exact))
    want = {1: Fraction(4, 3), 3: Fraction(11, 6), 4: Fraction(2),
            2: Fraction(17, 3), "objective": Fraction(33, 2)}
    if not exact:
        want = {k: pytest.approx(float(v), rel=1e-15) for k, v in want.items()}
    assert {**tr.completions, "objective": tr.objective} == want
    assert tr.group_completions[(3, 1)] == 0 and tr.group_completions[(4, 0)] == 2
    # three intervals, and none covers the idle gap (11/6, 5)
    assert [(iv.start, iv.end) for iv in tr.intervals] == [
        (0, want[1]), (want[1], want[3]), (5, want[2])]


def test_realize_slice_examples():
    # pooled pair: machine 1 time-shares, quotas met exactly
    inst = alive_instance([(2, 1), (1, 1)], 1.0)
    prof = assign_rates(alive_jobs([(1, 1.0, 1), (2, 1.0, 1)]), inst)
    sl = realize_slice(prof, inst, (0.0, 1.0))
    assert sl.work[1] == pytest.approx(1.5)
    assert sl.work[2] == pytest.approx(1.5)
    for seg in sl.segments:
        spans = []
        for pl in seg.placements:
            if pl.machine_lo <= pl.machine_hi:
                spans.append((pl.machine_lo, pl.machine_hi))
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 < a2  # machine ranges never overlap

    # pinned pair: rates match machine speeds, no sharing needed
    inst = alive_instance([(4, 1), (1, 1)], 1.0)
    prof = assign_rates(alive_jobs([(1, 10.0, 1), (2, 1.0, 1)]), inst)
    sl = realize_slice(prof, inst, (0.0, 2.0))
    assert sl.work[1] == pytest.approx(8.0)
    assert sl.work[2] == pytest.approx(2.0)


def test_realize_matches_step_oracle():
    rng = random.Random(8)
    for seed in range(6):
        inst = gen_random_ica(k=2, jobs=2, max_tasks=5, seed=seed)
        inst = with_speedup(inst, 4.0)
        tr = simulate(inst)
        classes = classes_of(inst)
        for iv in tr.intervals:
            length = float(iv.end - iv.start)
            if length <= 0:
                continue
            sl = realize_slice(iv.profile, inst, iv)
            quotas = {}
            for j in iv.jobs:
                per = float(iv.profile.rate_of(j.job_id)) * length
                assert sl.work[j.job_id] == pytest.approx(per, rel=1e-9)
                for t in range(j.count):
                    quotas[(j.job_id, t)] = per
            steps = 4000
            got = step_realize(quotas, classes, float(inst.speedup),
                               length, steps=steps)
            tol = 5 * (length / steps) * float(inst.speedup) * classes[0][0]
            for key, quota in quotas.items():
                assert abs(got[key] - quota) <= tol + 1e-9


def test_trace_roundtrip_and_determinism():
    inst = gen_random_ica(k=2, jobs=3, max_tasks=4, seed=5)
    a = simulate(inst)
    b = simulate(inst)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trace(a, buf_a)
    write_trace(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()

    buf_a.seek(0)
    records = [json.loads(line) for line in buf_a if line.strip()]
    meta = records[0]
    assert meta["instance"] == instance_to_dict(inst)
    body = [r for r in records if r.get("type") == "interval"]
    assert len(body) == len(a.intervals)
    tail = records[-1]
    assert tail["objective"] == pytest.approx(float(a.objective))
    assert tail["makespan"] == pytest.approx(float(a.makespan))


def test_realize_slice_ulp_inverted_quotas():
    # Per-block water levels round independently, so a later block's rate
    # can land one ulp above an earlier one. The catch-up event between
    # those entries must not produce a negative step that aborts the
    # slice with undelivered quota.
    from support import weaker_gamma

    inst = gen_random_ica(k=1, jobs=4, max_tasks=4, seed=195)
    sped = with_speedup(inst, weaker_gamma(inst))
    tr = simulate(sped)
    for iv in tr.intervals:
        length = iv.end - iv.start
        if length <= 0:
            continue
        sl = realize_slice(iv.profile, sped, iv)
        for j in iv.jobs:
            assert float(sl.work[j.job_id]) == pytest.approx(
                float(j.rate * length), rel=1e-9, abs=1e-12)


def test_realized_placements_are_never_stale():
    # placements are reused across segments; each one must still describe
    # its pool's current position and rate. Water-filling quotas only merge
    # before the slice ends; the same quotas in ascending order on machines
    # twice as fast drain from the front, so the pools behind them shift.
    from support import weaker_gamma

    def capacity(classes, k):
        total, start = Fraction(0), 0
        for speed, count in classes:
            total += speed * min(count, max(0, k - start))
            start += count
        return total

    shifted = 0
    for seed in range(6):
        base = gen_random_ica(k=1 + seed % 3, jobs=4 + seed, max_tasks=4,
                              seed=seed)
        inst = instance_from_dict(instance_to_dict(base), exact=True)
        inst = with_speedup(inst, Fraction(math.ceil(weaker_gamma(inst))))
        fast = make_instance([(s * 2, c) for s, c in classes_of(inst)],
                             inst.jobs, speedup=inst.speedup, exact=True)
        for iv in simulate(inst).intervals:
            ascending = RateProfile(gamma=iv.profile.gamma, blocks=tuple(
                replace(b, members=b.members[::-1])
                for b in iv.profile.blocks[::-1]))
            for profile, machines in ((iv.profile, inst), (ascending, fast)):
                classes = classes_of(machines)
                m = sum(count for _, count in classes)
                segments = realize_slice(profile, machines, iv).segments
                for seg in segments:
                    pos = 0
                    for pl in seg.placements:
                        lo, hi = min(pos, m), min(pos + pl.count, m)
                        assert pl.position_lo == pos
                        assert (pl.machine_lo, pl.machine_hi) == (lo + 1, hi)
                        assert sum(c for _, c in pl.members) == pl.count
                        assert list(pl.members) == sorted(pl.members)
                        assert pl.per_task_rate == profile.gamma * (
                            capacity(classes, hi) - capacity(classes, lo)
                        ) / pl.count
                        pos += pl.count
                shifted += sum(
                    pa.members == pb.members and pa.position_lo != pb.position_lo
                    for a, b in zip(segments, segments[1:])
                    for pa in a.placements for pb in b.placements)
    assert shifted > 0


def test_realize_reports_the_overfull_prefix():
    # rates fitted to faster machines cannot be realized on slower ones: the
    # slice raises with star_witness's prefix, scaled by the slice length
    from bagsched.rates import AliveJob
    from bagsched.sim import InfeasibleSliceError

    profile = assign_rates([AliveJob(1, 3.0, 1), AliveJob(2, 1.0, 2)],
                           make_instance([(4, 1), (1, 2)], []))
    slow = make_instance([(2, 1), (1, 2)], [])
    with pytest.raises(InfeasibleSliceError) as info:
        realize_slice(profile, slow, (0.0, 1.0))
    err = info.value
    assert (err.prefix_count, err.quota_sum, err.capacity) == (1, 4.0, 2.0)
    with pytest.raises(InfeasibleSliceError) as info:
        realize_slice(profile, slow, (1.0, 1.5))
    assert (info.value.quota_sum, info.value.capacity) == (2.0, 1.0)


def test_realize_reports_an_overfull_prefix_out_of_order():
    # a prefix that is over-full in listed order is reported even when the
    # rates also rise, instead of a livelock
    from bagsched.rates import AliveJob, star_witness
    from bagsched.sim import InfeasibleSliceError

    profile = assign_rates([AliveJob(1, 3.0, 1), AliveJob(2, 1.0, 2)],
                           make_instance([(4, 1), (1, 2)], []))
    rising = replace(profile, blocks=tuple(reversed(profile.blocks)))
    slow = make_instance([(2, 1), (1, 2)], [])
    assert star_witness(rising, slow) == (False, ("prefix", 3, 6.0, 4.0))
    with pytest.raises(InfeasibleSliceError) as info:
        realize_slice(rising, slow, (0.0, 0.5))
    err = info.value
    assert (err.prefix_count, err.quota_sum, err.capacity) == (3, 3.0, 2.0)


def first_realize_slice(profile, instance, start, end):
    """realize_slice as first written, with plain tuples for its records:
    every segment re-derives each pool's placement test, rate gap, drain
    time and merge test. Returns (segments, work), or raises as it did."""
    from bagsched.numutil import REL_TOL, close
    from bagsched.rates import star_witness
    from bagsched.sim import InfeasibleSliceError, LivelockError

    length = end - start
    gamma = profile.gamma
    m = instance.machine_count()
    entries = []  # [quota left, count, members dict, placement or None]
    for mem in profile.members():
        quota = mem.rate * length
        if quota == 0:
            continue
        if entries and entries[-1][0] == quota:
            entries[-1][1] += mem.count
            entries[-1][2][mem.job_id] = entries[-1][2].get(mem.job_id, 0) + mem.count
        else:
            entries.append([quota, mem.count, {mem.job_id: mem.count}, None])
    quota_scale = entries[0][0] if entries else 0
    tol = 0 if instance.exact else EVENT_REL * float(quota_scale or 1)
    work = {}
    for mem in profile.members():
        work[mem.job_id] = profile.gamma - profile.gamma

    def place(pos, entry):
        _, count, members, old = entry
        lo, hi = min(pos, m), min(pos + count, m)
        rate = gamma * (instance.capacity_prefix(hi) - instance.capacity_prefix(lo)) / count
        return (old[0] if old else tuple(sorted(members.items())),
                count, pos, lo + 1, hi, rate)

    max_segments = 4 * len(profile.blocks) + 4 * sum(1 for _ in profile.members()) + 8
    t = start
    segments = []
    while entries:
        if len(segments) >= max_segments:
            raise LivelockError(
                f"realization of [{start}, {end}) did not terminate "
                f"within {max_segments} segments")
        dt = end - t
        pos = 0
        ahead = None
        for entry in entries:
            quota, count, _, pl = entry
            if pl is None or pl[2] != pos:
                pl = entry[3] = place(pos, entry)
            pos += count
            r = pl[5]
            if r > 0 and quota / r < dt:
                dt = quota / r
            if ahead is not None:
                gap = ahead[0] - quota
                speed_gap = ahead[3][5] - r
                if speed_gap > 0 and gap > 0 and gap / speed_gap < dt:
                    dt = gap / speed_gap
            ahead = entry
        if dt <= 0:
            break
        seg_end = t + dt
        segments.append((t, seg_end, tuple(e[3] for e in entries)))
        t = seg_end
        merged = []
        for entry in entries:
            done = entry[3][5] * dt
            entry[0] = entry[0] - done
            for job in entry[2]:
                work[job] = work[job] + done
            if not entry[0] > tol:
                continue
            if merged and abs(merged[-1][0] - entry[0]) <= tol:
                merged[-1][1] += entry[1]
                for job, cnt in entry[2].items():
                    merged[-1][2][job] = merged[-1][2].get(job, 0) + cnt
                merged[-1][3] = None
            else:
                merged.append(entry)
        entries = merged
        if close(t, end, rel=EVENT_REL) or t >= end:
            break
    slack = 0 if instance.exact else REL_TOL * float(quota_scale or 1)
    if [e for e in entries if e[0] > slack]:
        _, witness = star_witness(profile, instance)
        if witness is None or witness[0] != "prefix":
            raise LivelockError(
                f"realization of [{start}, {end}) stalled with quota left "
                "but no overfull prefix")
        _, k, rate_sum, cap = witness
        raise InfeasibleSliceError(k, rate_sum * length, cap * length)
    return segments, work


def _bits(value):
    """A value's exact form: a float by its hex digits, a Fraction by its
    numerator and denominator, so that a float never equals a Fraction."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, Fraction):
        return ("fraction", value.numerator, value.denominator)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    return (type(value).__name__, value)


@st.composite
def _realize_cases(draw):
    """A rate profile, machines and a slice, float or exact. Shares drawn
    from a few values tie quotas exactly; member rates are nudged by a few
    ulps (2^-52 relative in exact mode), up or down; up to 28 tasks meet at
    most 9 machines, so pools past the last machine start at rate 0. Half
    the cases list the blocks and members backwards on machines twice as
    fast, so the quotas ascend and the front pools drain first, shifting
    every pool behind them."""
    exact = draw(st.booleans())
    speeds = sorted(draw(st.sets(st.sampled_from([8, 5, 3, 2, 1]),
                                 min_size=1, max_size=3)), reverse=True)
    classes = [(Fraction(s), draw(st.integers(1, 3))) for s in speeds]
    gamma = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(7, 2)]))
    shares = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 3), Fraction(5, 2)]
    alive = []
    for job_id in range(1, draw(st.integers(1, 7)) + 1):
        count = draw(st.integers(1, 4))
        alive.append((job_id, draw(st.sampled_from(shares)) * count, count))
    start = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(3)]))
    end = start + draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 2)]))
    if not exact:
        classes = [(float(s), c) for s, c in classes]
        gamma = float(gamma)
        alive = [(j, float(w), c) for j, w, c in alive]
        start, end = float(start), float(end)
    inst = alive_instance(classes, gamma, exact=exact)
    profile = assign_rates(alive_jobs(alive), inst)

    def nudge(rate):
        steps = draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))
        if exact:
            return rate * (1 + Fraction(steps, 2 ** 52))
        for _ in range(abs(steps)):
            rate = math.nextafter(rate, math.inf if steps > 0 else 0.0)
        return rate

    blocks = tuple(
        replace(b, members=tuple(replace(mem, rate=nudge(mem.rate)) for mem in b.members))
        for b in profile.blocks)
    if draw(st.booleans()):
        blocks = tuple(replace(b, members=b.members[::-1]) for b in blocks[::-1])
        inst = alive_instance([(s * 2, c) for s, c in classes], gamma, exact=exact)
    return RateProfile(gamma=gamma, blocks=blocks), inst, (start, end)


def _one_block_case(exact, classes, members, interval):
    """A realize case at speedup 1: machine classes (speed, count), one
    block whose (count, per-task rate) members make the pools in list order,
    and a slice, all Fractions converted to the mode."""
    num = Fraction if exact else float
    block = Block(0, num(1), 0, sum(c for c, _ in members), num(1), tuple(
        BlockMember(job_id, num(rate * count), count, num(rate), num(rate))
        for job_id, (count, rate) in enumerate(members, start=1)))
    inst = alive_instance([(num(s), c) for s, c in classes], num(1), exact=exact)
    return RateProfile(gamma=num(1), blocks=(block,)), inst, tuple(map(num, interval))


ULP = Fraction(1, 2 ** 52)  # one ulp of 1.0
REALIZE_RUN_CASES = {
    # one run of rate 2; its least quota, 1, is not its last pool's, 1 + ulp
    "least-not-last": ([(2, 3)], [(1, Fraction(3, 2)), (1, 1), (1, 1 + ULP)], (0, 1)),
    # a run of rate 2 on the two machines, then a run of rate 0 past them
    "rate-0-run": ([(2, 2)], [(1, 1), (1, Fraction(3, 4)), (1, Fraction(1, 2)),
                              (1, Fraction(1, 4))], (0, 1)),
    # one run of rate 2 whose second pool drains first, shifting the pools
    # behind it
    "inside-drains": ([(2, 4)], [(1, 1), (1, Fraction(1, 4)), (1, Fraction(3, 4)),
                                 (1, Fraction(1, 2))], (0, 1)),
    # a quota past the machine's capacity by less than REL_TOL: the float
    # segment ends an ulp below 6.87, close enough to end the slice
    "ends-an-ulp-early": ([(2, 1)], [(1, 2 + Fraction(1, 2 ** 34))],
                          (Fraction(8, 5), Fraction(687, 100))),
    # the pool on the fast machine catches the one behind it half way
    # through a slice that starts at 3/7, and the merged pool drains
    "catch-after-0": ([(2, 1), (1, 1)], [(1, Fraction(3, 2)), (1, 1)],
                      (Fraction(3, 7), Fraction(11, 5))),
    # the pool on the 4-machine catches the one behind it, the merged pool
    # catches the next one behind, and then the pool on the 8-machine
    # catches the three: one pool is merged into twice, re-placed with the
    # pool behind it kept, and then merged into the pool ahead of it
    "merge-chain": ([(8, 1), (4, 1), (2, 1), (1, 1)],
                    [(1, Fraction(9, 2)), (1, 2), (1, Fraction(3, 2)), (1, 1)],
                    (Fraction(1, 4), Fraction(5, 4))),
}


@settings(max_examples=300, deadline=None)
@given(_realize_cases())
@example(_one_block_case(False, *REALIZE_RUN_CASES["least-not-last"]))
@example(_one_block_case(True, *REALIZE_RUN_CASES["least-not-last"]))
@example(_one_block_case(False, *REALIZE_RUN_CASES["rate-0-run"]))
@example(_one_block_case(True, *REALIZE_RUN_CASES["rate-0-run"]))
@example(_one_block_case(False, *REALIZE_RUN_CASES["inside-drains"]))
@example(_one_block_case(True, *REALIZE_RUN_CASES["inside-drains"]))
@example(_one_block_case(False, *REALIZE_RUN_CASES["ends-an-ulp-early"]))
@example(_one_block_case(True, *REALIZE_RUN_CASES["ends-an-ulp-early"]))
@example(_one_block_case(False, *REALIZE_RUN_CASES["catch-after-0"]))
@example(_one_block_case(True, *REALIZE_RUN_CASES["catch-after-0"]))
@example(_one_block_case(False, *REALIZE_RUN_CASES["merge-chain"]))
@example(_one_block_case(True, *REALIZE_RUN_CASES["merge-chain"]))
def test_realize_slice_matches_first_definition(case):
    # per-pool cached rates and gaps must give the segments, placements and
    # work of a realization that re-derives them every segment, bit for bit
    profile, inst, (start, end) = case
    try:
        want = first_realize_slice(profile, inst, start, end)
    except RuntimeError as exc:
        with pytest.raises(type(exc)) as info:
            realize_slice(profile, inst, (start, end))
        assert str(info.value) == str(exc)
        return
    got = realize_slice(profile, inst, (start, end))
    segments = [(seg.start, seg.end, tuple(tuple(pl) for pl in seg.placements))
                for seg in got.segments]
    assert _bits(segments) == _bits(want[0])
    assert _bits(got.work) == _bits(want[1])
    assert (got.start, got.end) == (start, end)


def test_exact_run_realizes_as_first_defined_at_run_sized_denominators():
    # an exact run's interval ends carry denominators that grow with every
    # event; every slice of it realizes as first defined, bit for bit
    inst = with_speedup(instance_from_dict(instance_to_dict(
        gen_random_ica(3, 20, 4, 0)), exact=True), 18)
    trace = simulate(inst)
    assert trace.intervals[-1].end.denominator > 2 ** 500
    for iv in trace.intervals:
        got = realize_slice(iv.profile, inst, iv)
        segments, work = first_realize_slice(iv.profile, inst, iv.start, iv.end)
        assert _bits([(seg.start, seg.end, tuple(tuple(pl) for pl in seg.placements))
                      for seg in got.segments]) == _bits(segments)
        assert _bits(got.work) == _bits(work)


def test_float_run_realizes_as_first_defined_through_many_merges():
    # a float run at its weaker threshold realizes slices of about 17 pools
    # in which nearly every segment merges two of them, far past the pools
    # the drawn cases reach; every slice realizes as first defined, bit for
    # bit
    from support import weaker_gamma

    inst = gen_random_ica(3, 32, 4, 0)
    inst = with_speedup(inst, weaker_gamma(inst))
    most = 0
    for iv in simulate(inst).intervals:
        got = realize_slice(iv.profile, inst, iv)
        segments, work = first_realize_slice(iv.profile, inst, iv.start, iv.end)
        assert _bits([(seg.start, seg.end, tuple(tuple(pl) for pl in seg.placements))
                      for seg in got.segments]) == _bits(segments)
        assert _bits(got.work) == _bits(work)
        most = max(most, len(got.segments))
    assert most >= 16


def test_a_profile_that_lists_a_job_twice_is_refused():
    # pools merge by concatenating their members, which counts on every
    # job being listed once; a job listed twice is named, in both modes
    from bagsched.rates import RateError

    for exact in (False, True):
        profile, inst, interval = _one_block_case(
            exact, [(2, 2)], [(1, 1), (1, Fraction(1, 2)), (1, Fraction(1, 4))], (0, 1))
        block = profile.blocks[0]
        twice = replace(block, members=block.members + (block.members[1],))
        with pytest.raises(RateError, match="job 2 is listed twice"):
            realize_slice(replace(profile, blocks=(twice,)), inst, interval)


def _intervals_seen(intervals):
    return [(iv.start, iv.end, [(j.job_id, j.count, j.rate) for j in iv.jobs])
            for iv in intervals]


@pytest.mark.parametrize("seed, exact", [
    pytest.param(seed, exact, id=str(seed) if exact else f"float-{seed}")
    for exact in (True, False) for seed in range(30)])
def test_the_run_before_t_never_sees_the_sizes_left_at_t(seed, exact):
    # the scheduler is non-clairvoyant: making every task group that is not
    # complete by an interval start t 4/3 as large leaves every interval
    # before t as it was, its ends, alive jobs, counts and rates alike, bit
    # for bit in float mode too
    inst = with_speedup(instance_from_dict(instance_to_dict(
        gen_random_ica(1 + seed % 3, 8, 3, seed)), exact=exact), 8)
    trace = simulate(inst)
    n = len(trace.intervals)
    grow = Fraction(4, 3) if exact else 4 / 3
    for cut in (n // 4, n // 2, 3 * n // 4):
        t = trace.intervals[cut].start
        jobs = [
            make_job(job.job_id, job.weight, [
                (g.size * grow if trace.group_completions[(job.job_id, gi)] > t
                 else g.size, g.count)
                for gi, g in enumerate(job.groups)], release=job.release, exact=exact)
            for job in inst.jobs
        ]
        enlarged = simulate(make_instance(inst.classes, jobs, speedup=inst.speedup, exact=exact))
        assert enlarged.intervals[cut].start == t
        assert (_intervals_seen(enlarged.intervals[:cut])
                == _intervals_seen(trace.intervals[:cut]))


def _scaled(instance, k):
    """The float instance with every size and release times 2^-k."""
    return make_instance(instance.classes, [
        make_job(job.job_id, job.weight,
                 [(math.ldexp(g.size, -k), g.count) for g in job.groups],
                 release=math.ldexp(job.release, -k))
        for job in instance.jobs], speedup=instance.speedup)


def _run_at_scale(instance, k):
    """The run and its realized slices, every time and work times 2^k."""
    def up(t):
        return math.ldexp(t, k)
    trace = simulate(instance)
    run = []
    for iv in trace.intervals:
        sl = realize_slice(iv.profile, instance, iv)
        run.append((
            up(iv.start), up(iv.end), [(j.job_id, j.count, j.rate) for j in iv.jobs],
            [(up(seg.start), up(seg.end), seg.placements) for seg in sl.segments],
            {job: up(w) for job, w in sl.work.items()}))
    return up(trace.objective), run


def _scale_cases():
    cases = []
    for seed in range(12):
        inst = gen_random_ica(1 + seed % 4, 6 + seed, 3, seed)
        cases.append(pytest.param(with_speedup(inst, weaker_threshold(inst)),
                                  id=f"seed{seed}-weaker"))
        cases.append(pytest.param(with_speedup(inst, 8192), id=f"seed{seed}-8192"))
    # releases admit job 3 before job 2 (test_digest's _released)
    cases.append(pytest.param(make_instance(
        [(4, 1), (1, 3)],
        [make_job(1, 1.0, [3, 2]), make_job(2, 6.0, [2], release=1.5),
         make_job(3, 2.0, [4, 4, 1], release=0.5)],
        speedup=2), id="released"))
    return cases


@pytest.mark.parametrize("inst", _scale_cases())
def test_scaling_sizes_by_a_power_of_two_scales_every_time(inst):
    # every time test is relative with no absolute floor, so the run at
    # 2^-k of the sizes and releases is the run at full size with every
    # time, segment and work value times 2^-k, and the same placements.
    # With a floor of 1, a slice shorter than 1e-12 ended after its first
    # segment and stalled, and a release within 1e-12 of an event time was
    # admitted early
    want = _run_at_scale(inst, 0)
    for k in (40, 200, 600):
        assert _run_at_scale(_scaled(inst, k), k) == want


@st.composite
def _exact_pipeline_cases(draw):
    """A small exact gen_random_ica instance whose weights are redrawn from
    a few values, each nudged by a few parts in 2^52 so that shares tie or
    nearly tie, and whose jobs may gain a zero-size group and a release."""
    inst = gen_random_ica(draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                          draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16)))
    weights = [Fraction(1), Fraction(2), Fraction(7, 2)]
    jobs = []
    for job in inst.jobs:
        weight = draw(st.sampled_from(weights)) * (
            1 + Fraction(draw(st.integers(-2, 2)), 2 ** 52))
        sizes = [(Fraction(g.size), g.count) for g in job.groups]
        if draw(st.booleans()):
            sizes.append((Fraction(0), draw(st.integers(1, 3))))
        release = draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(3)]))
        jobs.append(make_job(job.job_id, weight, sizes, release=release, exact=True))
    gamma = draw(st.sampled_from([Fraction(1), Fraction(3), Fraction(8)]))
    return make_instance([(Fraction(c.speed), c.count) for c in inst.classes], jobs,
                         speedup=gamma, exact=True)


@settings(max_examples=40, deadline=None)
@given(_exact_pipeline_cases())
def test_exact_segments_deliver_every_quota(inst):
    # an exact slice reports each job's quota as its work without summing
    # its segments, so the segments are summed here: per alive job, the
    # per-task rate times the length of every segment whose placement
    # holds it must be the quota exactly. Then the slices embed as a
    # checked LP primal
    slices = []
    for iv in simulate(inst).intervals:
        sl = realize_slice(iv.profile, inst, iv)
        delivered = {}
        for seg in sl.segments:
            for pl in seg.placements:
                for job, _ in pl.members:
                    delivered[job] = delivered.get(job, 0) + pl.per_task_rate * (seg.end - seg.start)
        for j in iv.jobs:
            quota = j.rate * iv.length()
            assert type(quota) is Rational  # exact, on the kernel's fast path
            assert delivered[j.job_id] == quota == sl.work[j.job_id]
        slices.append(sl)
    check_primal(schedule_to_primal(slices, inst), inst)
