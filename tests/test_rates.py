"""Water-filling rate assignment: worked cases, oracle agreement, invariants."""

import random
from fractions import Fraction

import pytest

from bagsched import AliveJob, assign_rates
from bagsched.rates import RateError, freeze_order_rate_check, verify_star

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
        assert verify_star(prof, inst)


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
                edge = gamma * inst.machine_speed(blk.hi)
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


def test_verify_star_rejects_overload():
    # rates computed for fast machines fail the check on slower ones
    prof, _ = rates_for([(1, 1.0, 1), (2, 1.0, 1)], [(4, 1), (2, 1)], 1.0)
    slow = alive_instance([(2, 1), (1, 1)], 1.0)
    assert not verify_star(prof, slow)


def test_freeze_order_comparisons():
    # identity case: one task alone
    prof, inst = rates_for([(1, 1.0, 1)], [(2, 1)], 1.0)
    assert freeze_order_rate_check(prof, 1, [1], [1], inst)

    # skewed case: late task against the pooled earlier mass
    prof, inst = rates_for([(1, 10.0, 1), (2, 1.0, 1)], [(4, 1), (1, 1)], 1.0)
    assert freeze_order_rate_check(prof, 2, [2], [1, 2], inst)
    with pytest.raises(RateError):
        freeze_order_rate_check(prof, 1, [2, 1], [2], inst)

    rng = random.Random(31)
    for _ in range(100):
        alive, classes, gamma = random_alive_case(rng)
        prof, inst = rates_for(alive, classes, gamma)
        by_block = sorted(
            (j for j, _, _ in alive), key=lambda j: prof.block_of(j).index)
        for pos, j in enumerate(by_block):
            later = [x for x in by_block
                     if prof.block_of(x).index >= prof.block_of(j).index]
            earlier = [x for x in by_block
                       if prof.block_of(x).index <= prof.block_of(j).index]
            assert freeze_order_rate_check(prof, j, later, earlier, inst)


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
                block, member = next(
                    (b, m) for b in prof.blocks for m in b.members
                    if m.job_id == j)
                assert prof.block_of(j) is block
                assert prof.member_of(j) is member
                assert prof.rate_of(j) == member.rate
            for absent in (0, len(alive) + 1, -3):
                for lookup in (prof.rate_of, prof.block_of, prof.member_of):
                    with pytest.raises(RateError):
                        lookup(absent)
    empty = assign_rates([], alive_instance([(1.0, 1)]))
    with pytest.raises(RateError):
        empty.rate_of(1)
