"""Dual certificates: worked examples, identities, thresholds, rejections."""

import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from bagsched import (
    AnalysisError,
    LpError,
    build_general_duals,
    build_single_job_duals,
    build_weaker_duals,
    certified_ratio,
    check_primal,
    classify_blocks,
    gen_lower_bound,
    gen_random_ica,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    make_job,
    rank_bands,
    schedule_to_primal,
    simulate,
    validate_ica,
    with_speedup,
)
from bagsched.duals import general_threshold, halving_spans

from oracles import unit_slot_lp_value
from support import general_gamma, lp_of, single_gamma, weaker_gamma


def run(instance, gamma):
    inst = with_speedup(instance, gamma)
    return simulate(inst), inst


# --- halving groups --------------------------------------------------------

def test_halving_spans_three_tasks():
    # 3 tasks pad to 4: group sizes 1 and 2, credit halves per group
    spans = halving_spans(1.0, 3, 4.0)
    assert spans == [(0, 1, 0.25), (1, 3, 0.125)]
    budget = sum((hi - lo) * v for lo, hi, v in spans)
    assert budget <= 1.0


def test_halving_spans_budget_within_weight():
    for n in (1, 2, 5, 9, 129):
        gamma = 2.0 * max(1, math.log2(n) if n > 1 else 1)
        spans = halving_spans(3.0, n, gamma)
        assert spans[0][0] == 0 and spans[-1][1] == n
        budget = sum((hi - lo) * v for lo, hi, v in spans)
        assert budget <= 3.0 + 1e-12


# --- spread-weight family --------------------------------------------------

def test_weaker_single_task_worked_example():
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [1])])
    trace, inst = run(inst, 2.0)
    cert = build_weaker_duals(trace, inst)
    assert cert.gamma_required == 2.0
    assert cert.gamma_ok
    assert cert.feasible
    # cost = 1/2; alpha integrates the alive weight, each of the single
    # machine's credits is w/gamma
    assert cert.alpha_total == pytest.approx(0.5)
    assert cert.beta_total == pytest.approx(0.25)
    assert cert.objective == pytest.approx(0.25)
    assert certified_ratio(cert, trace) == pytest.approx(4.0)  # = 2*gamma


def test_weaker_objective_identity():
    # dual objective is exactly (1 - K/gamma) * cost on feasible runs
    rng = random.Random(2)
    for seed in range(40):
        k = 1 + seed % 3
        inst = gen_random_ica(k=k, jobs=1 + rng.randint(0, 3),
                              max_tasks=6, seed=seed)
        trace, sped = run(inst, weaker_gamma(inst))
        cert = build_weaker_duals(trace, sped)
        assert cert.gamma_ok
        assert cert.feasible, [
            (v.check, v.witness) for v in cert.violations()[:3]]
        cost = float(trace.objective)
        want = (1.0 - k / float(sped.speedup)) * cost
        assert cert.objective == pytest.approx(want, rel=1e-9)
        assert cert.objective >= 0.5 * cost - 1e-6
        ratio = certified_ratio(cert, trace)
        assert ratio <= 2 * float(sped.speedup) + 1e-6


def test_weaker_below_threshold_is_flagged():
    inst = gen_lower_bound(2)
    trace, sped = run(inst, 1.0)
    cert = build_weaker_duals(trace, sped)
    assert not cert.gamma_ok
    assert cert.gamma_required == pytest.approx(
        2.0 * math.log2(129), rel=1e-12)


def test_certified_ratio_requires_feasibility():
    inst = gen_lower_bound(2)
    trace, sped = run(inst, 1.0)
    cert = build_weaker_duals(trace, sped)
    if not cert.feasible:
        with pytest.raises(AnalysisError):
            certified_ratio(cert, trace)
    else:
        pytest.skip("unexpectedly feasible below threshold")


def test_weaker_rejects_release_dates():
    inst = make_instance(
        [(1, 1)], [make_job(1, 1.0, [1]), make_job(2, 1.0, [1], release=0.5)])
    trace = simulate(inst)
    with pytest.raises(AnalysisError):
        build_weaker_duals(trace, inst)


# --- single-job family -----------------------------------------------------

def test_rank_bands_staircase():
    inst = gen_lower_bound(2)
    bands = rank_bands(inst)
    assert bands.prefix == (0, 1, 129)
    assert bands.band == (64,)
    assert bands.tail == (64,)
    assert bands.reach == (65,)


def test_single_job_trivial_one_task():
    inst = make_instance([(64, 1)], [make_job(1, 1, [(64, 1)])])
    trace, sped = run(inst, 2.0)
    cert = build_single_job_duals(trace, sped)
    assert cert.feasible
    assert cert.objective == pytest.approx(float(trace.makespan) / 2)


def test_single_job_staircase_families():
    for k in (2, 3):
        inst = gen_lower_bound(k)
        trace, sped = run(inst, single_gamma(k))
        cert = build_single_job_duals(trace, sped)
        assert cert.gamma_ok
        assert cert.feasible, [
            (v.check, v.witness) for v in cert.violations()[:3]]
        mk = float(trace.makespan)
        assert abs(cert.objective - mk / 2) <= 1e-8 * mk
        # machine credit rate is 1/2 while tasks remain
        assert cert.beta_total == pytest.approx(mk / 2, rel=1e-9)
        assert certified_ratio(cert, trace) == pytest.approx(
            2 * single_gamma(k) * k, rel=1e-9)


def test_single_job_epoch_order_diagnostic():
    # batch completions tie the reach time with the break time: the
    # strict-order diagnostic records that without breaking feasibility
    inst = gen_lower_bound(3)
    trace, sped = run(inst, single_gamma(3))
    cert = build_single_job_duals(trace, sped)
    order = cert.check("epoch-strict-order")
    assert order.diagnostic
    assert not order.ok
    assert cert.feasible
    bands = cert.flags["bands"]
    # breakpoints fall latest for the fastest class (non-strict)
    assert list(bands["break_times"]) == sorted(
        bands["break_times"], reverse=True)

    # staggered middle sizes separate the breakpoints: strict order holds
    sizes = [(4096, 1)] + [(64 + i / 4, 1) for i in range(128)] + [(1, 24576)]
    inst = make_instance(
        [(4096, 1), (64, 128), (1, 24576)], [make_job(1, 1, sizes)])
    trace, sped = run(inst, single_gamma(3))
    cert = build_single_job_duals(trace, sped)
    assert cert.feasible
    assert cert.check("epoch-strict-order").ok


def test_single_job_rejections():
    two = make_instance(
        [(64, 1), (1, 128)],
        [make_job(1, 1, [(64, 1)]), make_job(2, 1, [(1, 1)])])
    trace = simulate(with_speedup(two, 4.0))
    with pytest.raises(AnalysisError):
        build_single_job_duals(trace, with_speedup(two, 4.0))

    heavy = make_instance([(64, 1), (1, 128)], [make_job(1, 2, [(64, 1)])])
    trace = simulate(with_speedup(heavy, 4.0))
    with pytest.raises(AnalysisError):
        build_single_job_duals(trace, with_speedup(heavy, 4.0))

    loose = make_instance([(64, 1), (1, 100)], [make_job(1, 1, [(64, 1)])])
    trace = simulate(with_speedup(loose, 4.0))
    with pytest.raises(AnalysisError):
        build_single_job_duals(trace, with_speedup(loose, 4.0))


def test_each_certificate_validates_the_profile_once():
    # rank_bands and classify_blocks once called validate_ica and then
    # thresholds, which validates the profile again. The calls are counted
    # on the function's code, whatever name a module imported it under
    calls = []

    def note(frame, event, _):
        if event == "call":
            calls.append(frame.f_code)

    for build, gamma in ((build_single_job_duals, single_gamma(3)),
                         (build_general_duals, general_gamma(3))):
        trace, sped = run(gen_lower_bound(3), gamma)
        calls.clear()
        sys.setprofile(note)
        try:
            build(trace, sped)
        finally:
            sys.setprofile(None)
        assert calls.count(validate_ica.__code__) == 1


def test_a_profile_without_the_growth_conditions_is_refused():
    loose = with_speedup(make_instance([(64, 1), (1, 100)], [make_job(1, 1, [(64, 1)])]),
                         general_gamma(2))
    trace = simulate(loose)
    with pytest.raises(AnalysisError) as err:
        rank_bands(loose)
    assert str(err.value) == "rank bands require the capacity growth conditions"
    with pytest.raises(AnalysisError) as err:
        classify_blocks(trace, loose)
    assert str(err.value) == "block classification requires the capacity growth conditions"


def test_rank_bands_need_integral_blend():
    # blended count 100/1.5 is fractional: certificate refuses
    inst = make_instance(
        [(Fraction(100), 1), (Fraction(3, 2), 134)],
        [make_job(1, 1, [(Fraction(100), 1)], exact=True)],
        exact=True)
    with pytest.raises(AnalysisError):
        rank_bands(inst)


def test_single_job_below_threshold_is_flagged():
    inst = gen_lower_bound(2)
    trace, sped = run(inst, 3.0)  # threshold is 4
    cert = build_single_job_duals(trace, sped)
    assert cert.gamma_required == 4.0
    assert not cert.gamma_ok


# --- general family --------------------------------------------------------

def test_general_single_job_has_no_long_half():
    inst = gen_lower_bound(2)
    trace, sped = run(inst, general_gamma(2))
    cert = build_general_duals(trace, sped)
    assert cert.feasible, [
        (v.check, v.witness) for v in cert.violations()[:3]]
    assert cert.flags["long_job_intervals"] == 0
    assert cert.flags["simple_job_intervals"] > 0
    # machine credit identity: beta integrates cost / (K log K)
    k = 2
    logk = max(math.log2(k), 1.0)
    ident = cert.check("machine-credit-cost-identity")
    assert ident.ok
    assert cert.beta_total == pytest.approx(
        float(trace.objective) / (k * logk), rel=1e-9)


def test_general_alpha_floor_two_jobs():
    inst = make_instance(
        [(64, 1), (1, 128)],
        [make_job(1, 1.0, [(64, 1)]), make_job(2, 1.0, [(64, 1)])])
    k = 2
    trace, sped = run(inst, general_gamma(k))
    cert = build_general_duals(trace, sped)
    assert cert.feasible, [
        (v.check, v.witness) for v in cert.violations()[:3]]
    logk = max(math.log2(k), 1.0)
    floor = float(trace.objective) / (1800.0 * k * logk)
    assert cert.alpha_total >= floor - 1e-9
    assert cert.check("alpha-cost-floor").ok


def test_general_job_simple_with_respect_to_no_class():
    # job 1's 20000 unit tasks run far below every class speed, so in both
    # of its intervals it is simple with respect to no class and carries
    # only the long-block alpha; job 2 is simple in its one interval
    inst = make_instance(
        [(64.0, 1), (1.0, 128)],
        [make_job(1, 1.0, [(1.0, 20000)]), make_job(2, 10.0, [(1000.0, 1)])])
    trace, sped = run(inst, general_gamma(2))
    assert [[j.job_id for j in iv.jobs] for iv in trace.intervals] == [[1, 2], [1]]
    cert = build_general_duals(trace, sped)
    assert cert.feasible, [
        (v.check, v.witness) for v in cert.violations()[:3]]
    assert cert.flags["simple_job_intervals"] == 1
    assert cert.flags["long_job_intervals"] == 2


def test_general_random_instances():
    rng = random.Random(6)
    for seed in range(25):
        k = 1 + seed % 3
        inst = gen_random_ica(k=k, jobs=1 + rng.randint(0, 4),
                              max_tasks=5, seed=seed)
        trace, sped = run(inst, general_gamma(k))
        cert = build_general_duals(trace, sped)
        assert cert.gamma_ok
        assert cert.feasible, [
            (v.check, v.witness) for v in cert.violations()[:3]]
        # the checker scans rate-cover on every piece of alpha's spans
        assert cert.check("rate-cover").checked > 0
        split = cert.check("alive-weight-split")
        assert split.ok
        assert split.checked == len(trace.intervals)


def _hexed(value):
    """A JSON value with every float written as its hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _spread_weights(i):
    """gen_random_ica(K=2 or 3, 6 jobs) with weights log-uniform in
    [1e-3, 1e3], at the general threshold over 1, 4 or 64; every fifth
    instance is exact. Weights in [1, 10], as the generator draws them,
    never make a block cheap."""
    k = 2 + i % 2
    base = gen_random_ica(k, 6, 3, i)
    rng = random.Random(i)
    inst = make_instance(base.classes, [
        make_job(j.job_id, 10 ** rng.uniform(-3, 3),
                 [(g.size, g.count) for g in j.groups])
        for j in base.jobs])
    if i % 5 == 4:
        inst = instance_from_dict(instance_to_dict(inst), exact=True)
    return with_speedup(inst, general_threshold(inst) / (1, 4, 64)[i % 3])


def test_general_spread_weights_reach_cheap_blocks():
    # pins the general family's certificates, bit for bit, on instances
    # whose blocks turn cheap
    digest = hashlib.sha256()
    cheap = 0
    for i in range(40):
        inst = _spread_weights(i)
        trace = simulate(inst)
        cheap += sum(v.label == "cheap" for iv in classify_blocks(trace, inst).intervals
                     for v in iv.blocks)
        cert = build_general_duals(trace, inst)
        digest.update(json.dumps(_hexed(cert.to_dict()), sort_keys=True).encode() + b"\n")
    assert cheap > 0
    assert digest.hexdigest() == (
        "2e51d947b7d1b20842071be35e25e510161a8448085adbd2860f7e6d0650cc6d")


def test_general_rejects_release_dates():
    inst = make_instance(
        [(1, 1)], [make_job(1, 1.0, [1]), make_job(2, 1.0, [1], release=0.5)])
    trace = simulate(inst)
    with pytest.raises(AnalysisError):
        build_general_duals(trace, inst)


def test_interval_bookkeeping_spans_trace():
    inst = gen_random_ica(k=2, jobs=3, max_tasks=4, seed=9)
    trace, sped = run(inst, weaker_gamma(inst))
    cert = build_weaker_duals(trace, sped)
    monotone = cert.check("alive-weight-monotone")
    assert monotone.ok
    assert monotone.checked == max(0, len(trace.intervals) - 1)


def test_certificates_refuse_another_instances_trace():
    # a builder reads gamma from the trace and the classes and jobs from the
    # instance; the weaker certificate of a's trace with b's instance once
    # came out feasible at objective 24.85, where b's own has 16.67. The LP
    # embedding once took its gamma from the trace, so a trace at speedup 4
    # embedded with the instance at speedup 8 came out saying gamma = 4
    a = with_speedup(gen_random_ica(2, 5, 3, 1), 8)
    b = with_speedup(gen_random_ica(2, 5, 3, 2), 8)
    trace = simulate(a)
    for build in (build_weaker_duals, build_single_job_duals,
                  build_general_duals, classify_blocks, schedule_to_primal):
        with pytest.raises(AnalysisError, match="not the one the trace simulated"):
            build(trace, b)
    slow = with_speedup(gen_random_ica(2, 4, 2, 1), 4)
    with pytest.raises(AnalysisError, match="not the one the trace simulated"):
        schedule_to_primal(simulate(slow), with_speedup(slow, 8))
    # an equal copy of the trace's own instance is accepted
    assert build_weaker_duals(trace, with_speedup(gen_random_ica(2, 5, 3, 1), 8)).feasible
    copy = with_speedup(gen_random_ica(2, 4, 2, 1), 4)
    primal = schedule_to_primal(simulate(slow), copy)
    # the primal's check reads the speedup of the instance it is given, so
    # the slower copy at speedup 2 finds its machines overloaded
    with pytest.raises(LpError, match="^row "):
        check_primal(primal, with_speedup(copy, 2))


def test_certificates_stay_below_the_lp_optimum():
    # an independent judge: HiGHS solves the unit-slot LP at the original
    # speeds over H = 1 + ceil(un-sped makespan) slots, and every feasible
    # certificate of every family at its threshold must not exceed LP*(H)
    # (see oracles.unit_slot_lp_value for why any feasible H will do). The
    # universe keeps LPs of at most 40,000 x variables, to stay fast.
    universe = [gen_random_ica(1 + s % 2, 2 + s % 2, 2, s) for s in range(8)]
    universe.append(gen_lower_bound(1))
    judged = set()
    for inst in universe:
        horizon = 1 + math.ceil(float(simulate(inst).makespan))
        if inst.machine_count() * inst.task_count() * horizon > 40_000:
            continue
        lp_star = unit_slot_lp_value(*lp_of(inst), horizon)
        assert lp_star is not None, "the horizon admits no LP solution"
        k = len(inst.classes)
        for build, gamma in ((build_weaker_duals, weaker_gamma(inst)),
                             (build_single_job_duals, single_gamma(k)),
                             (build_general_duals, general_gamma(k))):
            try:
                trace, sped = run(inst, gamma)
                cert = build(trace, sped)
            except AnalysisError:  # the single-job family takes one job
                continue
            assert cert.feasible
            # HiGHS solves to a relative tolerance near 1e-7
            assert float(cert.objective) <= lp_star * (1 + 1e-6), (cert.family, lp_star)
            judged.add(cert.family)
    assert judged == {"weaker", "single_job", "general"}
