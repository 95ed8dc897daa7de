"""The dual checker: mutants of each family's point, the running minimum of
the machine credit, malformed points, and a per-piece reference scan that
the checker must match record for record."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagsched import (
    AnalysisError,
    gen_lower_bound,
    gen_random_ica,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    make_job,
    simulate,
    with_speedup,
)
from bagsched.dualcheck import DualPoint, check_dual
from bagsched.numutil import coerce, leq, to_float
from bagsched.report import CheckList
from bagsched.duals import (
    _certify,
    _general_point,
    _single_job_point,
    _weaker_point,
    general_threshold,
    single_job_threshold,
    weaker_threshold,
)

from support import general_gamma, single_gamma, weaker_gamma


def _weaker_run():
    inst = gen_random_ica(3, 6, 4, 1)
    return with_speedup(inst, weaker_gamma(inst)), _weaker_point, weaker_threshold


def _single_run():
    return with_speedup(gen_lower_bound(2), single_gamma(2)), _single_job_point, single_job_threshold


def _general_run():
    return with_speedup(gen_random_ica(2, 5, 3, 2), general_gamma(2)), _general_point, general_threshold


FAMILIES = {"weaker": _weaker_run, "single_job": _single_run, "general": _general_run}


def _copy(point):
    """A point whose rows can be changed without touching `point`."""
    return DualPoint(
        alpha=[[list(spans) for spans in row] for row in point.alpha],
        beta=[list(b) for b in point.beta],
        delta={j: list(spans) for j, spans in point.delta.items()},
    )


def _bump(spans, q, by):
    """spans with the value at position q raised by `by`, q's span split."""
    out = []
    for lo, hi, v in spans:
        if lo <= q < hi:
            out += [(lo, q, v)] if lo < q else []
            out.append((q, q + 1, v + by))
            out += [(q + 1, hi, v)] if q + 1 < hi else []
        else:
            out.append((lo, hi, v))
    return out


def _raise_cover(trace, point, cert):
    # (a) alpha past its slack on the piece of rate-cover's min-slack witness
    record = cert.check("rate-cover")
    t, jid, q, _ = record.min_witness
    i = [ij.job_id for ij in trace.intervals[t].jobs].index(jid)
    spans = point.alpha[t][i]
    value = next(v for lo, hi, v in spans if lo <= q < hi)
    point.alpha[t][i] = _bump(spans, q, record.min_slack + 1e-6 * (1 + abs(value)))


def _raise_delta(trace, point, cert):
    # (b) one delta span until the job's task credits exceed its weight
    jid, spans = next((j, s) for j, s in point.delta.items() if s)
    weight = trace.instance.jobs[jid - 1].weight
    lo, hi, v = spans[0]
    point.delta[jid] = [(lo, hi, v + (weight + 1) / (hi - lo))] + spans[1:]


def _raise_alpha(trace, point, cert):
    # (c) one alpha span past its job's weight
    t, i = next((t, i) for t, row in enumerate(point.alpha)
                for i, spans in enumerate(row) if spans)
    weight = trace.intervals[t].jobs[i].weight
    lo, hi, v = point.alpha[t][i][0]
    point.alpha[t][i] = [(lo, hi, v + (weight + 1) / (hi - lo))] + point.alpha[t][i][1:]


def _negate_beta(trace, point, cert):
    # (d) one negative machine credit
    point.beta[0][0] = -1.0


MUTANTS = {
    "rate-cover": _raise_cover,
    "task-credit-budget": _raise_delta,
    "alpha-budget": _raise_alpha,
    "nonnegative": _negate_beta,
}


@pytest.mark.parametrize("record", sorted(MUTANTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_mutant_fails_its_record(family, record):
    inst, make_point, threshold = FAMILIES[family]()
    trace = simulate(inst)
    point, lemmas, flags = make_point(trace, inst)
    cert = _certify(family, threshold(inst), trace, point, lemmas, flags)
    assert cert.feasible
    assert cert.check(record).checked > 0
    mutant = _copy(point)
    MUTANTS[record](trace, mutant, cert)
    bad = _certify(family, threshold(inst), trace, mutant, lemmas, flags)
    assert not bad.check(record).ok
    assert not bad.feasible
    # only the checker's records decide; the builder's lemmas are diagnostics
    assert [r.name for r in bad.checks if not r.diagnostic] == [
        "task-credit-budget", "alpha-budget", "rate-cover", "nonnegative"]


def _two_intervals():
    # one speed-1 machine and tasks of sizes 2 and 1: both run at rate 1/2
    # until t = 2, then the size-2 task alone at rate 1 until t = 3
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [2, 1])])
    trace = simulate(inst)
    assert [(iv.start, iv.end) for iv in trace.intervals] == [(0, 2), (2, 3)]
    assert trace.intervals[1].jobs[0].rate == 1
    return trace


def test_cover_uses_the_running_minimum_of_beta():
    # alpha = 1 in the second interval is covered by its own beta of 10,
    # but not by the first interval's 0.1: every earlier machine credit
    # must cover it, so the point is rejected
    trace = _two_intervals()
    alpha = [[[]], [[(0, 1, 1.0)]]]
    checks, alpha_total, beta_total = check_dual(
        trace, DualPoint(alpha=alpha, beta=[[0.1], [10.0]], delta={}))
    cover = next(r for r in checks if r.name == "rate-cover")
    assert cover.violation_count == 1
    assert cover.violations[0].witness == (1, 1, 0, 1)
    assert all(r.ok for r in checks if r is not cover)
    assert (alpha_total, beta_total) == (1.0, 2 * 0.1 + 10.0)
    # with the larger credit in both intervals the same alpha is covered
    checks, _, _ = check_dual(
        trace, DualPoint(alpha=alpha, beta=[[10.0], [10.0]], delta={}))
    assert all(r.ok for r in checks)


@pytest.mark.parametrize("spans", [
    [(0, 2, 0.1), (1, 2, 0.1)],   # overlapping
    [(1, 2, 0.1), (0, 1, 0.1)],   # unsorted
    [(0, 3, 0.1)],                # past the alive count of 2
    [(1, 1, 0.1)],                # empty
], ids=["overlap", "unsorted", "past-alive", "empty"])
def test_malformed_spans_raise(spans):
    trace = _two_intervals()
    good = DualPoint(alpha=[[[]], [[]]], beta=[[0.0], [0.0]], delta={})
    check_dual(trace, good)
    with pytest.raises(AnalysisError, match="span"):
        check_dual(trace, dataclasses.replace(good, alpha=[[spans], [[]]]))
    with pytest.raises(AnalysisError, match="span"):
        check_dual(trace, dataclasses.replace(good, delta={1: spans}))


def test_points_that_do_not_fit_the_trace_raise():
    trace = _two_intervals()
    good = DualPoint(alpha=[[[]], [[]]], beta=[[0.0], [0.0]], delta={})
    for bad in (dataclasses.replace(good, delta={2: []}),
                dataclasses.replace(good, alpha=[[[]]]),
                dataclasses.replace(good, beta=[[0.0], [0.0, 0.0]]),
                dataclasses.replace(good, alpha=[[[]], [[], []]])):
        with pytest.raises(AnalysisError):
            check_dual(trace, bad)


# --- the per-piece reference scan ---------------------------------------------

def piece_by_piece(trace, point):
    """check_dual's records and totals with one comparison per piece of
    every alpha span and one per credit value: no span is decided at once.
    The point must fit the trace."""
    instance = trace.instance
    sigmas = [c.speed for c in instance.classes]
    counts = [c.count for c in instance.classes]
    zero = coerce(0, instance.exact)
    checks = CheckList()
    d_budget = checks.add("task-credit-budget")
    a_budget = checks.add("alpha-budget")
    cover = checks.add("rate-cover")
    nonneg = checks.add("nonnegative")
    for job in instance.jobs:
        mass = zero
        for lo, hi, v in point.delta.get(job.job_id, ()):
            nonneg.require_leq(zero, v, ("delta", job.job_id, lo))
            mass = mass + (hi - lo) * v
        d_budget.require_leq(mass, job.weight, (job.job_id,))
    alpha_total = beta_total = zero
    bhat = None
    for t, (iv, row, beta) in enumerate(zip(trace.intervals, point.alpha, point.beta)):
        for li, b in enumerate(beta):
            nonneg.require_leq(zero, b, ("beta", t, li + 1))
        bhat = beta if bhat is None else [b if b < h else h for b, h in zip(beta, bhat)]
        beta_total = beta_total + iv.length() * sum(m * b for m, b in zip(counts, beta))
        for ij, spans in zip(iv.jobs, row):
            delta = point.delta.get(ij.job_id, ())
            mass = zero
            for lo, hi, a in spans:
                nonneg.require_leq(zero, a, ("alpha", t, ij.job_id, lo))
                mass = mass + (hi - lo) * a
                # a piece starts at lo and at every delta span end inside
                starts = sorted({lo} | {x for dlo, dhi, _ in delta
                                        for x in (dlo, dhi) if lo < x < hi})
                for q in starts:
                    d = next((v for dlo, dhi, v in delta if dlo <= q < dhi), zero)
                    rhs = [(b + d) * ij.rate / s for b, s in zip(bhat, sigmas)]
                    low = min(rhs)
                    cover.require_leq(a, low, (t, ij.job_id, q, rhs.index(low) + 1))
            a_budget.require_leq(mass, ij.weight, (t, ij.job_id))
            alpha_total = alpha_total + iv.length() * mass
    return checks, alpha_total, beta_total


def _plain(outcome):
    """A checker's outcome as text: every record's to_dict and every kept
    violation, and both totals."""
    checks, alpha_total, beta_total = outcome
    return json.dumps([
        [r.to_dict() for r in checks],
        [[v.witness, v.lhs, v.rhs] for r in checks for v in r.violations],
        [r.min_slack for r in checks],
        str(alpha_total), str(beta_total),
    ], default=float)


def _same_as_piece_by_piece(trace, point):
    """check_dual's outcome equals the reference scan's, bit for bit."""
    got, want = check_dual(trace, point), piece_by_piece(trace, point)
    assert _plain(got) == _plain(want)
    return got[0]


def _spans(rng, n, value):
    """Disjoint, sorted spans within [0, n), some positions left out."""
    cuts = sorted(rng.sample(range(n + 1), min(n + 1, rng.randint(2, 5))))
    return [(lo, hi, value()) for lo, hi in zip(cuts, cuts[1:]) if rng.random() < 0.8]


def _random_point(rng, trace, nan):
    """A point of seeded random credits for `trace`.

    delta mixes zeros, tiny values (far below beta, so that pieces of
    different delta share one right side) and large ones, in no order;
    alpha lands near the right side of a random position of its span, so
    some spans fail on some pieces and hold on others. With `nan`, some
    beta and delta values are NaN; a few values are negative.
    """
    instance = trace.instance
    exact = instance.exact
    sigmas = [c.speed for c in instance.classes]

    def num(x):
        return Fraction(x).limit_denominator(10**6) if exact else x

    def credit(scale):
        r = rng.random()
        if nan and r < 0.05:
            return math.nan
        if r < 0.1:
            return num(-scale * rng.random())
        if r < 0.25:
            return num(0.0)
        if r < 0.45:
            return Fraction(1, 10**30) * num(scale) if exact else scale * 1e-30
        return num(scale * rng.random())

    delta = {}
    for job in instance.jobs:
        if rng.random() < 0.9:
            delta[job.job_id] = _spans(rng, job.task_count(), lambda: credit(job.weight))
    alpha, beta = [], []
    bhat = None
    for iv in trace.intervals:
        row_beta = [credit(1.0) for _ in sigmas]
        beta.append(row_beta)
        bhat = row_beta if bhat is None else [
            b if b < h else h for b, h in zip(row_beta, bhat)]
        row = []
        for ij in iv.jobs:
            dspans = delta.get(ij.job_id, [])

            def near():
                q = rng.randrange(ij.count)
                d = next((v for lo, hi, v in dspans if lo <= q < hi), 0)
                low = min((b + d) * ij.rate / s for b, s in zip(bhat, sigmas))
                if low != low or rng.random() < 0.1:
                    return num(rng.random())
                return low * num(rng.choice([0.5, 0.999, 1.0, 1.0, 1.001, 2.0]))
            row.append(_spans(rng, ij.count, near))
        alpha.append(row)
    return DualPoint(alpha=alpha, beta=beta, delta=delta)


def _random_trace(seed):
    inst = gen_random_ica(1 + seed % 3, 2 + seed % 4, 2 + seed % 5, seed)
    if seed % 3 == 2:
        inst = instance_from_dict(instance_to_dict(inst), exact=True)
    return simulate(with_speedup(inst, 2 + seed % 7))


@pytest.mark.parametrize("seed", range(24))
def test_random_points_match_the_piece_by_piece_scan(seed):
    # every third seed is exact; float seeds alternate with and without NaNs
    trace = _random_trace(seed)
    rng = random.Random(seed)
    nan = not trace.instance.exact and seed % 2 == 1
    for _ in range(6):
        _same_as_piece_by_piece(trace, _random_point(rng, trace, nan))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_points_match_the_piece_by_piece_scan(family):
    # the single family's rank-band delta is not monotone in the position
    inst, make_point, _ = FAMILIES[family]()
    trace = simulate(inst)
    point, _, _ = make_point(trace, inst)
    checks = _same_as_piece_by_piece(trace, point)
    assert all(r.ok for r in checks)


def test_a_span_failing_on_a_middle_piece_names_that_piece():
    # three tasks of one job on one speed-1 machine, each at rate 1/3 at
    # first; delta is least on the middle position, where alone the
    # alpha span [0, 3) exceeds its right side
    inst = make_instance([(1, 1)], [make_job(1, 1.0, [3, 2, 1])])
    trace = simulate(inst)
    rate = trace.intervals[0].jobs[0].rate
    point = DualPoint(
        alpha=[[[(0, 3, 0.2 * rate)]]] + [[[]] for _ in trace.intervals[1:]],
        beta=[[0.1]] * len(trace.intervals),
        delta={1: [(0, 1, 0.5), (2, 3, 0.5)]},
    )
    cover = next(r for r in _same_as_piece_by_piece(trace, point) if r.name == "rate-cover")
    assert (cover.checked, cover.violation_count) == (3, 1)
    assert cover.violations[0].witness == cover.min_witness == (0, 1, 1, 1)


def _two_jobs():
    # two jobs of three tasks on a fast and two slow machines
    inst = make_instance([(2, 1), (1, 2)], [make_job(1, 1.0, [3, 2, 1]),
                                            make_job(2, 1.0, [3, 2, 1])])
    return simulate(inst)


def _flat_point(trace, a, beta, delta):
    """alpha a[i] on every alive task of the i-th job, the same beta row in
    every interval."""
    alpha = [[((0, ij.count, a[ij.job_id - 1]),) for ij in iv.jobs]
             for iv in trace.intervals]
    return DualPoint(alpha=alpha, beta=[list(beta) for _ in alpha], delta=delta)


EDGES = {
    # job 2's delta pieces differ, yet 1e-30 vanishes beside beta, so both
    # share one right side, and job 2's tighter alpha sets a new minimum:
    # the witness is the first of them, not the piece of least delta
    "tied-right-sides": ([0.01, 0.1], [1.0, 1.0], {2: [(0, 1, 1e-30)]}),
    # a NaN delta behind a finite one, in a job after the record's first
    "nan-delta-behind": ([0.1, 0.01], [1.0, 1.0],
                         {1: [(0, 1, 0.5)], 2: [(0, 1, 0.5), (1, 2, math.nan)]}),
    # a NaN beta behind a finite one
    "nan-beta-behind": ([0.1, 0.1], [0.5, math.nan], {}),
    # a NaN, an infinite and a negative alpha behind a finite one, in every
    # interval: each alpha row is scanned one by one
    "nan-alpha-behind": ([0.1, math.nan], [1.0, 1.0], {}),
    "inf-alpha-behind": ([0.1, math.inf], [1.0, 1.0], {}),
    "negative-alpha-behind": ([0.1, -0.01], [1.0, 1.0], {}),
    # alpha equal in floats to its least right side, (0.5 + 0) * (2/3) / 2,
    # in the first interval: job 1's span sets the minimum slack 0, and job
    # 2's span ties it on its pieces of delta 0 and clears it on the other
    "tied-at-least-delta": ([2 / 3 / 4, 2 / 3 / 4], [0.5, 1.0], {2: [(1, 2, 0.5)]}),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_edge_points_match_the_piece_by_piece_scan(edge):
    trace = _two_jobs()
    _same_as_piece_by_piece(trace, _flat_point(trace, *EDGES[edge]))


# --- the screened checker against its first definition ------------------------

def _first_leq(record, lhs, rhs, witness):
    """CheckRecord.require_leq as first written: exact sides compare
    exactly, whatever their floats."""
    record.checked += 1
    fl, fr = to_float(lhs), to_float(rhs)
    slack = fr - fl
    if slack < record.min_slack:
        record.min_slack = slack if slack < math.inf else math.inf
        record.min_witness = witness
    ok = leq(fl, fr) if type(lhs) is float or type(rhs) is float else leq(lhs, rhs)
    if not ok:
        record._fail(witness, fl, fr)
    return ok


def _first_leq_least(record, lhs, rhs, times):
    """CheckRecord.require_leq_least as first written."""
    if not lhs <= rhs:
        return False
    if to_float(rhs) - to_float(lhs) < record.min_slack:
        return False
    record.checked += times
    return True


def first_check_dual(trace, point):
    """check_dual as it was before its float screen, with the record
    methods of that time: every rate-cover right side in the point's own
    arithmetic, every exact compare exact. The point must fit the trace."""
    instance = trace.instance
    sigmas = [c.speed for c in instance.classes]
    counts = [c.count for c in instance.classes]
    zero = coerce(0, instance.exact)
    checks = CheckList()
    d_budget = checks.add("task-credit-budget")
    a_budget = checks.add("alpha-budget")
    cover = checks.add("rate-cover")
    nonneg = checks.add("nonnegative")
    steps = {}
    nonfinite = set()
    for job in instance.jobs:
        jid = job.job_id
        end, mass = 0, zero
        steps[jid] = dsteps = []
        spans = point.delta.get(jid, ())
        for lo, hi, v in spans:
            if end < lo:
                dsteps.append((end, zero))
            dsteps.append((lo, v))
            end = hi
            mass = mass + (hi - lo) * v
        dsteps.append((end, zero))
        if not mass - mass == 0:
            nonfinite.add(jid)
        if spans and (jid in nonfinite or not _first_leq_least(
                nonneg, zero, min(v for _, _, v in spans), len(spans))):
            for lo, _, v in spans:
                _first_leq(nonneg, zero, v, ("delta", jid, lo))
        _first_leq(d_budget, mass, job.weight, (jid,))
    alpha_total = beta_total = zero
    bhat = None
    for t, (iv, row, beta) in enumerate(zip(trace.intervals, point.alpha, point.beta)):
        row_mass = sum(m * b for m, b in zip(counts, beta))
        if not row_mass - row_mass == 0 or not _first_leq_least(
                nonneg, zero, min(beta), len(beta)):
            for li, b in enumerate(beta):
                _first_leq(nonneg, zero, b, ("beta", t, li + 1))
        bhat = beta if bhat is None else [b if b < h else h for b, h in zip(beta, bhat)]
        classes = list(zip(bhat, sigmas))
        length = iv.length()
        beta_total = beta_total + length * row_mass
        for ij, spans in zip(iv.jobs, row):
            jid, rate = ij.job_id, ij.rate
            dsteps = steps[jid]
            mass = zero
            for lo, hi, a in spans:
                _first_leq(nonneg, zero, a, ("alpha", t, jid, lo))
                mass = mass + (hi - lo) * a
                first = max(i for i, (start, _) in enumerate(dsteps) if start <= lo)
                last = max(i for i, (start, _) in enumerate(dsteps) if start < hi) + 1
                least = min(d for _, d in dsteps[first:last])
                if jid not in nonfinite and _first_leq_least(
                        cover, a, min([(b + least) * rate / s for b, s in classes]),
                        last - first):
                    continue
                for start, d in dsteps[first:last]:
                    rhs = [(b + d) * rate / s for b, s in classes]
                    low = min(rhs)
                    _first_leq(cover, a, low,
                               (t, jid, start if start > lo else lo, rhs.index(low) + 1))
            _first_leq(a_budget, mass, ij.weight, (t, jid))
            alpha_total = alpha_total + length * mass
    return checks, alpha_total, beta_total


# every credit times one of these: 1; near either edge of
# numutil.SCREEN_WINDOW; below the float range and past it; deep subnormal,
# where a read rounds up by a third; and in the float range but outside the
# window on both sides
CREDIT_SCALES = (Fraction(1), Fraction(1, 2 ** 295), Fraction(2 ** 295),
                 Fraction(1, 2 ** 1100), Fraction(10) ** 400, Fraction(3, 2 ** 1076),
                 Fraction(1, 2 ** 1000), Fraction(2 ** 1000))
# alpha tight on a right side, or off it by one part in 2^60 either way
TIGHT = (Fraction(1), 1 - Fraction(1, 2 ** 60), 1 + Fraction(1, 2 ** 60))
# the float half: every credit times one of these: 1; near either edge of
# the exact window, which float mode does not read; 1e-300 and 1e300, which
# round each credit; subnormal; so large that masses overflow to inf; and
# so large that credits do, and a zeroed one is NaN
FLOAT_SCALES = (1.0, 2.0 ** -295, 2.0 ** 295, 1e-300, 1e300, 2.0 ** -1070,
                2.0 ** 1020, 2.0 ** 1023)
# alpha tight on a right side, or off it by 2^-52 either way: one ulp
# above it, two below
FLOAT_TIGHT = (1.0, 1 - 2.0 ** -52, 1 + 2.0 ** -52)


def _screen_run(k, jobs, tasks, seed, halvings, exact=True):
    """A gen_random_ica run at the weaker threshold over 2^halvings, exact
    unless `exact` is false."""
    inst = gen_random_ica(k, jobs, tasks, seed)
    if exact:
        inst = instance_from_dict(instance_to_dict(inst), exact=True)
    inst = with_speedup(inst, Fraction(weaker_threshold(inst)) / 2 ** halvings)
    return simulate(inst), inst


def _tighten(trace, point, place, piece, tight):
    """Set the alpha span at `place`, (t, i, s), to its rate-cover right
    side at one of its pieces, times `tight`."""
    sigmas = [c.speed for c in trace.instance.classes]
    t, i, s = place
    bhat = [min(row[l] for row in point.beta[:t + 1]) for l in range(len(sigmas))]
    ij = trace.intervals[t].jobs[i]
    lo, hi, _ = point.alpha[t][i][s]
    delta = point.delta.get(ij.job_id, [])
    starts = sorted({lo} | {x for dlo, dhi, _ in delta for x in (dlo, dhi) if lo < x < hi})
    q = starts[piece % len(starts)]
    d = next((v for dlo, dhi, v in delta if dlo <= q < dhi), 0)
    rhs = min((b + d) * ij.rate / sg for b, sg in zip(bhat, sigmas))
    point.alpha[t][i][s] = (lo, hi, rhs * tight)


@st.composite
def _screen_cases(draw):
    """(run, credit scale, edits) for a weaker point: each edit
    zeroes or negates one beta or one delta span value, or puts one alpha
    span, or every one, on a right side (of its least piece or another,
    which sends the span piece by piece) or just off it."""
    run = (draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 4)),
           draw(st.integers(0, 2 ** 16)), draw(st.integers(0, 4)))
    scale = draw(st.one_of(st.just(0), st.integers(0, len(CREDIT_SCALES) - 1)))
    edit = st.one_of(
        st.tuples(st.sampled_from(["beta", "delta"]), st.integers(0, 99),
                  st.integers(0, 9), st.sampled_from([0, -1])),
        st.tuples(st.sampled_from(["alpha", "every alpha"]), st.integers(0, 99),
                  st.integers(0, 9), st.sampled_from(range(len(TIGHT)))))
    return run, scale, tuple(draw(st.lists(edit, max_size=4)))


def _screen_point(trace, inst, scale, edits):
    scales, tight = (CREDIT_SCALES, TIGHT) if inst.exact else (FLOAT_SCALES, FLOAT_TIGHT)
    point, _, _ = _weaker_point(trace, inst)
    c = scales[scale]
    point = DualPoint(
        alpha=[[[(lo, hi, v * c) for lo, hi, v in spans] for spans in row]
               for row in point.alpha],
        beta=[[b * c for b in row] for row in point.beta],
        delta={j: [(lo, hi, v * c) for lo, hi, v in spans]
               for j, spans in point.delta.items()})
    places = [(t, i, s) for t, row in enumerate(point.alpha)
              for i, spans in enumerate(row) for s in range(len(spans))]
    # credits first, so that a tight alpha is tight on the credits checked
    for kind, index, sub, factor in sorted(edits, key=lambda e: "alpha" in e[0]):
        if kind == "beta":
            row = point.beta[index % len(point.beta)]
            row[sub % len(row)] *= factor
        elif kind == "delta":
            spans = point.delta[1 + index % len(point.delta)]
            lo, hi, v = spans[sub % len(spans)]
            spans[sub % len(spans)] = (lo, hi, v * factor)
        elif places:
            chosen = places if kind == "every alpha" else [places[index % len(places)]]
            for place in chosen:
                _tighten(trace, point, place, sub, tight[factor])
    return point


@settings(max_examples=80, deadline=None)
@given(_screen_cases())
# the first check of a record names its witness: the min_slack test
@example(case=((1, 1, 1, 0, 0), 0, ()))
# alpha one part in 2^60 above its right side, with the same float: the
# exact compare on float ties
@example(case=((1, 1, 1, 0, 0), 0, (("alpha", 0, 0, 2),)))
# the same, where the float right side rounds above float(alpha): the margin
@example(case=((1, 2, 1, 1, 0), 0, (("delta", 0, 0, 0), ("alpha", 1, 0, 2))))
@example(case=((1, 3, 1, 2, 0), 0, (("every alpha", 0, 0, 2),)))
# subnormal credits, read a third too high: the window
@example(case=((1, 3, 1, 2, 0), 5, ()))
# credits near either edge of the window, tight on a piece past the least
@example(case=((2, 6, 3, 1, 0), 1, (("every alpha", 0, 1, 0),)))
@example(case=((2, 6, 3, 1, 0), 2, (("every alpha", 0, 1, 1),)))
# credits below the float range and past it
@example(case=((2, 6, 3, 1, 0), 3, ()))
@example(case=((3, 8, 4, 7, 4), 4, (("beta", 0, 0, -1),)))
def test_screened_checker_matches_its_first_definition(case):
    # the float screen and the float decisions of the record methods only
    # count checks the exact path would have counted: every record, every
    # kept violation and both totals equal the exact path's
    (k, jobs, tasks, seed, halvings), scale, edits = case
    trace, inst = _screen_run(k, jobs, tasks, seed, halvings)
    point = _screen_point(trace, inst, scale, edits)
    assert _plain(check_dual(trace, point)) == _plain(first_check_dual(trace, point))


@settings(max_examples=80, deadline=None)
@given(_screen_cases())
# every alpha on a right side, or one ulp above it
@example(case=((1, 3, 1, 2, 0), 0, (("every alpha", 0, 0, 0),)))
@example(case=((2, 6, 3, 1, 0), 0, (("every alpha", 0, 1, 2),)))
# credits at the top of the float range: masses overflow to inf, and a
# credit of inf times 0 is NaN, in beta and delta, and in a delta behind
# a finite one
@example(case=((2, 6, 3, 1, 0), 6, ()))
@example(case=((1, 3, 1, 2, 0), 7, (("beta", 0, 0, 0), ("delta", 0, 0, 0))))
@example(case=((3, 8, 4, 7, 4), 7, (("delta", 0, 1, 0),)))
# subnormal credits
@example(case=((3, 8, 4, 7, 4), 5, (("every alpha", 0, 0, 1),)))
def test_float_checker_matches_its_first_definition(case):
    # the float half: the span test on the floats themselves, with margin
    # 1, counts only what the first definition's float compares count
    (k, jobs, tasks, seed, halvings), scale, edits = case
    trace, inst = _screen_run(k, jobs, tasks, seed, halvings, exact=False)
    point = _screen_point(trace, inst, scale, edits)
    assert _plain(check_dual(trace, point)) == _plain(first_check_dual(trace, point))
