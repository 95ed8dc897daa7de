"""The dual checker: mutants of each family's point, the running minimum of
the machine credit, and malformed points."""

import dataclasses

import pytest

from bagsched import (
    AnalysisError,
    gen_lower_bound,
    gen_random_ica,
    make_instance,
    make_job,
    simulate,
    with_speedup,
)
from bagsched.dualcheck import DualPoint, check_dual
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
