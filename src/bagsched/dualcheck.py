"""The one checker of dual-fitting certificates.

Each family in `duals` builds a DualPoint for a trace; check_dual alone
decides whether that point is feasible for the dual program written out in
its docstring, and computes the point's objective. It reads only the trace
and the point, never a family's credit rules, so a bug in how credits are
built cannot also hide in how they are checked.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf, nan

from .numutil import SCREEN_MARGIN, coerce, screen_float, to_float
from .report import AnalysisError, CheckList


@dataclass(frozen=True)
class DualPoint:
    """A candidate dual solution for a trace.

    Spans, a sequence of (lo, hi, value), hold value at positions lo..hi-1
    of a job's tasks, 0-based in descending size order (position 0 finishes
    last), and 0 elsewhere; they are non-empty, disjoint and sorted.

      alpha[t][i]  spans of the i-th alive job of interval t, in the order
                   of trace.intervals[t].jobs, within its alive count
      beta[t][l]   credit of each machine of class l + 1 over interval t
      delta[j]     spans of job j's task credits, within its task count; a
                   job without an entry has none
    """

    alpha: list
    beta: list
    delta: dict


def _misplaced(what, lo, hi, bound):
    """The error for a span that is empty, overlaps the one before it, comes
    before it or leaves [0, bound)."""
    return AnalysisError(
        f"{what}: span [{lo}, {hi}) is not non-empty, disjoint, sorted "
        f"and within [0, {bound})"
    )


def _reads(values, read):
    """read(v) for each of `values` if each is finite, else NaN for each:
    the walk's < and min can pass over a NaN among finite floats, while a
    low read from NaNs alone is NaN and settles nothing."""
    out = [read(v) for v in values]
    return out if all(f - f == 0 for f in out) else [nan] * len(out)


def check_dual(trace, point: DualPoint):
    """Decide the dual program of `trace` at `point`; return the verdict
    records, alpha_total and beta_total.

    The program. Interval t has length |I_t|. Job j has weight w_j and n_j
    tasks; n_t(j) of them are alive in interval t, each at rate r_{t,j}
    (speedup included). Class l has m_l machines of original speed sigma_l.
    Positions q count a job's tasks in descending size order, so the alive
    ones are q < n_t(j). The variables, all nonnegative:

        alpha_{t,j}(q)   q < n_t(j)   per time unit of interval t
        beta_{t,l}                    per class-l machine and time unit
        delta_j(q)       q < n_j      per task

    maximize   alpha_total - beta_total, where
               alpha_total = sum_t |I_t| sum_{j alive} sum_q alpha_{t,j}(q)
               beta_total  = sum_t |I_t| sum_l m_l beta_{t,l}
    subject to
      task-credit-budget  sum_q delta_j(q) <= w_j            every job j
      alpha-budget        sum_q alpha_{t,j}(q) <= w_j        every t, alive j
      rate-cover          alpha_{t,j}(q)
                            <= (bhat_{t,l} + delta_j(q)) * r_{t,j} / sigma_l
                          every t, alive j, q < n_t(j) and class l, where
                          bhat_{t,l} = min_{t' <= t} beta_{t',l}
      nonnegative         alpha, beta, delta >= 0

    rate-cover charges alpha at time t against the machine credit of every
    earlier or equal time t'; that two-time quantifier is the running
    minimum bhat. Every record scans at numutil.leq's tolerance.

    The scan. Credits are constant on each piece of the common refinement
    of a job's alpha spans with its delta spans, so one comparison per piece
    decides all its positions. Each class's right side is one expression
    and leq is monotone in its right side, so one comparison against the
    minimum over the classes decides all K; its witness (t, j, q, l) names
    the piece's first position q and a binding class l. Outside alpha's
    spans alpha is 0, and 0 <= the right side follows from nonnegative
    credits, since rates and speeds are positive; those pieces are skipped.

    Runs settled at once. A run of comparisons lhs <= r is only counted,
    by CheckRecord.require_below, when one float test settles it: a float
    low at most float(r) for every r of the run, float(lhs) < low, and
    fl(low - float(lhs)) no new minimum of the record. Then each compare
    holds, and no slack float(r) - float(lhs) is a new minimum either, as
    conversion to float and float rounding are monotone; so the record is
    the one-by-one scan's, bit for bit. A run the test declines is scanned
    one by one, in the point's own arithmetic. The runs and their lows:

      each alpha span, in both modes: min_l (bhat_l + delta) * r / sigma_l
        times a margin, in floats, at the least read delta of the span.
        The test reads sigma and each job's deltas once per point, bhat
        once per interval, r once per interval and job, and alpha once per
        span. Float mode reads each value's float, with margin 1, so the
        low is the scan's own float right side at the span's least delta;
        that does not fall as delta grows, since r >= 0 and sigma > 0.
        Exact mode reads numutil.screen_float, with margin SCREEN_MARGIN,
        so the low is at most float of the exact right side at the least
        delta (numutil has the bound), which does not fall as delta grows
        either. A list of reads, a point's sigmas, a job's deltas or an
        interval's bhat, is all NaN unless each read is finite, and
        screen_float reads NaN outside its window; a NaN low settles
        nothing.
      each job's delta spans, each beta row and each interval's alpha
        spans (its alpha row), against 0: the float of their least value,
        unless one of them is NaN or infinite. An alpha row is scanned one
        by one also after any earlier alpha is NaN or infinite, as the
        running alpha_total then is.

    A point whose spans or shape do not fit the trace raises AnalysisError.
    """
    instance = trace.instance
    sigmas = [c.speed for c in instance.classes]
    counts = [c.count for c in instance.classes]
    exact = instance.exact
    zero = coerce(0, exact)
    read, margin = (screen_float, SCREEN_MARGIN) if exact else (float, 1.0)
    fsigmas = _reads(sigmas, read)

    checks = CheckList()
    d_budget = checks.add("task-credit-budget")
    a_budget = checks.add("alpha-budget")
    cover = checks.add("rate-cover")
    nonneg = checks.add("nonnegative")

    jobs = {job.job_id: job for job in instance.jobs}
    stray = sorted(set(point.delta) - set(jobs))
    if stray:
        raise AnalysisError(f"delta names job {stray[0]}, which the instance lacks")
    # job -> the starts of its delta steps from position 0 on, then inf;
    # their deltas, gaps at 0; and the deltas' reads
    steps = {}
    nonfinite = set()  # jobs with a NaN or infinite delta
    for jid, job in jobs.items():
        end, mass, bound = 0, zero, job.task_count()
        starts, deltas = [], []
        spans = point.delta.get(jid, ())
        for lo, hi, v in spans:
            if not end <= lo < hi <= bound:
                raise _misplaced(f"delta of job {jid}", lo, hi, bound)
            if end < lo:
                starts.append(end)
                deltas.append(zero)
            starts.append(lo)
            deltas.append(v)
            end = hi
            mass = mass + (hi - lo) * v
        starts += end, inf
        deltas.append(zero)
        steps[jid] = starts, deltas, _reads(deltas, read)
        if not mass - mass == 0:  # a NaN or infinite credit, or an overflow
            nonfinite.add(jid)
        if spans and (jid in nonfinite or not nonneg.require_below(
                0.0, to_float(min(v for _, _, v in spans)), len(spans))):
            for lo, _, v in spans:
                nonneg.require_leq(zero, v, ("delta", jid, lo))
        d_budget.require_leq(mass, job.weight, (jid,))

    if not len(point.alpha) == len(point.beta) == len(trace.intervals):
        raise AnalysisError(
            f"the point has {len(point.alpha)} alpha and {len(point.beta)} beta "
            f"rows for {len(trace.intervals)} intervals"
        )
    alpha_total = beta_total = zero
    bhat = None
    for t, (iv, row, beta) in enumerate(zip(trace.intervals, point.alpha, point.beta)):
        if len(beta) != len(counts) or len(row) != len(iv.jobs):
            raise AnalysisError(
                f"interval {t}: the point has {len(beta)} beta and {len(row)} "
                f"alpha entries for {len(counts)} classes and {len(iv.jobs)} alive jobs"
            )
        row_mass = sum(m * b for m, b in zip(counts, beta))
        if not row_mass - row_mass == 0 or not nonneg.require_below(
                0.0, to_float(min(beta)), len(beta)):
            for li, b in enumerate(beta):
                nonneg.require_leq(zero, b, ("beta", t, li + 1))
        bhat = beta if bhat is None else [b if b < h else h for b, h in zip(beta, bhat)]
        classes = list(zip(bhat, sigmas))
        fclasses = list(zip(_reads(bhat, read), fsigmas))
        length = iv.length()
        beta_total = beta_total + length * row_mass

        alphas = []  # the row's alphas, in span order
        for ij, spans in zip(iv.jobs, row):
            jid, rate, bound = ij.job_id, ij.rate, ij.count
            starts, deltas, fdeltas = steps[jid]
            fr = read(rate)
            end, mass = 0, zero
            for lo, hi, a in spans:
                if not end <= lo < hi <= bound:
                    raise _misplaced(f"alpha of job {jid} in interval {t}", lo, hi, bound)
                end = hi
                alphas.append(a)
                mass = mass + (hi - lo) * a
                # the pieces of [lo, hi) are the steps first..last-1, and
                # least is the least read of their deltas
                first = bisect_right(starts, lo) - 1 if lo else 0
                least = fdeltas[first]
                last = first + 1
                while starts[last] < hi:
                    if fdeltas[last] < least:
                        least = fdeltas[last]
                    last += 1
                if cover.require_below(
                        read(a), min([(fb + least) * fr / fs for fb, fs in fclasses]) * margin,
                        last - first):
                    continue
                for start, d in zip(starts[first:last], deltas[first:last]):
                    rhs = [(b + d) * rate / s for b, s in classes]
                    low = min(rhs)
                    cover.require_leq(
                        a, low, (t, jid, start if start > lo else lo, rhs.index(low) + 1))
            a_budget.require_leq(mass, ij.weight, (t, jid))
            alpha_total = alpha_total + length * mass
        # alpha_total is finite unless an alpha so far is NaN or infinite
        if alphas and (not alpha_total - alpha_total == 0 or not nonneg.require_below(
                0.0, to_float(min(alphas)), len(alphas))):
            for ij, spans in zip(iv.jobs, row):
                for lo, _, a in spans:
                    nonneg.require_leq(zero, a, ("alpha", t, ij.job_id, lo))
    return checks, alpha_total, beta_total
