"""Dual-fitting certificates for traces of the water-filling scheduler.

Three certificate families, each taking a release-free trace and producing a
DualCertificate whose checks exhaustively scan the dual LP constraints:

  weaker      works for any instance; needs speedup >= 2*max(K, log2 n).
              Task credits decay by halves along the descending-size order,
              alpha spreads each alive job's weight uniformly, and the
              machine credit is w(A^t)/(m_l * gamma) per class-l machine.
  single_job  one job of weight 1 on a capacity-validated instance; needs
              speedup >= 2K. Task credits follow rank bands derived from
              the blended machine-count thresholds; the certificate value
              is exactly half the makespan.
  general     any capacity-validated instance; needs speedup
              >= 1024*K*log2(K). Splits credits into a rate-simple half
              (driven by last-simple times) and a long-block half (driven
              by block visits with running-max weights), on top of the
              block taxonomy from classify_blocks.

Constraint conventions shared by all families: the machine index collapses
to the K speed classes; the two-time quantifier collapses to a running
minimum of the alive weight (_alive_weight_walk); per-task quantifiers run
over position spans in each job's descending-size order, scanning every
span boundary, which is exact because all credit functions are constant on
the spans. Speeds sigma_l in constraints are the original
(un-sped) speeds; task rates come from the trace and include the speedup.
Each builder opens with the shared _preamble, names each record once in a
report.CheckList, and keeps credits as sorted spans (lo, hi, value) read by
one toolkit: _span_total, _span_value and _merge_sum.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .blocks import classify_blocks, nearest_qualifying_class, simple_job_classes
from .instances import Instance, thresholds, validate_ica
from .numutil import coerce, leq
from .report import AnalysisError, CheckList, DualCertificate, require_own_trace

@dataclass(frozen=True)
class FittingConstants:
    """Named constants of the certificate constructions, in one place so
    tests can assert the exact values the analysis promises."""

    weaker_margin: int = 2      # gamma >= 2*max(K, log2 n)
    single_margin: int = 2      # gamma >= 2K; credit denominators 2K*...
    general_base: int = 1024    # gamma >= 1024*K*log2 K
    simple_alpha_div: int = 4   # alpha' = w/(4K n)
    long_delta_div: int = 96    # delta'' = max visit weight/(96 K logK mtilde)
    long_alpha_div: int = 12    # alpha'' = L w(B)/(12 K logK s(B))
    long_cover_delta: int = 32  # alpha'' <= K beta L/(6 g s) + 32 delta'' L/(g s)
    long_cover_beta_div: int = 6
    long_cover_stated: int = 8  # the looser coefficient checked as diagnostic
    root_charge: int = 6        # visit charge: w(B)/mtilde_l <= 6 w_j/n_t(j)
    alpha_floor: int = 1800     # sum alpha >= cost/(1800 K logK)


CONSTANTS = FittingConstants()


def weaker_threshold(instance: Instance):
    """Speedup 2*max(K, log2 n) from which the weaker certificate is feasible."""
    n = instance.task_count()
    return CONSTANTS.weaker_margin * max(
        len(instance.classes), math.log2(n) if n > 1 else 0
    )


def single_job_threshold(instance: Instance):
    """Speedup 2K from which the single-job certificate is feasible."""
    return CONSTANTS.single_margin * len(instance.classes)


def general_threshold(instance: Instance):
    """Speedup 1024*K*max(log2 K, 1) from which the general certificate is
    feasible."""
    k = len(instance.classes)
    return CONSTANTS.general_base * k * max(math.log2(k), 1.0)


# ---------------------------------------------------------------------------
# position-span helpers
# ---------------------------------------------------------------------------

def _span_total(spans):
    """Sum of the credits over all positions of the spans."""
    return sum((hi - lo) * v for lo, hi, v in spans)


_span_lo = itemgetter(0)


def _span_value(spans, q):
    """Value at position q in disjoint, sorted spans [(lo, hi, val)], or 0."""
    i = bisect_right(spans, q, key=_span_lo) - 1
    if i >= 0 and q < spans[i][1]:
        return spans[i][2]
    return 0


def _merge_sum(spans, upto, zero):
    """Disjoint, sorted spans within [0, upto) whose value at q is the
    nonzero sum over all input spans (possibly overlapping) containing q."""
    cuts = {0, upto}
    for lo, hi, _ in spans:
        if lo < upto:
            cuts.add(lo)
            cuts.add(min(hi, upto))
    cuts = sorted(cuts)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        val = zero
        for lo, hi, v in spans:
            if lo <= a and b <= hi:
                val = val + v
        if val != 0:
            out.append((a, b, val))
    return out


def _check_nonincreasing(spans, what):
    """Credits must not increase along positions: the general family's cover
    scan probes only the last position of each alpha regime."""
    for (_, _, v1), (_, _, v2) in zip(spans, spans[1:]):
        if not leq(v2, v1):
            raise AnalysisError(f"{what}: span values must not increase along positions")


def _preamble(trace, instance: Instance, family):
    """Refuse a trace of another instance or with release dates; return
    gamma, the class speeds sigma_l and the class machine counts m_l."""
    require_own_trace(trace, instance)
    if instance.has_releases():
        raise AnalysisError(
            f"{family} certificate requires a release-free trace; "
            "jobs arriving after time 0 are not certified"
        )
    classes = instance.classes
    return trace.instance.speedup, [c.speed for c in classes], [c.count for c in classes]


def _alive_weight_walk(trace, monotone):
    """Yield (t, interval, w(A^t), w_min) over the trace's intervals.

    The two-time quantifier (alpha at t', machine credit at any t <= t')
    collapses to w_min, the running minimum of the alive weight. For
    release-free traces it is w(A^t), which `monotone` checks.
    """
    w_prev = w_min = None
    for t, iv in enumerate(trace.intervals):
        w_alive = iv.alive_weight()
        if t:
            monotone.require_leq(w_alive, w_prev, (t,))
        w_prev = w_alive
        w_min = min(w_min, w_alive) if t else w_alive
        yield t, iv, w_alive, w_min


# ---------------------------------------------------------------------------
# family 1: weight spread + halving task credits
# ---------------------------------------------------------------------------

def halving_spans(weight, task_count, gamma):
    """Task-credit spans w/(2^(h-1)*gamma) over descending-size positions.

    The group sizes are exact powers of two; the trailing group may be
    partial (conceptually completed by zero-size padding tasks, which carry
    credits but never enter any constraint).
    """
    spans = []
    h = 1
    while (1 << (h - 1)) - 1 < task_count:
        lo = (1 << (h - 1)) - 1
        hi = min((1 << h) - 1, task_count)
        spans.append((lo, hi, weight / ((1 << (h - 1)) * gamma)))
        h += 1
    return spans


def build_weaker_duals(trace, instance: Instance) -> DualCertificate:
    """Certificate feasible at speedup >= 2*max(K, log2 n) for any instance.

    alpha spreads each alive job's weight uniformly over its alive tasks,
    task credits halve along descending-size groups, and each class-l
    machine carries w(A^t)/(m_l*gamma). The dual objective is
    (1 - K/gamma) * (total weighted completion time).
    """
    gamma, sigmas, counts = _preamble(trace, instance, "weaker")
    k = len(sigmas)
    zero = coerce(0, instance.exact)

    checks = CheckList()
    d_budget = checks.add("task-credit-budget")
    a_budget = checks.add("alpha-budget")
    cover = checks.add("rate-cover")
    monotone = checks.add("alive-weight-monotone")
    cost_id = checks.add("alpha-equals-cost", diagnostic=True)

    delta = {}
    for job in instance.jobs:
        spans = halving_spans(job.weight, job.task_count(), gamma)
        delta[job.job_id] = spans
        d_budget.require_leq(_span_total(spans), job.weight, (job.job_id,))

    alpha_total = zero
    weighted_time = zero
    for t, iv, w_alive, w_min in _alive_weight_walk(trace, monotone):
        length = iv.length()
        weighted_time = weighted_time + length * w_alive
        betas = [w_min / (counts[li] * gamma) for li in range(k)]
        for ij in iv.jobs:
            aval = ij.weight / ij.count
            a_budget.require_leq(ij.count * aval, ij.weight, (t, ij.job_id))
            alpha_total = alpha_total + length * ij.count * aval
            rate = ij.rate
            for lo, hi, dval in delta[ij.job_id]:
                if lo >= ij.count:
                    break
                for li in range(k):
                    cover.require_leq(
                        aval,
                        (betas[li] + dval) * rate / sigmas[li],
                        (t, ij.job_id, lo, li + 1),
                    )

    beta_total = k * weighted_time / gamma
    cost_id.require_equal(alpha_total, trace.objective, ("sum",))

    return DualCertificate(
        family="weaker",
        gamma=gamma,
        gamma_required=float(weaker_threshold(instance)),
        alpha_total=alpha_total,
        beta_total=beta_total,
        checks=checks,
        flags={"task_count": instance.task_count(), "class_count": k},
    )


# ---------------------------------------------------------------------------
# family 2: single job, rank bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankBands:
    """Completion-rank bands of the single-job certificate.

    Positions are 0-based in descending task size (position 0 finishes
    last). Band l covers positions [prefix[l], reach[l]) with f[l] slots
    and the tail band covers [reach[l], prefix[l+1]) with f_tail[l] slots;
    positions before prefix[1] reuse the first band's credit and positions
    at or past prefix[K] carry none.
    """

    prefix: tuple      # (0, M_1, .., M_K) cumulative machine counts
    reach: tuple       # M_l + mtilde_l per boundary l = 1..K-1
    band: tuple        # f_l = mtilde_l
    tail: tuple        # ftilde_l = m_{l+1} - mtilde_l


def rank_bands(instance: Instance) -> RankBands:
    """Derive the rank-band structure of an instance.

    Requires capacity validation and integral blended machine counts, since
    band cardinalities count whole tasks.
    """
    if not validate_ica(instance).ok:
        raise AnalysisError("rank bands require the capacity growth conditions")
    bounds = thresholds(instance)
    band = []
    for b in bounds:
        blend = b.m_blend
        if blend != int(blend):
            raise AnalysisError(
                f"boundary {b.index}: blended machine count {blend} is not "
                "integral; rank bands need whole task counts"
            )
        band.append(int(blend))
    prefix = instance.class_prefix_counts
    reach = tuple(prefix[li + 1] + band[li] for li in range(len(band)))
    tail = tuple(
        instance.classes[li + 1].count - band[li] for li in range(len(band))
    )
    return RankBands(prefix=prefix, reach=reach, band=tuple(band), tail=tail)


def build_single_job_duals(trace, instance: Instance) -> DualCertificate:
    """Certificate for one weight-1 job; feasible at speedup >= 2K.

    Task credits follow the rank bands, each class-l machine carries
    1/(2K*m_l) while work remains, and alpha either spreads uniformly over
    alive tasks or concentrates on band l's positions depending on where
    the alive count sits. The objective is exactly half the makespan.
    """
    gamma, sigmas, counts = _preamble(trace, instance, "single_job")
    if len(instance.jobs) != 1:
        raise AnalysisError(
            f"single_job certificate needs exactly one job, got {len(instance.jobs)}"
        )
    job = instance.jobs[0]
    if job.weight != 1:
        raise AnalysisError("single_job certificate needs job weight exactly 1")

    k = len(sigmas)
    exact = instance.exact
    one = coerce(1, exact)
    half = one / 2

    bands = rank_bands(instance)
    prefix, reach = bands.prefix, bands.reach
    n_total = job.task_count()

    checks = CheckList()
    band_order = checks.add("rank-band-order")
    d_budget = checks.add("task-credit-budget")
    a_budget = checks.add("alpha-budget")
    cover = checks.add("rate-cover")
    spread_cover = checks.add("spread-case-cover")
    band_cover = checks.add("band-case-cover")
    n_monotone = checks.add("alive-count-monotone")
    beta_half = checks.add("machine-credit-half", diagnostic=True)
    epoch_strict = checks.add("epoch-strict-order", diagnostic=True)
    obj_half = checks.add("objective-half-makespan", diagnostic=True)

    for li in range(k - 2):
        band_order.require_leq(bands.band[li], bands.tail[li], (li + 1, "band-vs-tail"))
        band_order.require_leq(bands.tail[li], bands.band[li + 1], (li + 1, "tail-vs-next"))
    if k >= 2:
        band_order.require_leq(bands.band[k - 2], bands.tail[k - 2], (k - 1, "band-vs-tail"))

    # task-credit spans over 0-based positions; head positions reuse band 1
    slots = [(0, prefix[1], bands.band[0])] if k >= 2 else []
    for li in range(k - 1):
        slots += [(prefix[li + 1], reach[li], bands.band[li]),
                  (reach[li], prefix[li + 2], bands.tail[li])]
    dspans = [(lo, min(hi, n_total), one / (2 * k * f))
              for lo, hi, f in slots if lo < min(hi, n_total)]
    _check_nonincreasing(dspans, "rank-band credits")
    d_budget.require_leq(_span_total(dspans), one, (job.job_id,))

    betas = [one / (2 * k * counts[li]) for li in range(k)]
    beta_per_time = sum(counts[li] * betas[li] for li in range(k))
    beta_half.require_equal(beta_per_time, half, ("per-time",))

    zero = coerce(0, exact)
    alpha_total = zero
    beta_total = zero
    head_spread = False
    prev_n = None
    break_times = [None] * k       # index l - 1: first time alive <= prefix[l]
    reach_times = [None] * (k - 1)  # index l - 1: first time alive <= reach[l - 1]

    for t, iv in enumerate(trace.intervals):
        ij = iv.jobs[0]
        n_t, rate, length = ij.count, ij.rate, iv.length()
        if prev_n is not None:
            n_monotone.require_leq(n_t, prev_n, (t,))
        prev_n = n_t
        for li in range(k):
            if break_times[li] is None and n_t <= prefix[li + 1]:
                break_times[li] = iv.start
        for li in range(k - 1):
            if reach_times[li] is None and n_t <= reach[li]:
                reach_times[li] = iv.start

        # resolve the alpha case from the alive count
        lstar = 0
        concentrated = False
        if n_t >= prefix[k] or n_t < prefix[1]:
            head_spread = head_spread or n_t < prefix[1]
        else:
            for li in range(1, k):
                if prefix[li] <= n_t < reach[li - 1]:
                    lstar = li
                    break
                if reach[li - 1] <= n_t < prefix[li + 1]:
                    lstar = li
                    concentrated = True
                    break
            if not lstar:
                raise AssertionError(f"alive count {n_t} escaped the rank bands")

        if concentrated:
            alo, ahi, aval = prefix[lstar], reach[lstar - 1], one / bands.band[lstar - 1]
        else:
            alo, ahi, aval = 0, n_t, one / n_t
        a_sum = (ahi - alo) * aval
        a_budget.require_leq(a_sum, one, (t,))
        alpha_total = alpha_total + length * a_sum
        beta_total = beta_total + length * beta_per_time

        # the dual rate constraint, exhaustively over band segments
        ends = [x for lo, hi, _ in dspans for x in (lo, hi) if alo < x < ahi]
        seams = sorted({alo, ahi, *ends})
        for qlo in seams[:-1]:
            dval = _span_value(dspans, qlo)
            for li in range(k):
                cover.require_leq(
                    aval,
                    (betas[li] + dval) * rate / sigmas[li],
                    (t, qlo, li + 1),
                )

        # the two named per-case inequalities, at band lstar's credit
        if lstar:
            dband = one / (2 * k * bands.band[lstar - 1])
            for li in range(k):
                witness = (t, li + 1, lstar)
                if concentrated:
                    band_cover.require_leq(
                        one / bands.band[lstar - 1],
                        (gamma * sigmas[lstar] / sigmas[li]) * (betas[li] + dband),
                        witness,
                    )
                else:
                    spread_cover.require_leq(
                        one / n_t, (rate / sigmas[li]) * (betas[li] + dband), witness
                    )

    makespan = trace.makespan
    break_times = [makespan if bt is None else bt for bt in break_times]
    reach_times = [makespan if rt is None else rt for rt in reach_times]
    for li in range(1, k - 1):
        # strictly interleaved breakpoints fail when whole size groups
        # finish together, hence diagnostic
        epoch_strict.require(
            break_times[li] < reach_times[li - 1] < break_times[li - 1],
            (li,),
            lhs=float(break_times[li]),
            rhs=float(break_times[li - 1]),
        )

    obj_half.require_equal(alpha_total, makespan, ("alpha",))
    obj_half.require_equal(beta_total, makespan / 2, ("beta",))

    return DualCertificate(
        family="single_job",
        gamma=gamma,
        gamma_required=float(single_job_threshold(instance)),
        alpha_total=alpha_total,
        beta_total=beta_total,
        checks=checks,
        flags={
            "head_spread_used": head_spread,
            "bands": {
                "prefix": [int(x) for x in bands.prefix],
                "reach": [int(x) for x in bands.reach],
                "band": [int(x) for x in bands.band],
                "tail": [int(x) for x in bands.tail],
                "break_times": [float(x) for x in break_times],
                "reach_times": [float(x) for x in reach_times],
            },
        },
    )


# ---------------------------------------------------------------------------
# family 3: general instances, simple + long split
# ---------------------------------------------------------------------------

def _log_scale(k: int, exact: bool):
    """max(log2 K, 1), kept rational when it is integral."""
    val = max(math.log2(k), 1.0)
    if exact and val == int(val):
        return Fraction(int(val))
    return val


def _running_max_spans(visits, coef):
    """Credit spans from long-block visits [(interval, alive, weight)].

    A position alive through the first k visits is credited the running
    maximum of those weights times coef; alive counts only shrink, so the
    spans are the prefixes [0, alive_k) with prefix-max values.
    """
    prefix_max = []
    cur = None
    for _, alive, weight in visits:
        cur = weight if cur is None or weight > cur else cur
        prefix_max.append((alive, cur))
    # alive counts shrink over time, so walking the visits backward emits
    # spans in ascending position order with non-increasing running maxima
    out = []
    lo = 0
    for idx in range(len(prefix_max) - 1, -1, -1):
        alive, val = prefix_max[idx]
        if alive > lo:
            out.append((lo, alive, val * coef))
            lo = alive
    _check_nonincreasing(out, "long-visit credits")
    return out


def build_general_duals(trace, instance: Instance) -> DualCertificate:
    """Certificate for many jobs at speedup >= 1024*K*log2(K).

    Combines a rate-simple half (credits at the last interval each job ran
    near a class speed) and a long-block half (credits from block visits),
    with machine credits w(A^t)/(K^2 log2(K) m_l). Merges in the block
    taxonomy checks from classify_blocks.
    """
    gamma, sigmas, counts = _preamble(trace, instance, "general")
    k = len(sigmas)
    exact = instance.exact
    logk = _log_scale(k, exact)
    zero = coerce(0, exact)

    classification = classify_blocks(trace, instance)
    bounds = thresholds(instance)

    # ---- pass 1: last-simple intervals and long-block visits -------------
    last_simple = {}   # (job_id, class) -> alive count at the last simple interval
    chosen = {}        # (interval, job_id) -> class the job is simple wrt, or 0
    visits = {}        # (job_id, class) -> [(interval, alive, block weight)]
    long_job_intervals = 0
    for t, (iv, cls_iv) in enumerate(zip(trace.intervals, classification.intervals)):
        for ij in iv.jobs:
            qual = simple_job_classes(ij.rate, gamma, instance.classes)
            for li in qual:
                last_simple[(ij.job_id, li)] = ij.count
            chosen[(t, ij.job_id)] = nearest_qualifying_class(
                qual, ij.rate, gamma, instance.classes
            )
            view = cls_iv.block_for_job(ij.job_id)
            if view.label == "long":
                long_job_intervals += 1
                for li in view.long_classes:
                    if li < k:  # no blended count exists past the last class
                        visits.setdefault((ij.job_id, li), []).append(
                            (t, ij.count, view.block.weight)
                        )

    # ---- static per-job credit spans --------------------------------------
    checks = classification.checks
    simple_budget = checks.add("simple-credit-budget")
    long_budget = checks.add("long-credit-budget")
    total_budget = checks.add("task-credit-budget")
    root_charge = checks.add("long-visit-charge")
    doubling = checks.add("long-visit-doubling")

    dprime = {}
    ddouble = {}
    for job in instance.jobs:
        jid = job.job_id
        n_j = job.task_count()
        raw = []
        for li in range(1, k + 1):
            n_tau = last_simple.get((jid, li))
            if n_tau:
                raw.append((0, n_tau, job.weight / (2 * k * n_tau)))
        merged = _merge_sum(raw, n_j, zero)
        _check_nonincreasing(merged, "last-simple credits")
        dprime[jid] = merged
        simple_sum = _span_total(merged)
        simple_budget.require_leq(simple_sum, job.weight / 2, (jid,))

        raw2 = []
        for li in range(1, k):
            vlist = visits.get((jid, li))
            if not vlist:
                continue
            coef = 1 / (CONSTANTS.long_delta_div * k * logk * bounds[li - 1].m_blend)
            raw2 += _running_max_spans(vlist, coef)
            # greedy doubling chain along the visit weights
            chain = 1
            anchor = vlist[0][2]
            for _, _, wb in vlist[1:]:
                if wb >= 2 * anchor:
                    chain += 1
                    anchor = wb
            doubling.require_leq(chain, 1 + math.log2(10 * k), (jid, li))
        merged2 = _merge_sum(raw2, n_j, zero)
        _check_nonincreasing(merged2, "long-visit credits")
        ddouble[jid] = merged2
        long_sum = _span_total(merged2)
        long_budget.require_leq(long_sum, job.weight / 2, (jid,))
        total_budget.require_leq(simple_sum + long_sum, job.weight, (jid,))

    for (jid, li), vlist in visits.items():
        blend = bounds[li - 1].m_blend
        for t, alive, wb in vlist:
            root_charge.require_leq(
                wb / blend,
                CONSTANTS.root_charge * instance.jobs[jid - 1].weight / alive,
                (t, jid, li),
            )

    # ---- pass 2: per-interval constraint scan ------------------------------
    a_budget = checks.add("alpha-budget")
    sa_budget = checks.add("simple-alpha-budget")
    la_budget = checks.add("long-alpha-budget")
    la_identity = checks.add("long-alpha-identity", diagnostic=True)
    cover = checks.add("rate-cover")
    cover_simple = checks.add("rate-cover-simple-half")
    cover_long = checks.add("rate-cover-long-half")
    cover_simple_half = checks.add("simple-cover-bound")
    cover_long_half = checks.add("long-cover-bound")
    cover_long_tight = checks.add("long-cover-tight", diagnostic=True)
    monotone = checks.add("alive-weight-monotone")
    beta_identity = checks.add("machine-credit-cost-identity")
    alpha_floor = checks.add("alpha-cost-floor")

    # the per-class denominators here, and the per-interval, per-job and
    # per-probe factors below, keep every product and quotient in its inline
    # order, so each side of each check is the same float
    beta_div = k * k * logk  # beta = w(A^t)/(K^2 logK m_l)
    beta_dens = [beta_div * c for c in counts]
    gamma_sigmas = [gamma * s for s in sigmas]
    simple_dens = [k * gamma * c * s for c, s in zip(counts, sigmas)]
    long_dens = [CONSTANTS.long_cover_beta_div * gamma * s for s in sigmas]
    long_alpha_den = CONSTANTS.long_alpha_div * k * logk
    alpha_total = zero
    beta_total = zero
    walk = _alive_weight_walk(trace, monotone)
    for (t, iv, w_alive, w_min), cls_iv in zip(walk, classification.intervals):
        length = iv.length()
        beta_total = beta_total + length * w_alive / (k * logk)
        beta_min = [w_min / d for d in beta_dens]
        half_beta_min = [b / 2 for b in beta_min]
        k_beta_now = [k * (w_alive / d) for d in beta_dens]
        base_w = CONSTANTS.general_base * w_alive

        for ij in iv.jobs:
            jid, n_t, rate, w_j = ij.job_id, ij.count, ij.rate, ij.weight
            lstar = chosen[(t, jid)]
            if lstar:
                n1 = last_simple[(jid, lstar)]
                a1 = w_j / (CONSTANTS.simple_alpha_div * k * n1)
            else:
                n1, a1 = 0, zero
            view = cls_iv.block_for_job(jid)
            long_block = view.block if view.label == "long" else None
            if long_block is not None:
                a2 = rate * long_block.weight / (long_alpha_den * long_block.speed)
            else:
                a2 = zero

            s_sum = n1 * a1
            l_sum = n_t * a2
            if lstar:
                sa_budget.require_leq(s_sum, w_j / 2, (t, jid))
            if long_block is not None:
                la_budget.require_leq(l_sum, w_j / 2, (t, jid))
                la_identity.require_equal(l_sum, w_j / long_alpha_den, (t, jid))
            if lstar or long_block is not None:
                a_budget.require_leq(s_sum + l_sum, w_j, (t, jid))
            alpha_total = alpha_total + length * (s_sum + l_sum)
            if not lstar and long_block is None:
                continue

            # credits never increase along positions, so each constraint
            # family binds at the end of an alpha regime: position n1-1
            # (both alphas active) and n_t-1 (only the long alpha)
            sp, dp = dprime[jid], ddouble[jid]
            rate_over = [rate / s for s in sigmas]
            probes = []
            if lstar:
                probes.append((n1 - 1, a1, a2))
                simple_beta = [base_w * rate / d for d in simple_dens]
            if not lstar or n1 < n_t:
                probes.append((n_t - 1, zero, a2))
            if long_block is not None:
                long_beta = [kb * rate / d for kb, d in zip(k_beta_now, long_dens)]
            for q, a1q, a2q in probes:
                d1 = _span_value(sp, q)
                d2 = _span_value(dp, q)
                a_sum = a1q + a2q
                simple_half = lstar and a1q
                long_half = long_block is not None and a2q
                d1_rate = d1 * rate
                d2_delta = CONSTANTS.long_cover_delta * d2 * rate
                d2_stated = CONSTANTS.long_cover_stated * d2 * rate
                for li in range(k):
                    ls = rate_over[li]
                    witness = (t, jid, q, li + 1)
                    cover.require_leq(a_sum, (beta_min[li] + d1 + d2) * ls, witness)
                    cover_simple.require_leq(a1q, (half_beta_min[li] + d1) * ls, witness)
                    cover_long.require_leq(a2q, (half_beta_min[li] + d2) * ls, witness)
                    if simple_half:
                        cover_simple_half.require_leq(
                            a1q, simple_beta[li] + d1_rate / gamma_sigmas[li], witness
                        )
                    if long_half:
                        cover_long_half.require_leq(
                            a2q, long_beta[li] + d2_delta / gamma_sigmas[li], witness
                        )
                        cover_long_tight.require_leq(
                            a2q, long_beta[li] + d2_stated / gamma_sigmas[li], witness
                        )

    cost = trace.objective
    beta_identity.require_equal(beta_total, cost / (k * logk), ("total",))
    alpha_floor.require_leq(
        cost / (CONSTANTS.alpha_floor * k * logk), alpha_total, ("total",)
    )

    flags = dict(classification.flags)
    flags.update(
        {
            "simple_job_intervals": sum(1 for v in chosen.values() if v),
            "long_job_intervals": long_job_intervals,
            "class_count": k,
        }
    )
    return DualCertificate(
        family="general",
        gamma=gamma,
        gamma_required=float(general_threshold(instance)),
        alpha_total=alpha_total,
        beta_total=beta_total,
        checks=checks,
        flags=flags,
    )
