"""Dual-fitting certificates for traces of the water-filling scheduler.

Three certificate families, each taking a release-free trace and producing a
DualCertificate:

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

Each family only builds credits: a private constructor (_weaker_point,
_single_job_point, _general_point) turns the trace into a
dualcheck.DualPoint, and dualcheck.check_dual alone decides it, against
the dual program its docstring writes out, and gives the dual objective.
The machine index collapses to the K speed classes, and credits are sorted
position spans (lo, hi, value) over each job's descending-size order.
Every other record a builder scans is a lemma of its family's proof,
reported with diagnostic=True: it never decides feasibility. weaker
reports alive-weight-monotone and alpha-equals-cost; single_job
rank-band-order, spread-case-cover, band-case-cover, alive-count-monotone,
machine-credit-half, epoch-strict-order and objective-half-makespan;
general classify_blocks' six records (long-block-shape, cheap-block-budget,
short-block-two-classes, short-block-left-charge, alive-weight-split,
simple-block-job-weight), long-visit-charge, long-visit-doubling,
alive-weight-monotone, machine-credit-cost-identity and alpha-cost-floor.
Each builder opens with the shared _preamble and names each record once in
a report.CheckList.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .blocks import classify_blocks
from .dualcheck import DualPoint, check_dual
from .instances import Instance, InstanceError, thresholds
from .numutil import coerce, to_float
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


def _alive_weights(trace, monotone):
    """Yield (t, interval, w(A^t)) over the trace's intervals, recording in
    `monotone` that the alive weight never rises. Without releases it
    cannot, so check_dual's running minimum of a machine credit
    proportional to w(A^t) is that credit itself."""
    w_prev = None
    for t, iv in enumerate(trace.intervals):
        w_alive = iv.alive_weight()
        if t:
            monotone.require_leq(w_alive, w_prev, (t,))
        w_prev = w_alive
        yield t, iv, w_alive


def _certify(family, threshold, trace, point, lemmas, flags):
    """The certificate of `point`: check_dual's records decide it, and the
    family's lemma records follow them."""
    checks, alpha_total, beta_total = check_dual(trace, point)
    checks += lemmas
    return DualCertificate(
        family=family,
        gamma=trace.instance.speedup,
        gamma_required=to_float(threshold),
        alpha_total=alpha_total,
        beta_total=beta_total,
        checks=checks,
        flags=flags,
    )


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


def _weaker_point(trace, instance: Instance):
    """The weaker family's point, lemma records and flags."""
    gamma, sigmas, counts = _preamble(trace, instance, "weaker")
    lemmas = CheckList()
    monotone = lemmas.add("alive-weight-monotone", diagnostic=True)
    delta = {
        job.job_id: halving_spans(job.weight, job.task_count(), gamma)
        for job in instance.jobs
    }
    dens = [c * gamma for c in counts]
    alpha, beta = [], []
    for _, iv, w_alive in _alive_weights(trace, monotone):
        beta.append([w_alive / d for d in dens])
        alpha.append([((0, ij.count, ij.share),) for ij in iv.jobs])
    flags = {"task_count": instance.task_count(), "class_count": len(sigmas)}
    return DualPoint(alpha=alpha, beta=beta, delta=delta), lemmas, flags


def build_weaker_duals(trace, instance: Instance) -> DualCertificate:
    """Certificate feasible at speedup >= 2*max(K, log2 n) for any instance.

    alpha spreads each alive job's weight uniformly over its alive tasks,
    task credits halve along descending-size groups, and each class-l
    machine carries w(A^t)/(m_l*gamma). The dual objective is
    (1 - K/gamma) * (total weighted completion time).
    """
    cert = _certify("weaker", weaker_threshold(instance), trace,
                    *_weaker_point(trace, instance))
    cert.checks.add("alpha-equals-cost", diagnostic=True).require_equal(
        cert.alpha_total, trace.objective, ("sum",))
    return cert


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
    try:
        bounds = thresholds(instance)
    except InstanceError:
        raise AnalysisError("rank bands require the capacity growth conditions") from None
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


def _single_job_point(trace, instance: Instance):
    """The single-job family's point, lemma records and flags.

    The edges (M_1, M_1 + f_1, M_2, .., M_K) increase strictly by the facts
    thresholds asserts. Gap g runs from edge g-1 to edge g and its width is
    its slot count: odd gap 2l-1 is band l, even gap 2l band l's tail. An
    alive count n_t lies in gap bisect_right(edges, n_t); an odd gap spreads
    alpha at band l, an even gap concentrates it on band l, and a count in
    no gap (below M_1, or at or past M_K) spreads it.
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
    edges = tuple(sorted(bands.prefix[1:] + bands.reach))
    widths = [hi - lo for lo, hi in zip(edges, edges[1:])]  # f_1, ftilde_1, f_2, ..
    n_total = job.task_count()

    lemmas = CheckList()
    band_order = lemmas.add("rank-band-order", diagnostic=True)
    spread_cover = lemmas.add("spread-case-cover", diagnostic=True)
    band_cover = lemmas.add("band-case-cover", diagnostic=True)
    n_monotone = lemmas.add("alive-count-monotone", diagnostic=True)
    beta_half = lemmas.add("machine-credit-half", diagnostic=True)
    epoch_strict = lemmas.add("epoch-strict-order", diagnostic=True)

    for g, (a, b) in enumerate(zip(widths, widths[1:])):
        band_order.require_leq(a, b, (g // 2 + 1, "tail-vs-next" if g % 2 else "band-vs-tail"))

    # one task-credit span per gap; the head positions [0, M_1) reuse band 1
    slots = zip((0,) + edges, edges, widths[:1] + widths)
    dspans = [(lo, min(hi, n_total), one / (2 * k * f))
              for lo, hi, f in slots if lo < min(hi, n_total)]

    betas = [one / (2 * k * counts[li]) for li in range(k)]
    beta_half.require_equal(sum(counts[li] * betas[li] for li in range(k)), half, ("per-time",))

    alpha = []
    head_spread = False
    prev_n = None
    # first time the alive count is <= each edge; the edges reached so far
    # are always the suffix edges[reached:]
    times = [trace.makespan] * len(edges)
    reached = len(edges)

    for t, iv in enumerate(trace.intervals):
        ij = iv.jobs[0]
        n_t, rate = ij.count, ij.rate
        if prev_n is not None:
            n_monotone.require_leq(n_t, prev_n, (t,))
        prev_n = n_t
        while reached and n_t <= edges[reached - 1]:
            reached -= 1
            times[reached] = iv.start

        g = bisect_right(edges, n_t)
        head_spread = head_spread or not g
        lstar = (g + 1) // 2 if 0 < g < len(edges) else 0
        concentrated = bool(lstar) and g % 2 == 0
        if concentrated:
            alpha.append([((edges[g - 2], edges[g - 1], one / widths[g - 2]),)])
        else:
            alpha.append([((0, n_t, one / n_t),)])

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

    break_times, reach_times = times[0::2], times[1::2]
    for li in range(1, k - 1):
        # strictly interleaved breakpoints fail when whole size groups
        # finish together, hence diagnostic
        epoch_strict.require(
            break_times[li] < reach_times[li - 1] < break_times[li - 1],
            (li,),
            lhs=to_float(break_times[li]),
            rhs=to_float(break_times[li - 1]),
        )

    point = DualPoint(alpha=alpha, beta=[betas] * len(alpha), delta={job.job_id: dspans})
    flags = {
        "head_spread_used": head_spread,
        "bands": {
            "prefix": [int(x) for x in bands.prefix],
            "reach": [int(x) for x in bands.reach],
            "band": [int(x) for x in bands.band],
            "tail": [int(x) for x in bands.tail],
            "break_times": [to_float(x) for x in break_times],
            "reach_times": [to_float(x) for x in reach_times],
        },
    }
    return point, lemmas, flags


def build_single_job_duals(trace, instance: Instance) -> DualCertificate:
    """Certificate for one weight-1 job; feasible at speedup >= 2K.

    Task credits follow the rank bands, each class-l machine carries
    1/(2K*m_l) while work remains, and alpha either spreads uniformly over
    alive tasks or concentrates on band l's positions depending on where
    the alive count sits. The objective is exactly half the makespan.
    """
    cert = _certify("single_job", single_job_threshold(instance), trace,
                    *_single_job_point(trace, instance))
    makespan = trace.makespan
    obj_half = cert.checks.add("objective-half-makespan", diagnostic=True)
    obj_half.require_equal(cert.alpha_total, makespan, ("alpha",))
    obj_half.require_equal(cert.beta_total, makespan / 2, ("beta",))
    return cert


# ---------------------------------------------------------------------------
# family 3: general instances, simple + long split
# ---------------------------------------------------------------------------

def _log_scale(k: int, exact: bool):
    """max(log2 K, 1): the float, or its exact value in exact mode."""
    return coerce(max(math.log2(k), 1.0), exact)


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
    return out


def _general_point(trace, instance: Instance):
    """The general family's point, lemma records and flags."""
    _, sigmas, counts = _preamble(trace, instance, "general")
    k = len(sigmas)
    exact = instance.exact
    logk = _log_scale(k, exact)
    zero = coerce(0, exact)

    classification = classify_blocks(trace, instance)
    bounds = classification.thresholds

    # ---- pass 1: last-simple intervals and long-block visits -------------
    last_simple = {}   # (job_id, class) -> alive count at the last simple interval
    visits = {}        # (job_id, class) -> [(interval, alive, block weight)]
    simple_job_intervals = long_job_intervals = 0
    for t, (iv, cls_iv) in enumerate(zip(trace.intervals, classification.intervals)):
        for ij in iv.jobs:
            jv = cls_iv.jobs[ij.job_id]
            for li in jv.simple:
                last_simple[(ij.job_id, li)] = ij.count
            simple_job_intervals += bool(jv.nearest)
            view = jv.view
            if view.label == "long":
                long_job_intervals += 1
                for li in view.long_classes:
                    if li < k:  # no blended count exists past the last class
                        visits.setdefault((ij.job_id, li), []).append(
                            (t, ij.count, view.block.weight)
                        )

    # ---- static per-job credit spans --------------------------------------
    lemmas = classification.checks
    root_charge = lemmas.add("long-visit-charge", diagnostic=True)
    doubling = lemmas.add("long-visit-doubling", diagnostic=True)

    delta = {}         # job_id -> the point's task credits
    for job in instance.jobs:
        jid = job.job_id
        n_j = job.task_count()
        raw = []
        for li in range(1, k + 1):
            n_tau = last_simple.get((jid, li))
            if n_tau:
                raw.append((0, n_tau, job.weight / (2 * k * n_tau)))
        dprime = _merge_sum(raw, n_j, zero)  # the rate-simple half

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
        ddouble = _merge_sum(raw2, n_j, zero)  # the long-block half
        delta[jid] = _merge_sum(dprime + ddouble, n_j, zero)

    for (jid, li), vlist in visits.items():
        blend = bounds[li - 1].m_blend
        for t, alive, wb in vlist:
            root_charge.require_leq(
                wb / blend,
                CONSTANTS.root_charge * instance.jobs[jid - 1].weight / alive,
                (t, jid, li),
            )

    # ---- pass 2: per-interval credits -------------------------------------
    monotone = lemmas.add("alive-weight-monotone", diagnostic=True)
    beta_div = k * k * logk  # beta = w(A^t)/(K^2 logK m_l)
    beta_dens = [beta_div * c for c in counts]
    long_alpha_den = CONSTANTS.long_alpha_div * k * logk
    alpha, beta = [], []
    walk = _alive_weights(trace, monotone)
    for (_, iv, w_alive), cls_iv in zip(walk, classification.intervals):
        beta.append([w_alive / d for d in beta_dens])
        row = []
        alpha.append(row)
        for ij in iv.jobs:
            jid, n_t, w_j = ij.job_id, ij.count, ij.weight
            jv = cls_iv.jobs[jid]
            long_block = jv.view.block if jv.view.label == "long" else None
            a2 = zero
            if long_block is not None:
                a2 = ij.rate * long_block.weight / (long_alpha_den * long_block.speed)
            # alpha' = w/(4K n1) on the n1 positions alive at the last
            # simple interval, alpha'' = a2 on every alive position
            if jv.nearest:
                n1 = last_simple[(jid, jv.nearest)]
                a1 = w_j / (CONSTANTS.simple_alpha_div * k * n1)
                spans = ((0, n1, a1 + a2),)
                if long_block is not None and n1 < n_t:
                    spans += ((n1, n_t, a2),)
            else:
                spans = ((0, n_t, a2),) if long_block is not None else ()
            row.append(spans)

    flags = dict(classification.flags)
    flags.update(
        {
            "simple_job_intervals": simple_job_intervals,
            "long_job_intervals": long_job_intervals,
            "class_count": k,
        }
    )
    return DualPoint(alpha=alpha, beta=beta, delta=delta), lemmas, flags


def build_general_duals(trace, instance: Instance) -> DualCertificate:
    """Certificate for many jobs at speedup >= 1024*K*log2(K).

    Combines a rate-simple half (credits at the last interval each job ran
    near a class speed) and a long-block half (credits from block visits),
    with machine credits w(A^t)/(K^2 log2(K) m_l). Merges in the block
    taxonomy checks from classify_blocks.
    """
    cert = _certify("general", general_threshold(instance), trace,
                    *_general_point(trace, instance))
    k = len(instance.classes)
    logk = _log_scale(k, instance.exact)
    cost = trace.objective
    cert.checks.add("machine-credit-cost-identity", diagnostic=True).require_equal(
        cert.beta_total, cost / (k * logk), ("total",))
    cert.checks.add("alpha-cost-floor", diagnostic=True).require_leq(
        cost / (CONSTANTS.alpha_floor * k * logk), cert.alpha_total, ("total",))
    return cert
