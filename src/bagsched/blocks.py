"""Per-interval taxonomy of water-filling blocks.

Each interval of a trace partitions the alive tasks into blocks of machines
with a common water level. Blocks are labeled, in this priority order:

  simple  the average task rate s(B)/|B| lands in [gamma*sigma_l/2,
          2*gamma*sigma_l] for some class l (at most one, since class speeds
          are far apart)
  cheap   non-simple with w(B) < w(A^t)/(10K)
  long    non-simple, non-cheap, and for some class l the block covers at
          least half of the class-l machines but not all of class l+1
          (vacuous for the last class); a block can be long with respect to
          several classes and its label records the smallest
  short   everything else

The classification also scans structural facts the general family's proof
relies on: shape bounds for long blocks, the cheap-block budget, that short
blocks straddle exactly two consecutive classes and are dominated by the
weight frozen to their left, and that simple plus long blocks carry at least
w(A^t)/90. They are lemmas, recorded as diagnostics: only
dualcheck.check_dual decides a certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .instances import Instance, thresholds, validate_ica
from .numutil import TIE_REL, geq, leq, to_float
from .rates import Block
from .report import AnalysisError, CheckList, require_own_trace

CHEAP_FRACTION = 10      # cheap: w(B) < w(A)/(CHEAP_FRACTION * K)
SHORT_CHARGE = 8         # short block weight vs weight frozen to its left
ALIVE_SPLIT = 90         # w(A) <= ALIVE_SPLIT * (simple + long weight)
SIMPLE_JOB_WINDOW = 64   # job simple wrt l: rate in gamma*sigma_l*[1/64, 64]
SIMPLE_BLOCK_WINDOW = 2  # block simple wrt l: avg in gamma*sigma_l*[1/2, 2]
SIMPLE_BLOCK_RATIO = 5   # diagnostic: w(B) vs weight of its simple jobs


@dataclass(frozen=True)
class BlockView:
    """A profile's own Block with what classification decides about it."""

    block: Block                # index, weight, size, speed and members
    label: str                  # simple | cheap | long | short
    label_class: int            # class for simple, smallest for long, else 0
    long_classes: tuple         # all classes the block is long with respect to
    class_machine_counts: tuple  # machines of each class inside the span


@dataclass(frozen=True)
class IntervalBlocks:
    blocks: tuple
    job_block: dict             # job_id -> index into blocks

    def block_for_job(self, job_id: int) -> BlockView:
        return self.blocks[self.job_block[job_id]]


@dataclass
class BlockClassification:
    intervals: list
    checks: list
    flags: dict


def simple_job_classes(rate, gamma, classes):
    """Classes l with rate in [gamma*sigma_l/64, 64*gamma*sigma_l].

    Windows of adjacent classes overlap (speeds drop by >= 64), so a rate
    can qualify for two consecutive classes.
    """
    out = []
    for li, c in enumerate(classes, start=1):
        center = gamma * c.speed
        if geq(rate, center / SIMPLE_JOB_WINDOW) and leq(
            rate, center * SIMPLE_JOB_WINDOW
        ):
            out.append(li)
    return tuple(out)


def _log(x):
    """math.log(x) for x > 0; an exact x that a float cannot hold, past the
    float range or rounding to 0, is logged from its numerator and
    denominator."""
    try:
        return math.log(float(x))
    except (OverflowError, ValueError):
        return math.log(x.numerator) - math.log(x.denominator)


def nearest_qualifying_class(qualifying, rate, gamma, classes):
    """The class of `qualifying`, which is simple_job_classes(rate, gamma,
    classes), whose speed is nearest to rate in log scale.

    Ties (rate exactly between two class speeds) go to the faster class.
    Returns 0 when no class qualifies.
    """
    if not qualifying:
        return 0
    best = 0
    best_gap = math.inf
    log_rate = _log(rate)
    for li in qualifying:
        gap = abs(log_rate - _log(gamma * classes[li - 1].speed))
        if gap < best_gap - TIE_REL or (abs(gap - best_gap) <= TIE_REL and li < best):
            best, best_gap = li, gap
    return best


def _classify_block(block, instance, gamma, alive_weight, k):
    counts = instance.class_prefix_counts
    m = counts[-1]
    lo_c = min(block.lo, m)
    hi_c = min(block.hi, m)
    per_class = tuple(
        max(0, min(hi_c, counts[li]) - max(lo_c, counts[li - 1]))
        for li in range(1, k + 1)
    )
    avg = block.speed / block.task_count()

    simple_class = 0
    for li in range(1, k + 1):
        center = gamma * instance.classes[li - 1].speed
        if geq(avg, center / SIMPLE_BLOCK_WINDOW) and leq(
            avg, center * SIMPLE_BLOCK_WINDOW
        ):
            simple_class = li
            break

    long_classes = []
    for li in range(1, k + 1):
        covers_half = 2 * per_class[li - 1] >= instance.classes[li - 1].count
        full_next = li < k and per_class[li] >= instance.classes[li].count
        if covers_half and not full_next:
            long_classes.append(li)

    if simple_class:
        label, label_class = "simple", simple_class
        long_classes = []
    elif not geq(block.weight * CHEAP_FRACTION * k, alive_weight):
        label, label_class = "cheap", 0
        long_classes = []
    elif long_classes:
        label, label_class = "long", long_classes[0]
    else:
        label, label_class = "short", 0

    return BlockView(
        block=block,
        label=label,
        label_class=label_class,
        long_classes=tuple(long_classes),
        class_machine_counts=per_class,
    )


def classify_blocks(trace, instance: Instance) -> BlockClassification:
    """Label every block of every trace interval and scan the block facts.

    Requires the capacity growth conditions (the taxonomy is meaningless
    without them). Diagnostic records cover long-block shape, the cheap
    budget, short-block structure and charging, the 1/90 alive-weight split
    and the simple-block job-weight comparison.
    """
    require_own_trace(trace, instance)
    if not validate_ica(instance).ok:
        raise AnalysisError("block classification requires the capacity growth conditions")
    k = len(instance.classes)
    gamma = trace.instance.speedup
    bounds = thresholds(instance)  # boundaries 1..K-1

    checks = CheckList()
    long_shape = checks.add("long-block-shape", diagnostic=True)
    cheap_budget = checks.add("cheap-block-budget", diagnostic=True)
    short_two = checks.add("short-block-two-classes", diagnostic=True)
    short_charge = checks.add("short-block-left-charge", diagnostic=True)
    alive_split = checks.add("alive-weight-split", diagnostic=True)
    simple_jobs = checks.add("simple-block-job-weight", diagnostic=True)

    intervals = []
    long_wrt_last = 0
    worst_simple_ratio = 0.0

    for t_idx, iv in enumerate(trace.intervals):
        alive_weight = iv.alive_weight()
        views = tuple(
            _classify_block(b, instance, gamma, alive_weight, k)
            for b in iv.profile.blocks
        )
        job_block = {
            mb.job_id: b.index for b in iv.profile.blocks for mb in b.members
        }
        intervals.append(IntervalBlocks(blocks=views, job_block=job_block))

        # long-block shape facts: |B| <= m_blend_l and s(B) close to the
        # class capacity; for the last class only the speed lower bound
        # applies (there is no faster boundary to cap the block)
        for v in views:
            b = v.block
            for li in v.long_classes:
                cls = instance.classes[li - 1]
                cap = gamma * cls.capacity()
                long_shape.require_leq(cap / 2, b.speed, (t_idx, b.index, li, "speed-lo"))
                if li < k:
                    long_shape.require_leq(
                        b.speed, 4 * cap, (t_idx, b.index, li, "speed-hi")
                    )
                    long_shape.require_leq(
                        b.task_count(), bounds[li - 1].m_blend, (t_idx, b.index, li, "size")
                    )
                else:
                    long_wrt_last += 1

        cheap_views = [v for v in views if v.label == "cheap"]
        cheap_budget.require_leq(len(cheap_views), k, (t_idx, "count"))
        cheap_budget.require_leq(
            sum(v.block.weight for v in cheap_views),
            alive_weight / CHEAP_FRACTION,
            (t_idx, "weight"),
        )

        acc = None  # weight since the previous short block; None until a block
        for v in views:
            if v.label == "short":
                present = [li for li in range(1, k + 1) if v.class_machine_counts[li - 1]]
                short_two.require(
                    len(present) == 2 and present[1] == present[0] + 1,
                    (t_idx, v.block.index, tuple(present)),
                )
                left = acc if acc is not None else 0
                short_charge.require(
                    left > 0, (t_idx, v.block.index, "left-weight"), lhs=0.0, rhs=float(left)
                )
                short_charge.require_leq(
                    v.block.weight, SHORT_CHARGE * left, (t_idx, v.block.index, "charge")
                )
                acc = 0
            else:
                acc = (acc or 0) + v.block.weight

        anchored = sum(v.block.weight for v in views if v.label in ("simple", "long"))
        alive_split.require_leq(alive_weight, ALIVE_SPLIT * anchored, (t_idx,))

        # weight of a simple block vs its simple member jobs
        for v in views:
            if v.label != "simple":
                continue
            b = v.block
            simple_weight = 0
            for mb in b.members:
                if v.label_class in simple_job_classes(mb.rate, gamma, instance.classes):
                    simple_weight += mb.share * mb.count
            simple_jobs.require_leq(
                b.weight, SIMPLE_BLOCK_RATIO * simple_weight, (t_idx, b.index)
            )
            if simple_weight > 0:
                worst_simple_ratio = max(
                    worst_simple_ratio, to_float(b.weight / simple_weight)
                )
            else:
                worst_simple_ratio = math.inf

    return BlockClassification(
        intervals=intervals,
        checks=checks,
        flags={
            "long_wrt_last_class": long_wrt_last,
            "worst_simple_block_ratio": worst_simple_ratio,
        },
    )
