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
from .numutil import TIE_REL, leq, to_float
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


@dataclass(slots=True)
class JobView:
    """An alive job's block and simple classes in one interval. Slotted, not
    frozen: one is built per alive job and interval."""

    view: BlockView             # the job's block
    simple: tuple               # classes the job's rate is simple with respect to
    nearest: int                # the class of `simple` nearest in log scale, or 0


@dataclass(frozen=True)
class IntervalBlocks:
    blocks: tuple
    jobs: dict                  # job_id -> JobView


@dataclass
class BlockClassification:
    intervals: list
    checks: list
    flags: dict
    thresholds: tuple           # instances.thresholds: boundaries 1..K-1


def class_windows(gamma, classes, width):
    """Per class l, the window [gamma*sigma_l/width, gamma*sigma_l*width]."""
    return [(gamma * c.speed / width, gamma * c.speed * width) for c in classes]


def window_classes(value, windows):
    """Classes l, ascending, whose window holds value. Job windows of
    adjacent classes overlap (speeds drop by >= 64), so a rate can be simple
    with respect to two consecutive classes; block windows are disjoint."""
    return tuple(li for li, (lo, hi) in enumerate(windows, start=1)
                 if leq(lo, value) and leq(value, hi))


def _log(x):
    """math.log(x) for x > 0; an exact x that a float cannot hold, past the
    float range or rounding to 0, is logged from its numerator and
    denominator."""
    try:
        return math.log(float(x))
    except (OverflowError, ValueError):
        return math.log(x.numerator) - math.log(x.denominator)


def nearest_class(held, value, log_centres):
    """The class of `held` whose centre gamma*sigma_l, logged in
    log_centres, is nearest to value in log scale.

    Ties (value exactly between two class centres) go to the faster class.
    Returns 0 when `held` is empty.
    """
    if not held:
        return 0
    best = 0
    best_gap = math.inf
    log_value = _log(value)
    for li in held:
        gap = abs(log_value - log_centres[li - 1])
        if gap < best_gap - TIE_REL or (abs(gap - best_gap) <= TIE_REL and li < best):
            best, best_gap = li, gap
    return best


def _classify_block(block, instance, block_windows, alive_weight, k):
    counts = instance.class_prefix_counts
    m = counts[-1]
    lo_c = min(block.lo, m)
    hi_c = min(block.hi, m)
    per_class = tuple(
        max(0, min(hi_c, counts[li]) - max(lo_c, counts[li - 1]))
        for li in range(1, k + 1)
    )
    held = window_classes(block.speed / block.task_count(), block_windows)
    simple_class = held[0] if held else 0

    long_classes = []
    for li in range(1, k + 1):
        covers_half = 2 * per_class[li - 1] >= instance.classes[li - 1].count
        full_next = li < k and per_class[li] >= instance.classes[li].count
        if covers_half and not full_next:
            long_classes.append(li)

    if simple_class:
        label, label_class = "simple", simple_class
        long_classes = []
    elif not leq(alive_weight, block.weight * CHEAP_FRACTION * k):
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
    """Label every block of every trace interval, record each alive job's
    block, simple classes and nearest simple class, and scan the block facts.

    Requires the capacity growth conditions (the taxonomy is meaningless
    without them). Diagnostic records cover long-block shape, the cheap
    budget, short-block structure and charging, the 1/90 alive-weight split
    and the simple-block job-weight comparison. It makes one pass per
    interval over the interval's blocks: each block is labeled, its
    members' JobViews are built and the block's own checks run; the
    interval's cheap budget and alive-weight split follow the pass.
    """
    require_own_trace(trace, instance)
    if not validate_ica(instance).ok:
        raise AnalysisError("block classification requires the capacity growth conditions")
    k = len(instance.classes)
    gamma = trace.instance.speedup
    bounds = thresholds(instance)  # boundaries 1..K-1
    job_windows = class_windows(gamma, instance.classes, SIMPLE_JOB_WINDOW)
    block_windows = class_windows(gamma, instance.classes, SIMPLE_BLOCK_WINDOW)
    log_centres = [_log(gamma * c.speed) for c in instance.classes]

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
        views, jobs = [], {}
        cheap, anchored = [], []  # block weights, summed after the pass
        left = 0  # weight since the previous short block, or the first block
        for b in iv.profile.blocks:
            v = _classify_block(b, instance, block_windows, alive_weight, k)
            views.append(v)
            label = v.label
            for mb in b.members:
                simple = window_classes(mb.rate, job_windows)
                jobs[mb.job_id] = JobView(v, simple,
                                          nearest_class(simple, mb.rate, log_centres))

            if label == "short":
                present = [li for li in range(1, k + 1) if v.class_machine_counts[li - 1]]
                short_two.require(
                    len(present) == 2 and present[1] == present[0] + 1,
                    (t_idx, b.index, *present),
                )
                short_charge.require(
                    left > 0, (t_idx, b.index, "left-weight"), lhs=0.0, rhs=to_float(left)
                )
                short_charge.require_leq(
                    b.weight, SHORT_CHARGE * left, (t_idx, b.index, "charge")
                )
                left = 0
            else:
                left += b.weight

            if label == "cheap":
                cheap.append(b.weight)
            elif label == "long":
                anchored.append(b.weight)
                # shape facts: |B| <= m_blend_l and s(B) close to the class
                # capacity; for the last class only the speed lower bound
                # applies (there is no faster boundary to cap the block)
                for li in v.long_classes:
                    cap = gamma * instance.classes[li - 1].capacity()
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
            elif label == "simple":
                anchored.append(b.weight)
                # a simple block's weight vs that of its simple member jobs
                simple_weight = sum(mb.share * mb.count for mb in b.members
                                    if v.label_class in jobs[mb.job_id].simple)
                simple_jobs.require_leq(
                    b.weight, SIMPLE_BLOCK_RATIO * simple_weight, (t_idx, b.index)
                )
                if simple_weight > 0:
                    worst_simple_ratio = max(
                        worst_simple_ratio, to_float(b.weight / simple_weight)
                    )
                else:
                    worst_simple_ratio = math.inf
        intervals.append(IntervalBlocks(blocks=tuple(views), jobs=jobs))

        cheap_budget.require_leq(len(cheap), k, (t_idx, "count"))
        cheap_budget.require_leq(sum(cheap), alive_weight / CHEAP_FRACTION, (t_idx, "weight"))
        alive_split.require_leq(alive_weight, ALIVE_SPLIT * sum(anchored), (t_idx,))

    return BlockClassification(
        intervals=intervals,
        checks=checks,
        flags={
            "long_wrt_last_class": long_wrt_last,
            "worst_simple_block_ratio": worst_simple_ratio,
        },
        thresholds=bounds,
    )
