"""Water-filling rate assignment over alive jobs.

Every alive task of a job gets the same per-task share w_j / n_j. A common
multiplier tau is raised for all unfrozen tasks; whenever the total rate of
the k highest-share unfrozen tasks reaches the speedup-scaled capacity of
the fastest k machines left for them, the largest such prefix freezes as a
block. Tasks with equal shares (in particular all tasks of one job) form
runs that freeze together, so nothing below iterates over single tasks.

Sort the runs by falling share. Run end e is the point (X_e, S(N_e)), where
N_e and X_e are the task count and the share sum of the first e runs, and S
is the prefix-capacity function; run end 0 is (0, S(0)). The tasks between
run ends a and e freeze at the water level

    tau = gamma * (S(N_e) - S(N_a)) / (X_e - X_a),

gamma times the slope from point a to point e. From the last freeze end,
the next block ends where that slope is least, and at the rightmost such
end, which is the largest tight prefix. Minima occur only at run ends:
inside a run, X grows linearly with the task count while S is concave, so
the points of a run's tasks lie on or above the chord between its two
ends, and their slope from any earlier point is at least the smaller of
the two ends' slopes. The freeze ends are therefore the vertices of the
lower convex hull of the run ends, found in one monotone-chain pass
(Andrew, "Another efficient algorithm for convex hulls in two dimensions",
IPL 1979). A new run end pops the top of the stack while its water level
from the vertex below the top is at most the top's, up to TIE_REL of the
larger of the two levels: ties and collinear ends go to the rightmost end.
That tie (numutil.tie_leq) has no absolute floor, so it means the same at
every weight scale. Each stack entry keeps its share sum from the entry
below, so X_e - X_a is always a sum of run shares and never a difference
of running totals, which would cancel when the shares span many orders of
magnitude. In exact mode each block's tau is the water level held by the
hull entry that ends it, gamma * (S(N_e) - S(N_a)) over that entry's share
sum, which is the exact sum of the block's run shares. In float mode tau is
recomputed from the block's own share sum, taken from zero in run order.

The work per call, which the simulator pays at every event: one pass over
the alive jobs checks and keys each, one sort orders them, one loop over
the sorted jobs forms the runs and counts their tasks, the hull reads
capacity_prefix once per run end, and the blocks build one member per
job. A job's share is divided, and its weight and count checked, once per
alive count: an AliveJob does both when it is built, and the simulator
builds one when a job is admitted and when one of its groups completes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .instances import Instance
from .numutil import leq, tie_leq


class RateError(ValueError):
    """Raised when a rate profile request is malformed."""


@dataclass(frozen=True, slots=True)
class AliveJob:
    """A job's alive tasks. Its share is divided once, when it is built, and
    is None for a job that assign_rates refuses, which builds without error."""

    job_id: int
    weight: object  # > 0 and finite
    count: int      # alive tasks, >= 1
    _share: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w, n = self.weight, self.count
        # w > 0 is false for NaN, and w - w is NaN for an infinite w
        share = w / n if n >= 1 and w > 0 and w - w == 0 else None
        object.__setattr__(self, "_share", share)


@dataclass(slots=True)
class BlockMember:
    """One alive job inside a block: the run's one record of that job in an
    interval, which sim.Interval.jobs lists in job-id order. Slotted, not
    frozen: one is built per alive job and event."""

    job_id: int
    weight: object  # the AliveJob's weight, as given
    count: int      # alive tasks
    share: object   # weight / count
    rate: object    # per-task rate: share * tau of the enclosing block


@dataclass(frozen=True)
class Block:
    index: int       # 0-based position in freeze order
    tau: object      # water level at which this block froze
    lo: int          # tasks frozen before this block
    hi: int          # tasks frozen through this block
    speed: object    # gamma * (S(hi) - S(lo)); equals the sum of member rates
    members: tuple   # BlockMember, non-increasing share

    def task_count(self) -> int:
        return self.hi - self.lo

    @cached_property
    def weight(self):
        """Total weight of the members, summed once."""
        return sum(m.share * m.count for m in self.members)


@dataclass(frozen=True)
class RateProfile:
    gamma: object
    blocks: tuple

    @cached_property
    def _rates(self) -> dict:
        """job_id -> per-task rate, built on first lookup."""
        # read backwards, so a job listed twice keeps its first rate
        return {m.job_id: m.rate for b in reversed(self.blocks) for m in reversed(b.members)}

    def rate_of(self, job_id: int):
        try:
            return self._rates[job_id]
        except KeyError:
            raise RateError(f"job {job_id} not in profile") from None

    def members(self):
        for b in self.blocks:
            yield from b.members


def assign_rates(alive, instance: Instance) -> RateProfile:
    """Compute the water-filling rate profile for the alive jobs.

    `alive` is an iterable of AliveJob, each with a positive finite weight
    and at least one task, else RateError names the job. Returns blocks in
    freeze order with strictly increasing tau. All alive tasks of a job land
    in one block.

    Per call, which the simulator makes once per event: one pass over the
    alive jobs, one sort, one capacity_prefix call per run end and one
    member per job. No share is divided or weight checked here: each
    AliveJob did both once, when it was built, so once per alive count of
    a job.
    """
    entries = []
    for a in alive:
        share = a._share
        if share is None:  # checked once, when the job was built
            if a.count < 1:
                raise RateError(f"job {a.job_id}: empty alive set")
            raise RateError(f"job {a.job_id}: weight {a.weight} is not positive and finite")
        entries.append((share, -a.job_id, a))
    gamma = instance.speedup
    if not entries:
        return RateProfile(gamma=gamma, blocks=())
    # share descending, ties to the lower job id, by two stable sorts: a
    # (share, -job_id) key would compare exact shares by == and then by <
    entries.sort(key=itemgetter(1), reverse=True)
    entries.sort(key=itemgetter(0), reverse=True)
    # runs of exactly equal share; a run freezes atomically
    runs = []  # (share, members, task count, share * task count)
    share, _, a = entries[0]
    group, count = [a], a.count
    for next_share, _, a in entries[1:]:
        if next_share == share:
            group.append(a)
            count += a.count
        else:
            runs.append((share, group, count, share * count))
            share, group, count = next_share, [a], a.count
    runs.append((share, group, count, share * count))

    # stack of run ends on the lower hull: (runs, tasks, S, share sum and
    # water level from the entry below); run end 0 is the base. The top is
    # always the previous run end, and a pop adds the popped share sum to
    # the new end's, so no share sum is a difference that could cancel.
    capacity = instance.capacity_prefix
    hull = [(0, 0, capacity(0), None, None)]
    n = 0
    for e, (_, _, count, x) in enumerate(runs, start=1):
        n += count
        s = capacity(n)
        level = None  # from the top of the stack, known after a pop
        top = hull[-1]
        # rightmost minimizer wins: pop on <= (with float tie slack) until
        # the base, whose run count is 0
        while top[0]:
            below = hull[-2]
            x_below = top[3] + x
            from_below = gamma * (s - below[2]) / x_below
            level_top = top[4]
            if not (from_below <= level_top or tie_leq(from_below, level_top)):
                break
            hull.pop()
            x, level, top = x_below, from_below, below
        if level is None:
            level = gamma * (s - top[2]) / x
        hull.append((e, n, s, x, level))

    exact = instance.exact
    blocks = []
    tau_prev = None
    for (a, lo, s_lo, _, _), (e, hi, s_hi, _, level) in zip(hull, hull[1:]):
        speed = gamma * (s_hi - s_lo)
        if exact:
            tau = level
        else:  # the block's share sum, from zero in run order
            share_sum = 0
            for run in runs[a:e]:
                share_sum = share_sum + run[3]
            tau = speed / share_sum
        if not tau > 0:
            # Tasks past the machine count would get rate 0 only if capacity
            # stopped growing before any was assigned; the freeze order makes
            # that impossible (see the package notes), so treat it as
            # corruption rather than a schedulable state.
            raise AssertionError(
                f"zero water level at prefix {hi} of {instance.machine_count()} machines"
            )
        if not (tau_prev is None or tau_prev <= tau or leq(tau_prev, tau)):
            raise AssertionError(f"water level went down from {tau_prev} to {tau}")
        members = tuple([
            BlockMember(job.job_id, job.weight, job.count, share, share * tau)
            for share, group, _, _ in runs[a:e]
            for job in group
        ])
        blocks.append(Block(len(blocks), tau, lo, hi, speed, members))
        tau_prev = tau
    return RateProfile(gamma, tuple(blocks))


def star_witness(profile: RateProfile, instance: Instance):
    """(True, None), or False with the first failure found.

    ("prefix", k, rate_sum, cap) names the first prefix of the members, in
    listed order, whose rates exceed gamma * S(k); it is looked for before
    the order, since it proves the profile infeasible in any order.
    ("order", r1, r2) names the first rate that rises.
    """
    gamma = profile.gamma
    rates = []
    for m in profile.members():
        rates.append((m.rate, m.count))
    knees = set(instance.class_prefix_counts)
    total = 0
    prefix_rate = 0
    candidates = []
    for rate, count in rates:
        inner = [k for k in knees if total < k < total + count]
        for k in sorted(inner):
            candidates.append((k, prefix_rate + rate * (k - total)))
        total += count
        prefix_rate = prefix_rate + rate * count
        candidates.append((total, prefix_rate))
    for k, rate_sum in candidates:
        cap = gamma * instance.capacity_prefix(k)
        if not leq(rate_sum, cap):
            return False, ("prefix", k, rate_sum, cap)
    for (r1, _), (r2, _) in zip(rates, rates[1:]):
        if not leq(r2, r1):
            return False, ("order", r1, r2)
    return True, None

