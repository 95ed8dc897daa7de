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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .instances import Instance
from .numutil import leq, tie_leq


class RateError(ValueError):
    """Raised when a rate profile request is malformed."""


@dataclass(frozen=True)
class AliveJob:
    job_id: int
    weight: object  # > 0
    count: int      # alive tasks, >= 1

    def share(self):
        return self.weight / self.count


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
        rates = {}
        for m in self.members():
            rates.setdefault(m.job_id, m.rate)
        return rates

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

    `alive` is an iterable of AliveJob. Returns blocks in freeze order with
    strictly increasing tau. All alive tasks of a job land in one block.
    """
    alive = list(alive)
    if not alive:
        return RateProfile(gamma=instance.speedup, blocks=())
    for a in alive:
        if a.weight <= 0:
            raise RateError(f"job {a.job_id}: non-positive weight {a.weight}")
        if a.count < 1:
            raise RateError(f"job {a.job_id}: empty alive set")
    gamma = instance.speedup

    # each share divided once; ties go to the lower job id
    entries = sorted(((a.share(), a) for a in alive),
                     key=lambda e: (e[0], -e[1].job_id), reverse=True)
    # runs of exactly equal share; a run freezes atomically
    runs = []  # [share, members, task count, share * task count]
    for share, a in entries:
        if runs and runs[-1][0] == share:
            runs[-1][1].append(a)
        else:
            runs.append([share, [a]])
    for run in runs:
        count = sum(a.count for a in run[1])
        run += [count, run[0] * count]

    # stack of run ends on the lower hull: (runs, tasks, S, share sum and
    # water level from the entry below); run end 0 is the base. The top is
    # always the previous run end, and a pop adds the popped share sum to
    # the new end's, so no share sum is a difference that could cancel.
    hull = [(0, 0, instance.capacity_prefix(0), None, None)]
    n = 0
    for e, run in enumerate(runs, start=1):
        n += run[2]
        s = instance.capacity_prefix(n)
        x = run[3]
        level = None  # from the top of the stack, known after a pop
        # rightmost minimizer wins: pop on <= (with float tie slack)
        while len(hull) > 1:
            _, _, _, x_top, level_top = hull[-1]
            x_below = x_top + x
            from_below = gamma * (s - hull[-2][2]) / x_below
            if not tie_leq(from_below, level_top):
                break
            hull.pop()
            x, level = x_below, from_below
        if level is None:
            level = gamma * (s - hull[-1][2]) / x
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
        if not (tau_prev is None or leq(tau_prev, tau)):
            raise AssertionError(f"water level went down from {tau_prev} to {tau}")
        members = tuple(
            BlockMember(job.job_id, job.weight, job.count, share, share * tau)
            for share, group, _, _ in runs[a:e]
            for job in group
        )
        blocks.append(
            Block(
                index=len(blocks),
                tau=tau,
                lo=lo,
                hi=hi,
                speed=speed,
                members=members,
            )
        )
        tau_prev = tau
    return RateProfile(gamma=gamma, blocks=tuple(blocks))


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

