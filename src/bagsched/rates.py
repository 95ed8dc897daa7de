"""Water-filling rate assignment over alive jobs.

Every alive task of a job gets the same per-task share w_j / n_j. A common
multiplier tau is raised for all unfrozen tasks; whenever the total rate of
the k highest-share unfrozen tasks reaches the speedup-scaled capacity of the
machines k..? left for them, the largest such prefix freezes as a block. The
closed form below never iterates over individual tasks: tasks with equal
shares (in particular all tasks of one job) form runs that freeze together,
so each stage picks the run end minimizing

    tau_k = gamma * (S(b + k) - S(b)) / (sum of the k highest unfrozen shares)

where b is the number of already frozen tasks and S is the prefix-capacity
function. Minima occur only at run ends and the rightmost minimizer is the
maximal tight prefix, which is what gets frozen.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .instances import Instance
from .numutil import TIE_REL, geq, leq


class RateError(ValueError):
    """Raised when a rate profile request is malformed."""


@dataclass(frozen=True)
class AliveJob:
    job_id: int
    weight: object  # > 0
    count: int      # alive tasks, >= 1

    def share(self):
        return self.weight / self.count


@dataclass(frozen=True)
class BlockMember:
    job_id: int
    count: int
    share: object
    rate: object    # share * tau of the enclosing block


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

    def weight(self):
        return sum(m.share * m.count for m in self.members)


@dataclass(frozen=True)
class RateProfile:
    gamma: object
    blocks: tuple

    def task_total(self) -> int:
        return self.blocks[-1].hi if self.blocks else 0

    @cached_property
    def _by_job(self) -> dict:
        """job_id -> (Block, BlockMember), built on first lookup."""
        index = {}
        for b in self.blocks:
            for m in b.members:
                index.setdefault(m.job_id, (b, m))
        return index

    def member_of(self, job_id: int) -> BlockMember:
        return self._entry(job_id)[1]

    def rate_of(self, job_id: int):
        return self._entry(job_id)[1].rate

    def block_of(self, job_id: int) -> Block:
        return self._entry(job_id)[0]

    def _entry(self, job_id):
        try:
            return self._by_job[job_id]
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

    entries = sorted(alive, key=lambda a: (a.share(), -a.job_id), reverse=True)
    # runs of exactly equal share; a run freezes atomically
    runs = []  # [share, members, task count, share * task count]
    for a in entries:
        share = a.share()
        if runs and runs[-1][0] == share:
            runs[-1][1].append(a)
        else:
            runs.append([share, [a]])
    for run in runs:
        count = sum(a.count for a in run[1])
        run += [count, run[0] * count]

    blocks = []
    b = 0
    s_b = instance.capacity_prefix(0)
    tau_prev = None
    start = 0
    while start < len(runs):
        cum_n = 0
        cum_share = 0
        best_tau = None
        best_idx = None
        best_n = None
        for idx in range(start, len(runs)):
            _, _, count, run_share = runs[idx]
            cum_n += count
            cum_share = cum_share + run_share
            s_end = instance.capacity_prefix(b + cum_n)
            tau = gamma * (s_end - s_b) / cum_share
            # rightmost minimizer wins: replace on <= (with float tie slack)
            if best_tau is None or leq(tau, best_tau, rel=TIE_REL):
                best_tau, best_idx, best_n = tau, idx, cum_n
        if best_idx is None:
            raise AssertionError(f"no run end to freeze after {b} tasks")
        if not best_tau > 0:
            # Tasks past the machine count would get rate 0 only if capacity
            # stopped growing before any was assigned; the freeze order makes
            # that impossible (see the package notes), so treat it as
            # corruption rather than a schedulable state.
            raise AssertionError(
                f"zero water level at prefix {b + best_n} of {instance.machine_count()} machines"
            )
        hi = b + best_n
        s_hi = instance.capacity_prefix(hi)
        members = tuple(
            BlockMember(
                job_id=a.job_id,
                count=a.count,
                share=runs[i][0],
                rate=runs[i][0] * best_tau,
            )
            for i in range(start, best_idx + 1)
            for a in runs[i][1]
        )
        if not (tau_prev is None or geq(best_tau, tau_prev)):
            raise AssertionError(f"water level went down from {tau_prev} to {best_tau}")
        blocks.append(
            Block(
                index=len(blocks),
                tau=best_tau,
                lo=b,
                hi=hi,
                speed=gamma * (s_hi - s_b),
                members=members,
            )
        )
        tau_prev = best_tau
        b = hi
        s_b = s_hi
        start = best_idx + 1
    return RateProfile(gamma=gamma, blocks=tuple(blocks))


def verify_star(profile: RateProfile, instance: Instance) -> bool:
    """Check the prefix-capacity condition: for every k, the k largest rates
    sum to at most gamma * S(k).

    Rates are piecewise constant over member spans and S has knees only at
    class boundaries, so checking at member ends and knees is exact.
    """
    ok, _ = star_witness(profile, instance)
    return ok


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
        if not geq(r1, r2):
            return False, ("order", r1, r2)
    return True, None


def freeze_order_rate_check(profile: RateProfile, v, v_after, v_before,
                          instance: Instance) -> bool:
    """Two comparison facts about one task against later/earlier freezers.

    `v` is a job id standing for one alive task of that job; `v_after` and
    `v_before` are job-id lists (repeats allowed, one task per entry).
    Every entry of `v_after` must freeze at v's moment or later, every entry
    of `v_before` at v's moment or earlier. Checks:

      share(v) / s_n     >= share-sum(v_after) / S(n)      (n = all alive)
      share(v) / rate(v) <= share-sum(v_before) / rate-sum(v_before)
    """
    n = profile.task_total()
    blk_v = profile.block_of(v)
    mem_v = profile.member_of(v)

    def gather(ids, side):
        shares = 0
        rate_sum = 0
        for job in ids:
            b = profile.block_of(job)
            if side == "after" and b.index < blk_v.index:
                raise RateError(f"job {job} freezes before job {v}")
            if side == "before" and b.index > blk_v.index:
                raise RateError(f"job {job} freezes after job {v}")
            m = profile.member_of(job)
            shares = shares + m.share
            rate_sum = rate_sum + m.rate
        return shares, rate_sum

    ok = True
    shares_after, _ = gather(v_after, "after")
    if n <= instance.machine_count():
        # cross-multiplied to avoid dividing by the slowest relevant speed
        ok = ok and geq(mem_v.share * instance.capacity_prefix(n),
                        shares_after * instance.machine_speed(n))
    # past the machine count the relevant speed is 0 and the fact is vacuous
    shares_before, rates_before = gather(v_before, "before")
    if rates_before > 0:
        ok = ok and leq(mem_v.share * rates_before,
                        shares_before * mem_v.rate)
    return bool(ok)
