"""Event-driven execution of the water-filling policy, plus slice realization.

The simulator never touches individual tasks. All alive tasks of a job carry
the same cumulative depletion, so per job it tracks one number and the count
of leading task groups still alive (groups are sorted by descending size, and
tasks die in ascending size order, so the alive groups always form a prefix).
Events are group completions and job releases; rates are constant in between.
An event hands the alive jobs to one assign_rates call and then makes two
passes over them: each alive record keeps the size of its next group to
complete, so the first pass reads each job's rate and divides once for its
completion time, and the second adds its depletion or records its
completion.
Each interval holds only its span and its rate profile, and reads its alive
jobs (weight, count, rate) from the profile's members. A trace records the
time each group completed and derives the rest: a job completes with its
group 0, and the objective and the makespan follow from those completions.

realize_slice turns one interval's fluid rates into an explicit schedule:
tasks sorted by remaining quota occupy machines in that order, ties pool
their machines and deplete together. This yields piecewise-constant segments
whose breakpoints are quota merges and quota exhaustions, at most two per
pooled entry.

Adjacent pools of equal per-task rate form a run, as pools on machines of
one speed do, and pools past the last machine at rate 0. Each pool's
record keeps its placement, its per-task rate, the capacity of the
machines through it, and its rate gap to the pool ahead as the two tests
the event search makes of it: a zero gap continues the run ahead, and a
positive gap lets the pool catch up with the pool ahead. The placement,
rate and capacity are refreshed only when the pool is re-placed: when
pools merge into it, or when a drained pool ahead of it shifts its
position. The gap is refreshed only when the pool or the pool ahead of it
is re-placed.

A segment thus costs, per run, one division for its drain time, at most
one for a catch at its head and one product for the work it delivers; per
pool, one comparison for its run's least quota and one subtraction; one
addition per member in float mode; one product and one sum to map an
exact segment's end back; and one placement and capacity lookup per
re-placed pool. The least quota of a run drains first, at the time its
pools' own divisions give, because float rounding is monotone: for a rate
r > 0, q <= q' implies fl(q / r) <= fl(q' / r), so the least fl(q / r)
over the run is fl(min q / r). Every value that reaches an output is thus
computed by the same float operations, in the same order, as a placement
derived afresh in every segment.

An exact slice adds no work per member: its work is each job's quota,
rate * length. It has no slack, no segment takes a pool below zero (dt is
at most a run's least quota over its rate), a pool drops only at quota 0,
pools merge only at equal quotas, and the slice raises unless every quota
is left at 0; so each member's delivered work sums to its quota exactly.

An exact slice also runs on slice-normalized time u = (t - start) / length,
from 0 to 1: a pool's quota in it is its members' rate, not
rate * length, a drain or catch time is a quota over a rate, and a
segment delivers rate * du. Its subtractions, divisions and compares thus
work on numbers the size of the instance's rates, not on the denominators
of the slice's start and length, which grow with every event of the run.
Scaling every quota and time by 1 / length changes no decision
(drain < dt, equal quotas, quota > 0), and after the loop each boundary
maps back once, as start + u * length, with u = 1 as end itself: the
value the chain t + dt gives. So the segments and the work are the same
Rationals. A float slice runs on t itself.

Time tests are relative with no absolute floor, so that scaling every size
and release by a power of two scales every time by it: a job is admitted
once its release is within EVENT_REL of the event time, relative to the
larger of the two, and a float slice ends once t is within EVENT_REL of
its end, relative to the slice's larger end. A float slice whose largest
quota is so small that EVENT_REL of it underflows to 0.0 is refused, as
no drain or merge could be told from rounding there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from operator import attrgetter
from typing import NamedTuple

from .instances import Instance, InstanceError, instance_to_dict
from .numutil import EVENT_REL, REL_TOL, coerce, json_number, scaled_tol, tie_leq
from .rates import AliveJob, RateProfile, assign_rates, star_witness


class LivelockError(RuntimeError):
    """Work remains but a slice realization stalls or fails to terminate."""


class InfeasibleSliceError(RuntimeError):
    """A slice's quotas cannot be met by its machines.

    Carries the offending prefix: k tasks whose combined quota exceeds the
    capacity of the k fastest machines over the slice.
    """

    def __init__(self, prefix_count, quota_sum, capacity):
        self.prefix_count = prefix_count
        self.quota_sum = quota_sum
        self.capacity = capacity
        super().__init__(
            f"top {prefix_count} quotas sum to {quota_sum}, capacity {capacity}"
        )


@dataclass(frozen=True)
class Interval:
    """A stretch of constant rates. The profile is the interval's one record
    of its alive jobs; jobs lists the profile's members in job-id order."""

    start: object
    end: object
    profile: RateProfile

    @cached_property
    def jobs(self) -> tuple:
        """BlockMember per alive job, ascending job_id."""
        return tuple(sorted(self.profile.members(), key=attrgetter("job_id")))

    def length(self):
        return self.end - self.start

    def alive_weight(self):
        return sum(j.weight for j in self.jobs)


@dataclass
class Trace:
    """One run: its instance, its constant-rate intervals and the time each
    task group completed. The group completions are the run's one record of
    when work finished; each job's completion, the objective and the
    makespan are derived from them."""

    instance: Instance
    intervals: list
    group_completions: dict  # (job_id, group_index) -> completion time

    @cached_property
    def completions(self) -> dict:
        """job_id -> completion time: that of its group 0, its largest tasks."""
        return {j: c for (j, g), c in self.group_completions.items() if g == 0}

    @cached_property
    def objective(self):
        """sum w_j C_j, in job-id order."""
        jobs = self.instance.jobs
        return sum(jobs[j - 1].weight * c for j, c in sorted(self.completions.items()))

    @cached_property
    def makespan(self):
        zero = self.instance.speedup - self.instance.speedup
        return max(self.completions.values(), default=zero)


def simulate(instance: Instance) -> Trace:
    """Run the policy to completion and record every constant-rate interval.

    A float run that leaves the float range, so that a rate underflows to
    0, time stops advancing or the objective is not finite, is refused with
    InstanceError; the exact mode runs it."""
    exact = instance.exact
    zero = instance.speedup - instance.speedup
    # job_id -> [AliveJob, alive group count, depletion, size of the next
    # group to complete, the job's groups]
    alive = {}
    group_completions = {}
    pending = sorted(instance.jobs, key=lambda j: (j.release, j.job_id))
    pending_idx = 0

    t = zero
    intervals = []

    def admit(upto):
        nonlocal pending_idx
        while pending_idx < len(pending) and tie_leq(pending[pending_idx].release, upto, EVENT_REL):
            job = pending[pending_idx]
            pending_idx += 1
            groups = job.groups
            g = len(groups)
            # zero-size tasks finish the moment they appear
            while g > 0 and groups[g - 1].size == 0:
                g -= 1
                group_completions[(job.job_id, g)] = job.release
            if g > 0:
                count = sum(grp.count for grp in groups[:g])
                alive[job.job_id] = [
                    AliveJob(job.job_id, job.weight, count), g, zero, groups[g - 1].size, groups]

    admit(t)
    while True:
        if not alive:
            if pending_idx >= len(pending):
                break
            t = pending[pending_idx].release
            admit(t)
            continue
        profile = assign_rates([rec[0] for rec in alive.values()], instance)
        rate_of = profile.rate_of
        # next completion per job: its smallest alive size, less its
        # depletion, over its rate
        rated = []
        dt = None
        for rec in alive.values():
            job_id = rec[0].job_id
            rate = rate_of(job_id)
            if not rate > 0:
                # a positive share times a positive water level is 0 only
                # when a float product underflows
                if exact:
                    raise AssertionError(f"job {job_id} has rate {rate} at t={t}")
                raise InstanceError(f"job {job_id}'s rate is {rate} at t={t} in float "
                                    "arithmetic; rerun with --exact")
            d = (rec[3] - rec[2]) / rate
            if dt is None or d < dt:
                dt = d
            rated.append((rec, rate, d))
        released = pending_idx < len(pending) and pending[pending_idx].release - t < dt
        if released:  # release only; nobody completes
            dt = pending[pending_idx].release - t

        end = t + dt
        if not end > t:
            # exact time always advances; float time stops when the rates
            # overflow (every dt is 0) or an event lies within an ulp of t
            if exact:
                raise AssertionError(f"completion event at t={t} does not advance time")
            raise InstanceError(f"time stops at t={t} in float arithmetic; rerun with --exact")
        intervals.append(Interval(t, end, profile))

        cutoff = None if exact else dt * (1 + EVENT_REL)
        for rec, rate, d in rated:
            if released or not (d == dt if exact else d <= cutoff):
                rec[2] = rec[2] + rate * dt
                continue
            a, g, _, _, groups = rec
            g -= 1
            group = groups[g]
            group_completions[(a.job_id, g)] = end
            if g == 0:
                del alive[a.job_id]
            else:  # snap the depletion to the group's boundary
                rec[:4] = [AliveJob(a.job_id, a.weight, a.count - group.count), g,
                           group.size, groups[g - 1].size]
        t = end
        admit(t)

    trace = Trace(instance=instance, intervals=intervals, group_completions=group_completions)
    if not exact and not isfinite(trace.objective):
        raise InstanceError(
            f"objective is {trace.objective} in float arithmetic; rerun with --exact")
    return trace


# ---------------------------------------------------------------------------
# Slice realization
# ---------------------------------------------------------------------------

class Placement(NamedTuple):
    members: tuple       # (job_id, task_count) pairs sharing this pool
    count: int           # total tasks in the pool
    position_lo: int     # tasks ahead of this pool in quota order
    machine_lo: int      # 1-based, inclusive; lo > hi means no machines
    machine_hi: int
    per_task_rate: object


class Segment(NamedTuple):
    start: object
    end: object
    placements: tuple


@dataclass
class ScheduleSlice:
    start: object
    end: object
    segments: list
    work: dict  # job_id -> per-task work delivered in this slice


class _Pool:
    """Tasks of equal quota that deplete together, with the values the
    segment loop reads off it (see the module notes for when each is
    refreshed)."""

    __slots__ = ("quota", "count", "members", "placement", "rate", "cap_hi",
                 "head", "gap", "drain_rate")

    def __init__(self, quota, count, members):
        self.quota = quota        # per-task quota left
        self.count = count        # tasks in the pool
        self.members = members    # job_id -> task count
        self.placement = None     # None until placed and once the members change
        self.rate = 0             # per-task rate of the placement
        self.cap_hi = None        # capacity of the machines through this pool
        self.head = True          # first of its run: its rate differs from the pool ahead
        self.gap = None           # rate of the pool ahead minus this rate, if positive
        self.drain_rate = None    # the rate, if positive


def _set_gap(pool, gap):
    """Record a pool's rate gap to the pool ahead as the two tests the
    event search makes of it."""
    pool.head = gap != 0
    pool.gap = gap if gap > 0 else None


def realize_slice(profile: RateProfile, instance: Instance, interval) -> ScheduleSlice:
    """Realize one interval of fluid rates as machine segments.

    `interval` is an (start, end) pair or any object with start/end. Raises
    InfeasibleSliceError, with star_witness's overfull prefix, when the
    quotas cannot fit (never for profiles that pass star_witness), and
    InstanceError for a float slice whose quotas are deep subnormal; the
    exact mode runs it.
    """
    if hasattr(interval, "start"):
        start, end = interval.start, interval.end
    else:
        start, end = interval
    length = end - start
    if not length > 0:
        raise AssertionError(f"slice [{start}, {end}) has no length")
    gamma = profile.gamma
    m = instance.machine_count()
    capacity = instance.capacity_prefix
    zero = gamma - gamma  # typed zero
    new = tuple.__new__  # a record without the NamedTuple's Python-level __new__

    # one pass over the members: the work of every alive job, and the
    # pools of equal quota, quota descending. An exact slice runs on
    # slice-normalized time, where a quota is the rate, and delivers each
    # quota in full (see the module notes), so its work is rate * length.
    exact = instance.exact
    work = {}
    pools = []
    member_count = 0
    for mem in profile.members():
        member_count += 1
        if exact:
            quota = mem.rate
            work[mem.job_id] = quota * length
        else:
            quota = mem.rate * length
            work[mem.job_id] = zero
        if quota == 0:
            continue
        if pools and pools[-1].quota == quota:
            last = pools[-1]
            last.count += mem.count
            last.members[mem.job_id] = last.members.get(mem.job_id, 0) + mem.count
        else:
            pools.append(_Pool(quota, mem.count, {mem.job_id: mem.count}))
    quota_scale = pools[0].quota if pools else zero
    tol = scaled_tol(quota_scale, EVENT_REL)
    if pools and not (exact or tol):  # see the module notes
        raise InstanceError(
            f"quotas of [{start}, {end}) are too small for float arithmetic; "
            "rerun with --exact")
    cap_zero = capacity(0)
    # a float slice ends once end - t is at most near (see the module notes)
    near = None if exact else EVENT_REL * max(abs(start), abs(end))

    # at most two events (a merge and a drain) per pool, plus slack
    max_segments = 4 * len(profile.blocks) + 4 * member_count + 8
    # the loop's time: t itself in a float slice, (t - start) / length from
    # 0 to 1 in an exact one (see the module notes)
    t, stop = (zero, coerce(1, True)) if exact else (start, end)
    segments = []
    stale = range(len(pools))  # pools to re-place, ascending
    while pools:
        if len(segments) >= max_segments:
            raise LivelockError(
                f"realization of [{start}, {end}) did not terminate "
                f"within {max_segments} segments"
            )
        # re-place the stale pools, each behind a current one, and refresh
        # the rate gaps they change: their own and the next pool's
        for i in stale:
            pool = pools[i]
            count = pool.count
            if i:
                ahead = pools[i - 1]
                pos = ahead.placement.position_lo + ahead.count
                cap_lo = ahead.cap_hi
            else:
                pos, cap_lo = 0, cap_zero
            hi = pos + count
            if hi > m:
                hi = m
            cap_hi = pool.cap_hi = capacity(hi)
            rate = pool.rate = gamma * (cap_hi - cap_lo) / count
            pool.drain_rate = rate if rate > 0 else None
            old = pool.placement
            # members, count, position_lo, machine_lo, machine_hi, per_task_rate
            pool.placement = new(Placement, (
                old.members if old is not None else tuple(sorted(pool.members.items())),
                count, pos, pos + 1 if pos < m else m + 1, hi, rate))
            if i:
                _set_gap(pool, ahead.rate - rate)
            else:
                pool.head, pool.gap = True, None
            if i + 1 < len(pools):
                behind = pools[i + 1]
                _set_gap(behind, rate - behind.rate)
        # the next event: a run of equal rates drains, or a faster run
        # catches the pool ahead of it. A run's rate is its head's, and its
        # least quota drains first (see the module notes)
        dt = stop - t
        least = None  # least quota of the run so far, if the run drains
        ahead_quota = None
        for pool in pools:
            quota = pool.quota
            if pool.head:
                if least is not None:
                    drain = least / run_rate
                    if drain < dt:
                        dt = drain
                gap = pool.gap
                # per-block rounding can leave adjacent quotas inverted by
                # an ulp; a non-positive lead is not a catch event
                if gap is not None:
                    lead = ahead_quota - quota
                    if lead > 0:
                        catch = lead / gap
                        if catch < dt:
                            dt = catch
                run_rate = pool.drain_rate
                least = quota if run_rate is not None else None
            elif least is not None and quota < least:
                least = quota
            ahead_quota = quota
        if least is not None:
            drain = least / run_rate
            if drain < dt:
                dt = drain
        if dt <= 0:
            break
        seg_end = t + dt
        segments.append(new(Segment, (t, seg_end, tuple([p.placement for p in pools]))))
        t = seg_end
        # deliver the segment's work, one product per run, drop drained
        # pools and merge equalized neighbours; a merged pool, and every
        # pool behind a dropped one, goes stale
        kept = []
        stale = []
        dropped = False
        for pool in pools:
            if pool.head:
                done = pool.rate * dt
            quota = pool.quota = pool.quota - done
            if not exact:
                for job in pool.members:
                    work[job] = work[job] + done
            if not quota > tol:
                dropped = True
                continue
            if kept and (ahead_quota == quota or (tol and -tol <= ahead_quota - quota <= tol)):
                target = kept[-1]
                target.count += pool.count
                for job, cnt in pool.members.items():
                    target.members[job] = target.members.get(job, 0) + cnt
                if target.placement is not None:
                    target.placement = None
                    if not stale or stale[-1] != len(kept) - 1:
                        stale.append(len(kept) - 1)
                continue
            if dropped:
                stale.append(len(kept))
            kept.append(pool)
            ahead_quota = quota
        pools = kept
        if t >= stop or (near is not None and stop - t <= near):
            break
    if exact:  # map each boundary back once; u = 1 is end itself
        at = start
        for i, seg in enumerate(segments):
            u = seg.end
            to = end if u == stop else start + u * length
            segments[i] = new(Segment, (at, to, seg.placements))
            at = to

    slack = scaled_tol(quota_scale, REL_TOL)
    if any(pool.quota > slack for pool in pools):
        _, witness = star_witness(profile, instance)
        if witness is None or witness[0] != "prefix":
            raise LivelockError(
                f"realization of [{start}, {end}) stalled with quota left "
                "but no overfull prefix"
            )
        _, k, rate_sum, cap = witness
        raise InfeasibleSliceError(k, rate_sum * length, cap * length)
    return ScheduleSlice(start=start, end=end, segments=segments, work=work)


# ---------------------------------------------------------------------------
# Trace serialization (JSON lines)
# ---------------------------------------------------------------------------

def write_trace(trace: Trace, fh) -> None:
    meta = {
        "type": "meta",
        "gamma": json_number(trace.instance.speedup),
        "classes": [[json_number(c.speed), c.count] for c in trace.instance.classes],
        "jobs": len(trace.instance.jobs),
        "has_releases": trace.instance.has_releases(),
        "instance": instance_to_dict(trace.instance),
    }
    fh.write(json.dumps(meta) + "\n")
    for iv in trace.intervals:
        rec = {
            "type": "interval",
            "start": json_number(iv.start),
            "end": json_number(iv.end),
            "alive": [
                {
                    "job": j.job_id,
                    "count": j.count,
                    "rate": json_number(j.rate),
                    "weight": json_number(j.weight),
                }
                for j in iv.jobs
            ],
        }
        fh.write(json.dumps(rec) + "\n")
    summary = {
        "type": "summary",
        "objective": json_number(trace.objective),
        "makespan": json_number(trace.makespan),
        "completions": {str(j): json_number(c) for j, c in sorted(trace.completions.items())},
        "group_completions": [
            [j, g, json_number(c)] for (j, g), c in sorted(trace.group_completions.items())
        ],
    }
    fh.write(json.dumps(summary) + "\n")
