"""Problem instances: machine speed classes, multi-task jobs, validation.

Machines are given as speed classes (speed, count) with strictly decreasing
speeds; individual machine ids are 1..m in that order. Jobs own bags of
tasks; equal-size tasks are stored as groups since every alive task of a job
is always driven at the same rate and equal sizes finish together. Group
counts may be huge (1e9), so nothing here ever expands groups.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

from .numutil import coerce, is_exact, json_number, leq

SPEED_BASE = 64  # speed rounding base; only this value is certified


class InstanceError(ValueError):
    """Raised for malformed or unsupported instance data."""


@dataclass(frozen=True)
class SpeedClass:
    speed: object  # sigma_l, strictly decreasing across classes
    count: int     # m_l >= 1

    def capacity(self):
        return self.speed * self.count


@dataclass(frozen=True)
class TaskGroup:
    size: object  # processing requirement of each task, >= 0
    count: int    # number of identical tasks, >= 1


@dataclass(frozen=True)
class Job:
    job_id: int            # 1-based, contiguous
    weight: object         # > 0
    release: object        # stored; certificates require 0
    groups: tuple          # TaskGroup, strictly descending size

    def task_count(self) -> int:
        return sum(g.count for g in self.groups)


@dataclass(frozen=True)
class IcaBoundary:
    index: int          # boundary between class index and index+1 (1-based)
    speed_ratio_ok: bool
    capacity_ok: bool


@dataclass(frozen=True)
class IcaReport:
    ok: bool
    boundaries: tuple


@dataclass(frozen=True)
class ClassThresholds:
    """Derived machine-count thresholds for one class boundary l | l+1."""

    index: int       # l, 1-based
    m_blend: object  # (sum_{i<=l} m_i sigma_i) / sigma_{l+1}


@dataclass(frozen=True)
class Instance:
    classes: tuple          # SpeedClass, speeds strictly decreasing
    jobs: tuple             # Job
    speedup: object         # gamma >= 1 multiplying every machine speed
    exact: bool = False

    # ---- machine helpers -------------------------------------------------
    @cached_property
    def class_prefix_counts(self) -> tuple:
        """Cumulative machine counts (M_0=0, M_1, .., M_K)."""
        out = [0]
        for c in self.classes:
            out.append(out[-1] + c.count)
        return tuple(out)

    @cached_property
    def class_prefix_capacities(self) -> tuple:
        """Cumulative class capacities (S(M_0)=0, S(M_1), .., S(M_K))."""
        zero = coerce(0, self.exact)
        out = [zero]
        for c in self.classes:
            out.append(out[-1] + c.capacity())
        return tuple(out)

    def machine_count(self) -> int:
        return self.class_prefix_counts[-1]

    @cached_property
    def _capacity_memo(self) -> dict:
        """k -> capacity_prefix(k), one entry per k asked for."""
        return {}

    def capacity_prefix(self, k: int):
        """Total speed of the k fastest machines (flat beyond the last one).

        The speedup factor is not applied here. Each k is computed once and
        memoized; no class is ever expanded.
        """
        memo = self._capacity_memo
        value = memo.get(k)
        if value is not None:
            return value
        if not k >= 0:
            raise AssertionError(f"capacity_prefix of {k} machines")
        counts = self.class_prefix_counts
        if k >= counts[-1]:
            value = self.class_prefix_capacities[-1]
        else:
            # the class containing machine index k: the first li with k <= M_{li+1}
            li = bisect_left(counts, k, 1) - 1
            value = self.class_prefix_capacities[li] + (k - counts[li]) * self.classes[li].speed
        memo[k] = value
        return value

    def machine_speed(self, i: int):
        """Speed of machine i, for 1 <= i <= machine_count(), without the
        speedup. Its class is found by bisection, so no class is expanded.

        >>> make_instance([(4, 2), (1, 3)], []).machine_speed(3)
        1.0
        """
        return self.classes[bisect_left(self.class_prefix_counts, i, 1) - 1].speed

    def machine_speeds(self, upto: int) -> list:
        """Speeds of machines 1..upto, fastest first, without the speedup.

        >>> make_instance([(4, 2), (1, 3)], []).machine_speeds(4)
        [4.0, 4.0, 1.0, 1.0]
        """
        out = []
        for c in self.classes:
            out.extend([c.speed] * min(c.count, upto - len(out)))
        return out

    def task_count(self) -> int:
        return sum(j.task_count() for j in self.jobs)

    def has_releases(self) -> bool:
        return any(j.release != 0 for j in self.jobs)


def _finite(value, what, exact):
    """`value` in the mode: the one check of an instance number. Refuses a
    bool, anything else that is not a number, the NaN and inf that json and
    float() read, and in float mode a value past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InstanceError(f"{what} must be a number, got {value!r}")
    if value != value or abs(value) == math.inf:
        raise InstanceError(f"{what} must be finite, got {value}")
    try:
        return coerce(value, exact)
    except OverflowError:
        raise InstanceError(
            f"{what} is too large for a float; rerun with --exact") from None


def _speedup(gamma, exact):
    gamma = _finite(gamma, "speedup", exact)
    if not gamma > 0:
        raise InstanceError(f"speedup must be positive, got {gamma}")
    return gamma


def _count(count, what, exact):
    """A task or class count as an int; anything but a whole number >= 1
    is refused, never truncated, and so is a count past the float range in
    float mode."""
    try:
        whole = not isinstance(count, bool) and count == int(count)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and count >= 1):
        raise InstanceError(f"{what} must be a whole number >= 1, got {count!r}")
    if not exact:
        _finite(count, what, exact)
    return int(count)


def _group_sizes(job_id, weight, release, size_counts):
    if weight <= 0:
        raise InstanceError(f"job {job_id}: weight must be positive, got {weight}")
    merged = {}
    for size, count in size_counts:
        if size < 0:
            raise InstanceError(f"job {job_id}: negative task size {size}")
        merged[size] = merged.get(size, 0) + count
    if not merged:
        raise InstanceError(f"job {job_id}: needs at least one task")
    groups = tuple(
        TaskGroup(size=s, count=c) for s, c in sorted(merged.items(), reverse=True)
    )
    return Job(job_id=job_id, weight=weight, release=release, groups=groups)


def make_job(job_id, weight, sizes, release=0, exact=False):
    """Build a job from a flat size list or (size, count) pairs."""
    weight = _finite(weight, f"job {job_id}: weight", exact)
    release = _finite(release, f"job {job_id}: release", exact)
    pairs = []
    for entry in sizes:
        size, count = entry if isinstance(entry, tuple) else (entry, 1)
        pairs.append((_finite(size, f"job {job_id}: task size", exact),
                      _count(count, f"job {job_id}: task count", exact)))
    return _group_sizes(job_id, weight, release, pairs)


def make_instance(classes, jobs, speedup=1, exact=False):
    pairs = [
        (c.speed, c.count) if isinstance(c, SpeedClass) else c for c in classes
    ]
    cls = tuple(
        SpeedClass(speed=_finite(s, "speed", exact), count=_count(c, "class count", exact))
        for s, c in pairs
    )
    if not cls:
        raise InstanceError("instance needs at least one speed class")
    for c in cls:
        if c.speed <= 0:
            raise InstanceError(f"speed must be positive, got {c.speed}")
    for a, b in zip(cls, cls[1:]):
        if not a.speed > b.speed:
            raise InstanceError("class speeds must be strictly decreasing")
    jobs = tuple(jobs)
    for position, job in enumerate(jobs, start=1):
        # the package finds job j at jobs[j - 1]; 1.0 and True are not 1
        if type(job.job_id) is not int or job.job_id != position:
            raise InstanceError(
                f"job {position} of the list has id {job.job_id}; "
                f"ids must be 1..{len(jobs)} in list order"
            )
        # a job in the other mode would mix Fractions and floats in sums
        fields = [("weight", job.weight), ("release", job.release)]
        fields += [("task size", g.size) for g in job.groups]
        for what, value in fields:
            if is_exact(value) != exact:
                raise InstanceError(
                    f"job {job.job_id}: {what} {value!r} is "
                    + ("a float in an exact" if exact else "exact in a float")
                    + " instance"
                )
    if not exact:  # the float rate code takes sums of task counts
        _finite(sum(job.task_count() for job in jobs), "total task count", exact)
    return Instance(
        classes=cls,
        jobs=jobs,
        speedup=_speedup(speedup, exact),
        exact=exact,
    )


def with_speedup(instance: Instance, gamma) -> Instance:
    return replace(instance, speedup=_speedup(gamma, instance.exact))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def instance_to_dict(instance: Instance) -> dict:
    jobs = []
    for j in instance.jobs:
        sizes = []
        for g in j.groups:
            if g.count == 1:
                sizes.append(json_number(g.size))
            else:
                sizes.append({"size": json_number(g.size), "count": g.count})
        jobs.append(
            {
                "weight": json_number(j.weight),
                "release": json_number(j.release),
                "sizes": sizes,
            }
        )
    return {
        "classes": [
            {"sigma": json_number(c.speed), "count": c.count} for c in instance.classes
        ],
        "jobs": jobs,
        "speedup": json_number(instance.speedup),
    }


def _json(value, kind, what):
    """`value`, refused unless it is a JSON object (kind dict) or list."""
    if type(value) is not kind:
        name = "object" if kind is dict else "list"
        raise InstanceError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def _key(obj, key, what):
    if key not in obj:
        raise InstanceError(f"{what} has no {key!r}")
    return obj[key]


def instance_from_dict(data: dict, exact: bool = False) -> Instance:
    """The instance of a JSON document. Only the document's shape is checked
    here, naming the field; make_job and make_instance check each number and
    count. A number may be written {"num": n, "den": d}, for n/d with int n
    and d and d != 0; any other object is left for _finite to refuse."""
    def number(x):
        if (type(x) is dict and x.keys() == {"num", "den"}
                and type(x["num"]) is type(x["den"]) is int and x["den"]):
            return coerce(x["num"], True) / x["den"]
        return x

    _json(data, dict, "instance")
    classes = []
    for idx, c in enumerate(_json(_key(data, "classes", "instance"), list, "classes"), 1):
        what = f"class {idx}"
        _json(c, dict, what)
        classes.append((number(_key(c, "sigma", what)), _key(c, "count", what)))
    jobs = []
    for idx, j in enumerate(_json(data.get("jobs", []), list, "jobs"), start=1):
        what = f"job {idx}"
        _json(j, dict, what)
        pairs = []
        for entry in _json(_key(j, "sizes", what), list, f"{what}: sizes"):
            if type(entry) is dict and "size" in entry:
                pairs.append((number(entry["size"]), _key(entry, "count", f"{what}: size entry")))
            else:
                pairs.append((number(entry), 1))
        jobs.append(make_job(idx, number(_key(j, "weight", what)), pairs,
                             release=number(j.get("release", 0)), exact=exact))
    return make_instance(classes, jobs, speedup=number(data.get("speedup", 1)), exact=exact)


# ---------------------------------------------------------------------------
# Preprocessing: rounding and capacity-based class selection
# ---------------------------------------------------------------------------

def round_speeds(speed_counts):
    """Round each speed down to the largest power of SPEED_BASE not above it.

    Takes (speed, machine count) pairs, so a class is rounded once whatever
    its count. Returns merged SpeedClass entries sorted by decreasing speed.

    >>> [(c.speed, c.count) for c in round_speeds([(5000, 1), (64, 2), (3, 1), (0.9, 1)])]
    [(4096, 1), (64, 2), (1, 1), (0.015625, 1)]
    """
    pairs = list(speed_counts)
    if not pairs:
        raise InstanceError("round_speeds: empty speed list")
    counts = {}
    for s, n in pairs:
        if s <= 0:
            raise InstanceError(f"round_speeds: non-positive speed {s}")
        k = 0
        while SPEED_BASE ** (k + 1) <= s:
            k += 1
        while SPEED_BASE ** k > s:
            k -= 1
        counts[k] = counts.get(k, 0) + n
    return [
        SpeedClass(speed=SPEED_BASE ** k, count=n)
        for k, n in sorted(counts.items(), reverse=True)
    ]


def select_capacity_classes(classes):
    """Greedy subset whose class capacities grow by at least 2*SPEED_BASE.

    Scans from the fastest class; a class is kept when its capacity is at
    least 2*SPEED_BASE times the capacity of the previously kept class. Kept
    counts are then inflated by the number K of kept classes, which
    restores the cumulative capacity condition.

    Returns (kept_indices, inflated_classes); indices are 1-based positions
    into the input list.

    >>> cl = [SpeedClass(4096, 1), SpeedClass(64, 100), SpeedClass(1, 2**20)]
    >>> kept, out = select_capacity_classes(cl)
    >>> kept
    (1, 3)
    >>> [(c.speed, c.count) for c in out]
    [(4096, 2), (1, 2097152)]
    """
    classes = list(classes)
    if not classes:
        raise InstanceError("select_capacity_classes: no classes")
    for a, b in zip(classes, classes[1:]):
        if not a.speed > b.speed:
            raise InstanceError("select_capacity_classes: speeds must decrease")
    kept = [0]
    for idx in range(1, len(classes)):
        if classes[idx].capacity() >= 2 * SPEED_BASE * classes[kept[-1]].capacity():
            kept.append(idx)
    k = len(kept)
    inflated = [
        SpeedClass(speed=classes[i].speed, count=classes[i].count * k) for i in kept
    ]
    return tuple(i + 1 for i in kept), inflated


def preprocess_raw_speeds(raw_speeds):
    """Full pipeline: round speeds, select classes, inflate counts.

    Returns (classes, provenance) where provenance records what happened.
    """
    raw = list(raw_speeds)
    rounded = round_speeds((s, 1) for s in raw)
    kept, inflated = select_capacity_classes(rounded)
    provenance = {
        "raw_count": len(raw),
        "rounded": [(float(c.speed), c.count) for c in rounded],
        "kept_indices": list(kept),
        "inflation": len(kept),
    }
    return inflated, provenance


# ---------------------------------------------------------------------------
# Capacity validation and thresholds
# ---------------------------------------------------------------------------

def validate_ica(instance: Instance) -> IcaReport:
    """Check the capacity growth conditions at every class boundary.

    Boundary l (between class l and l+1) requires
      sigma_l / sigma_{l+1} >= SPEED_BASE, and
      m_{l+1} sigma_{l+1} >= 2 * S(M_l),
    with S(M_l) = sum_{l' <= l} m_{l'} sigma_{l'} read off
    class_prefix_capacities.
    """
    classes, caps = instance.classes, instance.class_prefix_capacities
    boundaries = tuple(
        IcaBoundary(index=li,
                    speed_ratio_ok=bool(leq(SPEED_BASE * c.speed, classes[li - 1].speed)),
                    capacity_ok=bool(leq(2 * caps[li], c.capacity())))
        for li, c in enumerate(classes[1:], start=1)
    )
    ok = all(b.speed_ratio_ok and b.capacity_ok for b in boundaries)
    return IcaReport(ok=ok, boundaries=boundaries)


def thresholds(instance: Instance):
    """Machine-count thresholds per class boundary, used by certificates.

    For l = 1..K-1, m_blend_l = S(M_l) / sigma_{l+1}, with S(M_l) =
    sum_{i<=l} m_i sigma_i read off class_prefix_capacities. Requires the
    capacity conditions; with m_prefix_l = sum_{i<=l} m_i
    (class_prefix_counts) and m_reach_l = m_prefix_l + m_blend_l, checks
    the derived facts
      2*m_blend_l <= m_{l+1},  m_reach_l >= 2*m_prefix_l,
      m_l sigma_l >= m_blend_l sigma_{l+1} / 2,  m_blend_l >= 2*m_l.
    """
    report = validate_ica(instance)
    if not report.ok:
        raise InstanceError("thresholds require the capacity growth conditions")
    out = []
    for li in range(len(instance.classes) - 1):
        cur = instance.classes[li]
        nxt = instance.classes[li + 1]
        m_blend = instance.class_prefix_capacities[li + 1] / nxt.speed
        m_prefix = instance.class_prefix_counts[li + 1]
        m_reach = m_prefix + m_blend
        if not leq(2 * m_blend, nxt.count):
            raise AssertionError(f"boundary {li + 1}: 2*{m_blend} > m_{li + 2} = {nxt.count}")
        if not leq(2 * m_prefix, m_reach):
            raise AssertionError(f"boundary {li + 1}: m_reach {m_reach} < 2*{m_prefix}")
        if not leq(m_blend * nxt.speed / 2, cur.capacity()):
            raise AssertionError(f"boundary {li + 1}: class capacity below m_blend sigma / 2")
        if not leq(2 * cur.count, m_blend):
            raise AssertionError(f"boundary {li + 1}: m_blend {m_blend} < 2*{cur.count}")
        out.append(ClassThresholds(index=li + 1, m_blend=m_blend))
    return out
