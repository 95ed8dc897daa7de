"""Instance generators: the linear-in-K lower-bound family, random
capacity-validated workloads, and raw speed profiles for exercising the
preprocessing pipeline.

All randomness flows through SplitMix64 so that a seed pins the instance
bit-for-bit across platforms and languages.
"""
from __future__ import annotations

from .instances import (
    SPEED_BASE,
    Instance,
    InstanceError,
    make_instance,
    make_job,
    validate_ica,
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit mixing generator.

    state += 0x9E3779B97F4A7C15; z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31.

    >>> rng = SplitMix64(0)
    >>> rng.next_u64() == SplitMix64(0).next_u64()
    True
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], via modulo (documented, reproducible)."""
        if not lo <= hi:
            raise AssertionError(f"randint bounds {lo} > {hi}")
        return lo + self.next_u64() % (hi - lo + 1)


def minimal_doubling_counts(k: int):
    """Speeds SPEED_BASE^(K-l) and minimal machine counts with doubling capacity.

    m_1 = 1 and each m_{l+1} is the least count with
    m_{l+1} sigma_{l+1} >= 2 * sum_{l' <= l} m_l' sigma_l' (exact integer
    arithmetic; the division is exact because sigma_{l+1} divides every
    earlier speed).

    >>> minimal_doubling_counts(2)
    ([64, 1], [1, 128])
    >>> minimal_doubling_counts(3)
    ([4096, 64, 1], [1, 128, 24576])
    """
    speeds = [SPEED_BASE ** (k - l) for l in range(1, k + 1)]
    counts = [1]
    cum = speeds[0]
    for l in range(1, k):
        need = 2 * cum
        if need % speeds[l]:
            raise AssertionError(
                f"class {l + 1}: speed {speeds[l]} does not divide {need}"
            )
        counts.append(need // speeds[l])
        cum += counts[l] * speeds[l]
    return speeds, counts


def gen_lower_bound(k: int) -> Instance:
    """One weight-1 job with m_l tasks of size sigma_l per class.

    The offline schedule that pins class-l tasks to class-l machines
    one-to-one finishes everything at time exactly 1; the non-clairvoyant
    scheduler is forced through the classes one size group at a time.
    """
    if not k >= 1:
        raise InstanceError(f"need at least one speed class, got k={k}")
    speeds, counts = minimal_doubling_counts(k)
    job = make_job(
        job_id=1,
        weight=1,
        sizes=[(sigma, m) for sigma, m in zip(speeds, counts)],
        exact=True,
    )
    instance = make_instance(
        classes=zip(speeds, counts),
        jobs=[job],
        speedup=1,
        exact=True,
    )
    if not validate_ica(instance).ok:
        raise AssertionError(f"gen_lower_bound(k={k}) fails the capacity conditions")
    return instance


def gen_random_ica(k: int, jobs: int, max_tasks: int, seed: int) -> Instance:
    """Deterministic random instance whose machine profile validates.

    Machine speeds are base^(K-l); counts start from the minimal doubling
    profile with random slack, then the last class is topped up so the
    machines can host every task at a positive rate simultaneously
    (jobs * max_tasks of them). Job weights are uniform in [1, 10], task
    counts uniform in [1, max_tasks], sizes log-uniform in [1, base^K].
    """
    if not (k >= 1 and jobs >= 1 and max_tasks >= 1 and seed >= 0):
        raise InstanceError(
            f"need k, jobs, max_tasks >= 1 and seed >= 0, got "
            f"k={k} jobs={jobs} max_tasks={max_tasks} seed={seed}"
        )
    rng = SplitMix64(seed)
    speeds = [SPEED_BASE ** (k - l) for l in range(1, k + 1)]
    counts = [rng.randint(1, 3)]
    cum = counts[0] * speeds[0]
    for l in range(1, k):
        minimal = 2 * cum // speeds[l]
        counts.append(minimal + rng.randint(0, max(1, minimal // 8)))
        cum += counts[l] * speeds[l]
    deficit = jobs * max_tasks - sum(counts)
    if deficit > 0:
        counts[-1] += deficit

    job_list = []
    for j in range(jobs):
        n = rng.randint(1, max_tasks)
        sizes = [SPEED_BASE ** (k * rng.random()) for _ in range(n)]
        weight = 1 + 9 * rng.random()
        job_list.append(make_job(job_id=j + 1, weight=weight, sizes=sizes))
    instance = make_instance(
        classes=zip(speeds, counts),
        jobs=job_list,
        speedup=1,
    )
    if not validate_ica(instance).ok:
        raise AssertionError(
            f"gen_random_ica(k={k}, jobs={jobs}, max_tasks={max_tasks}, "
            f"seed={seed}) fails the capacity conditions"
        )
    return instance


def gen_raw_speeds(profile: str, seed: int, count: int | None = None):
    """Raw machine speeds that violate the speed-class assumptions.

    uniform    `count` (default 5) equal speeds; rounding yields a single
               class.
    geometric  ratio-2 ladder of `count` (default 5) speeds; rounding
               collapses runs of six into one power-of-64 class.
    clustered  a tiny fast cluster and a large slow one whose rounded
               capacities differ enough that both survive class selection:
               a fixed shape of 2 fast and 16,500 slow speeds, so it refuses
               a count.
    """
    if profile == "clustered" and count is not None:
        raise InstanceError(
            f"the clustered profile has a fixed shape of 2 fast and 16,500 "
            f"slow speeds and takes no count, got count={count}"
        )
    if count is None:
        count = 5
    if not (count >= 1 and seed >= 0):
        raise InstanceError(
            f"need count >= 1 and seed >= 0, got count={count} seed={seed}"
        )
    rng = SplitMix64(seed)
    if profile == "uniform":
        s = 1 + 99 * rng.random()
        return [s] * count
    if profile == "geometric":
        s0 = 1 + rng.random()
        return [s0 * 2 ** (count - 1 - i) for i in range(count)]
    if profile == "clustered":
        fast = [4096 * (1 + rng.random()) for _ in range(2)]
        slow = [64 * (1 + rng.random() * 0.9) for _ in range(16500)]
        return fast + slow
    raise ValueError(f"unknown speed profile: {profile!r}")
