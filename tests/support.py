"""Shared builders and threshold formulas for the test suite."""

import math
import random

from bagsched import AliveJob, make_instance, make_job


def classes_of(instance):
    return [(c.speed, c.count) for c in instance.classes]


def weaker_gamma(instance):
    """Speedup threshold of the spread-weight certificate family."""
    n = instance.task_count()
    k = len(instance.classes)
    return 2.0 * max(k, math.log2(n) if n > 1 else 0.0)


def lp_of(instance):
    """The instance as the LP oracle's plain classes and jobs."""
    classes = [(float(c.speed), c.count) for c in instance.classes]
    jobs = [(float(j.weight), [float(g.size) for g in j.groups for _ in range(g.count)])
            for j in instance.jobs]
    return classes, jobs


def general_gamma(k):
    """Speedup threshold of the general certificate family."""
    return 1024.0 * k * max(math.log2(k), 1.0)


def single_gamma(k):
    """Speedup threshold of the single-job certificate family."""
    return 2.0 * k


def alive_instance(classes, gamma=1.0, exact=False):
    """Instance used as the machine context for a bare rate assignment."""
    job = make_job(1, 1, [1], exact=exact)
    return make_instance(classes, [job], speedup=gamma, exact=exact)


def random_alive_case(rng):
    """Random (alive jobs, classes, gamma) with <= 12 tasks, <= 5 machines.

    Speeds are arbitrary falling values: the rate assignment does not
    need the capacity assumptions, only strictly decreasing class speeds.
    """
    pool = [4096.0, 100.0, 64.0, 13.0, 8.0, 5.0, 3.0, 2.0, 1.0, 0.5]
    speeds = sorted(rng.sample(pool, rng.randint(1, 4)), reverse=True)
    classes = []
    machines_left = 5
    for i, s in enumerate(speeds):
        hi = machines_left - (len(speeds) - 1 - i)
        cnt = rng.randint(1, max(1, hi))
        classes.append((s, cnt))
        machines_left -= cnt
        if machines_left <= 0:
            classes.extend((sp, 1) for sp in speeds[i + 1:])
            break
    classes = classes[: len(speeds)]

    alive = []
    tasks_left = 12
    for j in range(rng.randint(1, 4)):
        if tasks_left <= 0:
            break
        cnt = rng.randint(1, min(6, tasks_left))
        tasks_left -= cnt
        weight = rng.choice([1.0, 2.0, round(rng.uniform(0.1, 9.0), 3)])
        alive.append((j + 1, weight, cnt))
    gamma = rng.choice([1.0, 2.0, 3.5, 7.0])
    return alive, classes, gamma


def random_lp_instance(rng, machines_max=3, tasks_max=5):
    """Tiny integer instance inside the brute-force search caps."""
    m = rng.randint(1, machines_max)
    speeds = sorted(rng.sample([4, 3, 2, 1], m), reverse=True)
    classes = [(s, 1) for s in speeds]
    jobs = []
    tasks_left = rng.randint(1, tasks_max)
    jid = 0
    while tasks_left > 0:
        jid += 1
        cnt = rng.randint(1, tasks_left)
        tasks_left -= cnt
        sizes = [rng.randint(1, 4) for _ in range(cnt)]
        jobs.append(make_job(jid, rng.randint(1, 3), sizes))
    return make_instance(classes, jobs)


def single_machine_chain_instance(rng, tasks_max=5):
    """Single unit machine, single-task jobs: optimum known in closed form."""
    n = rng.randint(1, tasks_max)
    jobs = [
        make_job(j + 1, rng.randint(1, 3), [rng.randint(1, 4)])
        for j in range(n)
    ]
    return make_instance([(1, 1)], jobs)


def alive_jobs(alive):
    return [AliveJob(job_id, weight, count) for job_id, weight, count in alive]
