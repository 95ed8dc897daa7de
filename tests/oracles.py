"""Independent reference routines used to cross-check the package.

Everything in this file recomputes results from first principles with its
own arithmetic: no imports from bagsched. The implementations favour
directness over speed (bisection, brute-force subset scans, fixed-step
time discretization) so that agreement with the production code is
evidence rather than tautology.

Conventions match the package: machine classes are (speed, count) pairs
sorted by strictly decreasing speed, alive jobs are (job_id, weight,
task_count) triples, and a speedup factor scales every machine.
"""

import itertools
from fractions import Fraction

TIGHT_REL = 1e-9


def prefix_capacity(classes, k):
    """Total speed of the k fastest machines, flat once machines run out.

    >>> prefix_capacity([(4, 1), (1, 2)], 2)
    5
    >>> prefix_capacity([(4, 1), (1, 2)], 99)
    6
    """
    total = 0
    left = k
    for speed, count in classes:
        take = min(left, count)
        total += take * speed
        left -= take
        if left <= 0:
            break
    return total


def expand_speeds(classes, limit):
    """First `limit` individual machine speeds, fastest first."""
    out = []
    for speed, count in classes:
        for _ in range(min(count, limit - len(out))):
            out.append(speed)
        if len(out) >= limit:
            break
    return out


def sweep_rates(alive, classes, gamma, iters=200):
    """Water-level rate assignment recomputed by bisection.

    Jobs are split into equal-share runs (a run moves as a unit).  The
    level tau is the largest uniform scaling of shares such that every
    run prefix fits into the speedup-scaled capacity it can reach; the
    maximal tight prefix is then frozen at rate share * tau and the
    sweep recurses on the remainder with the consumed machines removed.

    Returns {job_id: per-task rate}.
    """
    shares = []
    for job_id, weight, count in alive:
        assert count > 0 and weight > 0
        shares.append((weight / count, job_id, count))
    shares.sort(key=lambda item: (-item[0], item[1]))

    # group exactly equal shares into atomic runs
    runs = []
    for share, job_id, count in shares:
        if runs and runs[-1][0] == share:
            runs[-1][1] += count
            runs[-1][2].append((job_id, count))
        else:
            runs.append([share, count, [(job_id, count)]])

    rates = {}
    base = 0
    while runs:
        def fits(tau):
            cum_tasks = 0
            cum_share = 0.0
            for share, count, _ in runs:
                cum_tasks += count
                cum_share += share * count
                room = gamma * (prefix_capacity(classes, base + cum_tasks)
                                - prefix_capacity(classes, base))
                if tau * cum_share > room * (1 + 1e-15):
                    return False
            return True

        hi = 1.0
        while fits(hi):
            hi *= 2.0
            assert hi < 1e300, "capacity should bound the level"
        lo = 0.0
        for _ in range(iters):
            mid = (lo + hi) / 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        tau = lo

        cum_tasks = 0
        cum_share = 0.0
        cut = None
        for idx, (share, count, _) in enumerate(runs):
            cum_tasks += count
            cum_share += share * count
            room = gamma * (prefix_capacity(classes, base + cum_tasks)
                            - prefix_capacity(classes, base))
            if tau * cum_share >= room * (1 - TIGHT_REL):
                cut = idx
        assert cut is not None, "level must leave some prefix tight"

        frozen = 0
        for share, count, members in runs[: cut + 1]:
            for job_id, job_count in members:
                rates[job_id] = share * tau
            frozen += count
        base += frozen
        runs = runs[cut + 1:]
    return rates


def subsets_feasible(task_rates, classes, gamma, rel=1e-9):
    """Check every subset of tasks fits the speedup-scaled capacity.

    task_rates is a flat list of per-task rates.  Exponential in the
    task count; callers keep it at a dozen tasks or so.
    """
    n = len(task_rates)
    for size in range(1, n + 1):
        cap = gamma * prefix_capacity(classes, size)
        for combo in itertools.combinations(task_rates, size):
            if sum(combo) > cap * (1 + rel):
                return False
    return True


def step_realize(quotas, classes, gamma, length, steps=4000):
    """Deliver per-task work quotas by discrete greedy time steps.

    Every dt the tasks are ranked by remaining quota (largest first,
    ties by key) and the i-th task runs on the i-th fastest machine.
    Returns {task_key: delivered work}.  The discretization error is
    on the order of dt * gamma * fastest speed per task.
    """
    remaining = dict(quotas)
    delivered = {key: 0.0 for key in remaining}
    speeds = expand_speeds(classes, len(remaining))
    dt = length / steps
    for _ in range(steps):
        ranked = sorted(remaining, key=lambda key: (-remaining[key], key))
        for key, speed in zip(ranked, speeds):
            if remaining[key] <= 0:
                continue
            grab = dt * gamma * speed
            delivered[key] += grab
            remaining[key] -= grab
    return delivered


def doubling_counts(k, base=64):
    """Machine counts (1, m_2, ...) with each class doubling the
    capacity accumulated so far, for speeds base**(k-l).

    >>> doubling_counts(2)
    [1, 128]
    >>> doubling_counts(3)
    [1, 128, 24576]
    """
    speeds = [base ** (k - l) for l in range(1, k + 1)]
    counts = [1]
    cum = speeds[0]
    for l in range(1, k):
        need = 2 * cum
        assert need % speeds[l] == 0
        counts.append(need // speeds[l])
        cum += counts[l] * speeds[l]
    return counts


def staircase_makespan(k, gamma, base=64):
    """Exact makespan of the equal-rate fluid run on the doubling
    staircase: a single job with one task sized to each class speed
    count times.

    All tasks start at the same per-task rate; the smallest class
    finishes first, and each phase q the alive prefix (N_q tasks)
    shares the capacity C_q of the machines it occupies:

        sum_q N_q * (speed_q - speed_{q+1}) / (gamma * C_q)

    >>> staircase_makespan(2, 1)
    Fraction(53, 32)
    """
    gamma = Fraction(gamma)
    speeds = [Fraction(base) ** (k - l) for l in range(1, k + 1)]
    counts = doubling_counts(k, base)
    total = Fraction(0)
    tasks = cap = 0
    for q in range(k):
        tasks += counts[q]
        cap += counts[q] * speeds[q]
        nxt = speeds[q + 1] if q + 1 < k else 0
        total += tasks * (speeds[q] - nxt) / (gamma * cap)
    return total


def wspt_cost(jobs):
    """Optimal weighted completion time on one unit-speed machine for
    single-task jobs: run in nondecreasing size/weight order.

    >>> wspt_cost([(2, 1), (1, 2)])
    5.0
    """
    order = sorted(jobs, key=lambda job: (job[1] / job[0], job[1]))
    t = 0.0
    cost = 0.0
    for weight, size in order:
        t += size
        cost += weight * t
    return cost


if __name__ == "__main__":
    import doctest

    failures, _ = doctest.testmod()
    raise SystemExit(1 if failures else 0)


def unit_slot_lp_solution(classes, jobs, horizon):
    """An optimal solution of the completion-time LP over `horizon` unit
    slots, solved with HiGHS, as (LP*(H), x, U, C), or None when that
    horizon admits no solution. x[i][v][t], U[j][t] and C[j] are lists of
    floats indexed from 0 by machine (fastest first), task of positive size
    (in the order the jobs list them), job and slot.

    This is the LP that bagsched's lp module states, built here from plain
    numbers: classes are (speed, count) pairs at the original speeds (no
    speedup), and jobs are (weight, sizes) pairs listing each job's task
    sizes; a task of size 0 gets no variables or rows. Over machines i,
    tasks v of job j and slots t < H, with x_{ivt}, U_{jt}, C_j >= 0:

        min   sum_j w_j C_j + sum_{j,t} w_j U_{jt}
        s.t.  U_{jt} >= sum_{t' >= t} sum_i x_{ivt'} / p_v      (remaining)
              C_j >= sum_{t,i} x_{ivt} / s_i                    (proc time)
              sum_{i,t} x_{ivt} / p_v >= 1                      (demand)
              sum_v x_{ivt} / s_i <= 1                          (capacity)
              U_{jt} <= 1

    Why a certificate may be judged against any feasible H: a solution
    over H slots is one over H + 1 with the new slot's x and U at 0, so
    LP*(H) never increases with H and never goes below the LP's infimum
    over all horizons. A feasible dual point lower-bounds that infimum, so
    a certificate value <= LP*(H) is necessary at every feasible H, and a
    value above it overclaims.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    speeds = np.array([s for s, c in classes for _ in range(c)], dtype=float)
    tasks = [(j, float(p)) for j, (_, sizes) in enumerate(jobs) for p in sizes if p > 0]
    m, n, h = len(speeds), len(tasks), horizon
    u0 = m * n * h                 # x_{ivt} is column (i*n + v)*h + t
    c0 = u0 + len(jobs) * h        # U_{jt} is u0 + j*h + t, C_j is c0 + j
    machines = np.arange(m) * n * h
    rows, cols, vals, rhs = [], [], [], []

    def add_row(columns, coefs, bound):
        rows.append(np.full(len(columns), len(rhs)))
        cols.append(columns)
        vals.append(coefs)
        rhs.append(bound)

    for v, (j, p) in enumerate(tasks):
        base = machines + v * h
        for t in range(h):
            x = np.add.outer(base, np.arange(t, h)).ravel()
            add_row(np.append(x, u0 + j * h + t),
                    np.append(np.full(len(x), 1 / p), -1.0), 0.0)
        every = np.add.outer(base, np.arange(h))
        add_row(np.append(every.ravel(), c0 + j),
                np.append(np.repeat(1 / speeds, h), -1.0), 0.0)
        add_row(every.ravel(), np.full(every.size, -1 / p), -1.0)
    for i in range(m):
        for t in range(h):
            add_row(machines[i] + np.arange(n) * h + t, np.full(n, 1 / speeds[i]), 1.0)

    cost = np.zeros(c0 + len(jobs))
    for j, (w, _) in enumerate(jobs):
        cost[u0 + j * h:u0 + (j + 1) * h] = w
        cost[c0 + j] = w
    a_ub = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(rhs), len(cost))).tocsr()
    bounds = [(0, None)] * u0 + [(0, 1)] * (len(jobs) * h) + [(0, None)] * len(jobs)
    res = linprog(cost, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS stopped with status {res.status}: {res.message}")
    x = res.x[:u0].reshape(m, n, h).tolist()
    U = res.x[u0:c0].reshape(len(jobs), h).tolist()
    return res.fun, x, U, res.x[c0:].tolist()


def unit_slot_lp_value(classes, jobs, horizon):
    """LP*(H): the optimum of unit_slot_lp_solution's LP, or None when that
    horizon admits no solution."""
    solved = unit_slot_lp_solution(classes, jobs, horizon)
    return None if solved is None else solved[0]
