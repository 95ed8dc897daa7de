"""Primal LP bridge: emit the completion-time LP, embed realized schedules
as feasible primal solutions, and brute-force tiny optima.

The LP over unit slots [t, t+1), machines i, tasks v, jobs j:

    min   sum_j w_j C_j + sum_{j,t} w_j U_{j,t}
    s.t.  U_{j,t} >= sum_{t' >= t} sum_i x_{ivt'} / p_v     (remaining)
          C_j >= sum_{t,i} x_{ivt} / s_i                    (proc time)
          sum_{i,t} x_{ivt} / p_v >= 1                      (demand)
          sum_v x_{ivt} / s_i <= 1                          (capacity)

The LP models the tasks of positive size, and task_table alone lists
them. Tasks are numbered 1, 2, ... over all tasks in job order, each job's
groups in descending size order; a zero-size task keeps its number but gets
no variables or rows, and its group is never expanded.

Any schedule embeds with objective in [cost, 2*cost]; the emitted file uses
the original machine speeds (the bound is about the adversary's machines),
while schedule embedding uses the speeds that actually ran the schedule.
One scan, _violated_rows, evaluates these four families and then the
bounds x >= 0, 0 <= U <= 1 and C >= 0 for both check_lp_solution (ingested
unit-slot solutions, at SOLVER_REL) and check_primal (embedded schedules on
their slot grid, at REL_TOL). A machine's rate, gamma * sigma_i, comes from
the instance: gamma is 1 for the emitted LP and instance.speedup for an
embedding.

Errors: every x, U and C key is checked in the one loop that reads it.
_read, the one reader of x and U, checks each x entry's slot (an int >=
0), task (an int the table lists) and machine (an int in 1..m) at the
entry itself, so the first bad key in x's order is the one reported; U's
and C's job ids must be ints of the instance. check_lp_solution returns
every violated row, then every broken bound: x, U, then C. check_primal
raises at its first violation in one order: x keys, U keys, C keys;
rows; bounds, x then U then C, as "x_i_v_t is negative", "U_j_t is
negative", "U_j_t exceeds 1" or "C_j is negative"; each job's Riemann
sum; the objective sandwich; then the stored cost and objective.
schedule_to_primal checks a slice list in time order, as pass A reads
each segment, so of faults in several segments the earliest in time is
the one reported. The LP text holds floats, so emit_lp,
check_lp_solution and solution_objective refuse a value that does not
fit one.

Cost: schedule_to_primal never reads back the x and U it writes. It keeps
the ledger of its check (_Ledger) as it writes them: x summed by machine
and slot and by task as machine time, and each task's remaining share by
slot, in x's order as _read sums it, and U's per-job columns, sums and
weighted sum. Entries that only one segment writes are summed as written,
one machine sum per piece shared by its tasks; the entries of a slot that
several segments write are summed after pass B, in x's order. check_primal
on its own and check_lp_solution build the same ledger through _read, in
one pass over x and one over U. Past that, U and the rem rows take a
constant amount of work per cell of the task-by-slot grid, and the cap
rows per cell of the machine-by-slot grid. Machine speeds are looked up
per machine by class, so a class of 10^9 machines is never expanded, and
with no task of positive size no machine is visited at all.

The "LP lower bound" reported elsewhere is (feasible dual value)/2, since
the objective double-counts completion time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, permutations, repeat
from math import inf, isfinite, nan
from operator import add, le, mul, truediv

from .instances import Instance
from .numutil import REL_TOL, SOLVER_REL, close, coerce, leq, scaled_tol, to_float
from .report import require_own_trace
from .sim import realize_slice

MAX_EMIT_TERMS = 1_000_000     # x terms in the rows of an emitted LP
LP_LINE_WIDTH = 500           # emit_lp breaks longer rows
MAX_PRIMAL_ENTRIES = 2_000_000

BRUTE_MAX_MACHINES = 3
BRUTE_MAX_TASKS = 5
BRUTE_MAX_SIZE = 4
BRUTE_MAX_GRID = 4


class LpError(ValueError):
    """Raised for inputs outside the LP bridge's supported shapes."""


def _modelled_groups(instance: Instance):
    """Yield (first task id, job id, group) for each group of positive
    size. Ids count every task, so a zero-size group moves them on without
    being listed or expanded."""
    tid = 1
    for job in instance.jobs:
        for g in job.groups:
            if g.size > 0:
                yield tid, job.job_id, g
            tid += g.count


def task_table(instance: Instance):
    """The tasks the LP models, those of positive size, as (task_id,
    job_id, size). Ids are 1-based over all tasks in job order, each job's
    groups in descending size order; zero-size tasks keep their ids but are
    not listed."""
    return [(v, j, g.size) for first, j, g in _modelled_groups(instance)
            for v in range(first, first + g.count)]


def _positive_task_count(instance: Instance) -> int:
    """len(task_table(instance)), counted from the groups without expanding
    them."""
    return sum(g.count for _, _, g in _modelled_groups(instance))


def _check_lp_size(instance: Instance, horizon: int) -> None:
    """Refuse an LP whose rows hold more than MAX_EMIT_TERMS x terms, before
    any task group is expanded: over H slots, each task's rem rows hold
    m*H*(H+1)/2 of them and its time, done and cap rows 3*m*H."""
    m = instance.machine_count()
    n = _positive_task_count(instance)
    terms = m * n * (horizon * (horizon + 1) // 2 + 3 * horizon)
    if terms > MAX_EMIT_TERMS:
        raise LpError(f"LP too large: {m} machines x {n} tasks x {horizon} slots "
                      f"make {terms} x terms, over {MAX_EMIT_TERMS}")


# ---------------------------------------------------------------------------
# LP text emission and solution ingestion
# ---------------------------------------------------------------------------

def emit_lp(instance: Instance, horizon: int) -> str:
    """Emit the LP over `horizon` unit slots in LP text format.

    Variables are named x_{i}_{v}_{t}, U_{j}_{t}, C_{j}. Machine speeds are
    the original sigma values (no speedup). Only the tasks of task_table
    get variables and constraints. A comment flags a horizon that cannot cover
    even the fluid lower bound total_work / total_capacity. A weight, 1/size
    or 1/speed that does not fit a float raises LpError.
    """
    if horizon < 1:
        raise LpError(f"horizon must be >= 1, got {horizon}")
    _check_lp_size(instance, horizon)
    m = instance.machine_count()
    tasks = task_table(instance)
    # with no task to run, no machine has a capacity row to write
    speeds = instance.machine_speeds(m) if tasks else []
    total_work = sum(p for _, _, p in tasks)
    total_cap = sum(speeds)

    lines = ["\\ completion-time LP for a bag-of-tasks instance"]
    if total_cap > 0 and total_work > horizon * total_cap:
        lines.append(
            "\\ warning: horizon {} below fluid makespan bound {:.6g}".format(
                horizon, to_float(total_work / total_cap)
            )
        )
    lines.append("Minimize")
    terms = []
    for job in instance.jobs:
        w = _num(job.weight, f"job {job.job_id}: weight")
        terms.append(f"{w} C_{job.job_id}")
        for t in range(horizon):
            terms.append(f"{w} U_{job.job_id}_{t}")
    lines.append(_wrap(" obj: " + " + ".join(terms)))
    lines.append("Subject To")

    per_speed = [_num(1 / sp, f"machine {i}: 1/speed") for i, sp in enumerate(speeds, 1)]
    for v, j, p in tasks:
        per_size = _num(1 / p, f"task {v}: 1/size")
        for t in range(horizon):
            parts = [f"U_{j}_{t}"]
            for tp in range(t, horizon):
                for i in range(1, m + 1):
                    parts.append(f"- {per_size} x_{i}_{v}_{tp}")
            lines.append(_wrap(f" rem_{j}_{v}_{t}: " + " ".join(parts) + " >= 0"))
        parts = [f"C_{j}"]
        for t in range(horizon):
            for i in range(1, m + 1):
                parts.append(f"- {per_speed[i - 1]} x_{i}_{v}_{t}")
        lines.append(_wrap(f" time_{j}_{v}: " + " ".join(parts) + " >= 0"))
        parts = []
        for t in range(horizon):
            for i in range(1, m + 1):
                parts.append(f"{per_size} x_{i}_{v}_{t}")
        lines.append(_wrap(f" done_{j}_{v}: " + " + ".join(parts) + " >= 1"))
    for i, inverse in enumerate(per_speed, 1):
        for t in range(horizon):
            parts = [f"{inverse} x_{i}_{v}_{t}" for v, _, _ in tasks]
            lines.append(_wrap(f" cap_{i}_{t}: " + " + ".join(parts) + " <= 1"))

    lines.append("Bounds")
    for job in instance.jobs:
        for t in range(horizon):
            lines.append(f" 0 <= U_{job.job_id}_{t} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _float(value, what) -> float:
    """float(value), or LpError naming `what` when the value does not fit a
    float: past its range, or not zero and rounding to 0."""
    f = to_float(value)
    if abs(f) == inf or (f == 0) != (value == 0):
        raise LpError(f"{what} does not fit a float, and the LP text holds floats")
    return f


def _num(value, what) -> str:
    return repr(_float(value, what))


def _wrap(row: str) -> str:
    """A whole row, name included, broken at spaces into lines of at most
    LP_LINE_WIDTH characters; continuation lines are indented by three
    spaces."""
    if len(row) <= LP_LINE_WIDTH:
        return row
    out = []
    line, *tokens = row.split(" ")
    for tok in tokens:
        if len(line) + 1 + len(tok) > LP_LINE_WIDTH:
            out.append(line)
            line = "   " + tok
        else:
            line = line + " " + tok
    out.append(line)
    return "\n".join(out)


def parse_lp_solution(text: str) -> dict:
    """Parse whitespace-separated name/value pairs into a dict.

    Lines starting with # or \\ are comments; blank lines are skipped. Any
    other line that is not a name and a finite number raises LpError.

    >>> parse_lp_solution("x_1_1_0 1.0\\nC_1 1.0\\n")
    {'x_1_1_0': 1.0, 'C_1': 1.0}
    """
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        try:
            name, word = line.split()
            value = float(word)
        except ValueError:  # not two fields, or not a number
            value = nan
        if not isfinite(value):
            raise LpError(f"bad solution line: {line!r}")
        values[name] = value
    return values


def solution_objective(instance: Instance, values: dict, horizon: int) -> float:
    """Objective of an ingested LP solution (missing variables are 0). A
    weight that does not fit a float raises LpError."""
    total = 0.0
    for job in instance.jobs:
        w = _float(job.weight, f"job {job.job_id}: weight")
        total += w * values.get(f"C_{job.job_id}", 0.0)
        for t in range(horizon):
            total += w * values.get(f"U_{job.job_id}_{t}", 0.0)
    return total


def check_lp_solution(instance: Instance, values: dict, horizon: int) -> list:
    """Re-evaluate the emitted LP's rows and bounds on an ingested solution.

    Returns what _violated_rows finds beyond SOLVER_REL slack: the
    violated (constraint_name, lhs, rhs) rows, then each broken bound,
    named after its variable with the value as lhs and the bound as rhs:
    x >= 0 in x's order (machine, task, slot), then 0 <= U <= 1 (job,
    slot), then C >= 0 (job). Values named after no variable of the emitted
    LP are ignored. Uses the same original speeds and float coefficients as
    emit_lp, and refuses the LPs that emit_lp refuses as too large, and a
    size, speed or weight that does not fit a float.
    """
    _check_lp_size(instance, horizon)
    table = [(v, j, _float(p, f"task {v}: size")) for v, j, p in task_table(instance)]
    weights = {job.job_id: _float(job.weight, f"job {job.job_id}: weight")
               for job in instance.jobs}
    machines = range(1, instance.machine_count() + 1) if table else ()
    for k, c in enumerate(instance.classes if table else (), 1):
        _float(c.speed, f"class {k}: speed")

    def pick(variables):  # {key: value} of the (name, key) pairs that are set
        return {key: values[name] for name, key in variables if name in values}

    x = pick((f"x_{i}_{v}_{t}", (i, v, t)) for i in machines
             for v, _, _ in table for t in range(horizon))
    U = pick((f"U_{j}_{t}", (j, t)) for j in weights for t in range(horizon))
    C = pick((f"C_{j}", j) for j in weights)
    led = _read(x, U, instance, table, weights, 1.0, 0.0, horizon)
    return list(_violated_rows(table, led, C, 1.0, SOLVER_REL))


@dataclass
class _Ledger:
    """What the LP's rows and bounds need of x and U. schedule_to_primal
    keeps it as it writes them; check_primal and check_lp_solution build it
    by reading them once, through _read. Every slot list runs from the top
    slot down to 0."""

    load: dict      # machine -> {slot: amount over all tasks}
    spent: dict     # each table task -> machine time, amount / rate summed
    rate: dict      # machine -> its rate, gamma * sigma_i
    negative: list  # (machine, task, slot, amount) of x's negative amounts
    fracs: list     # each table task's _remaining
    cols: dict      # each table job -> its U, a missing one being 0
    u_out: list     # (job, slot, U) of U outside [0, 1], in U's order
    u_sum: dict     # each job -> its U summed in U's order
    u_cost: object  # sum w_j U_{j,t}, in U's order


def _read(x, U, instance, table, weights, gamma, zero, horizon) -> _Ledger:
    """The ledger of the point (x, U), from one pass over x and one over U,
    each checking every key at its own entry and raising LpError at the
    first bad one. An x key's slot must be an int >= 0, its task an int of
    the table, its machine an int in 1..m of the instance, whose rate
    gamma * sigma_i is looked up once per distinct id; the pass notes each
    negative amount and sums the amounts by task and slot, by machine and
    slot, and by task as machine time, from the typed zero. A U key must
    be an int slot >= 0 and an int job of `weights`; the pass notes each
    value outside [0, 1] and sums each job's U, and w_j U. All sums are in
    x's and U's orders. The slot lists cover the horizon, or up to the
    highest slot that x or U names if that is higher."""
    grid = {v: {} for v, _, _ in table}
    load = {}
    spent = dict.fromkeys(grid, zero)
    rate, negative = {}, []
    seen = object()  # the machine of the entry before, whose load row is `mine`
    for (i, v, t), amt in x.items():
        if type(t) is not int or t < 0:
            raise LpError(f"x names slot {t}: no slot {t}")
        if type(v) is not int or v not in grid:
            raise LpError(f"x names task {v}: no task {v}")
        if i is not seen:  # x runs machine by machine; 1.0 and True are not 1
            r = rate.get(i) if type(i) is int else None
            if r is None:
                if type(i) is not int or not 1 <= i <= instance.machine_count():
                    raise LpError(f"x names machine {i}: no machine {i}")
                r = rate[i] = gamma * instance.machine_speed(i)
                load[i] = {}
            seen, mine = i, load[i]
        if amt < zero:
            negative.append((i, v, t, amt))
        row = grid[v]
        row[t] = row[t] + amt if t in row else zero + amt
        mine[t] = mine[t] + amt if t in mine else zero + amt
        spent[v] += amt / r
    one = zero + 1
    last = max(horizon - 1, max(map(max, load.values()), default=-1))
    u_sum = dict.fromkeys(weights, 0)
    u_cost = zero
    u_out = []
    for (j, s), u in U.items():
        if type(s) is not int or s < 0 or type(j) is not int or j not in weights:
            raise LpError(f"U_{j}_{s} names no LP variable")
        if s > last:
            last = s
        if not zero <= u <= one:  # a float compares fastest with a float
            u_out.append((j, s, u))
        u_sum[j] += u
        u_cost = u_cost + weights[j] * u
    slots = range(last, -1, -1)
    fracs = [_remaining(grid[v], p, zero, last + 1) for v, _, p in table]
    cols = {j: list(map(U.get, zip(repeat(j), slots), repeat(zero)))
            for j in dict.fromkeys(j for _, j, _ in table)}
    return _Ledger(load, spent, rate, negative, fracs, cols, u_out, u_sum, u_cost)


def _violated_rows(table, led, C, slot, rel):
    """Yield each violated row of the LP on slots of length `slot` as
    (name, lhs, rhs), named and ordered as emit_lp writes them: per task
    of the table rem_j_v_t (t descending), time_j_v and done_j_v, then
    cap_i_t. Then each broken bound as (variable, value, bound): x >= 0
    over led.negative, in x's order; 0 <= U <= 1 over led.u_out, the U
    values that a plain compare found outside [0, 1]; C >= 0 in C's order.
    Every row and bound is compared by leq at `rel`.

    led is the ledger of x and U; the LP's horizon is the length of its
    slot lists. C maps job, a missing C being 0. Every sum starts at the
    slot's typed zero, so exact values stay exact.
    """
    zero = slot - slot
    one = zero + 1
    spent, rate, cols = led.spent, led.rate, led.cols
    for (v, j, p), fr in zip(table, led.fracs):
        us = cols[j]
        if not all(map(le, fr, us)):  # leq holds wherever <= does
            for t, frac, u in zip(range(len(fr) - 1, -1, -1), fr, us):
                if not (frac <= u or leq(frac, u, rel)):
                    yield f"rem_{j}_{v}_{t}", u, frac
        c, sp = C.get(j, zero), spent.get(v, zero)
        if not leq(sp, c, rel):
            yield f"time_{j}_{v}", c, sp
        frac = fr[-1] if fr else zero  # the whole of task v
        if not leq(one, frac, rel):
            yield f"done_{j}_{v}", frac, one
    # a load at most `bound` passes leq(load, slot, rel) without the call:
    # leq's slack rel * max(|a|, |b|, 1) is at least rel * max(slot, 1),
    # and float rounding is monotone, so slot plus the larger slack rounds
    # to at least `bound` and every row is decided as before. An exact slot
    # gets no slack, as in leq, and neither does a sum that overflows, as
    # leq grants an infinite load none.
    bound = slot + rel * max(slot, 1.0) if type(slot) is float else slot
    if bound == inf:
        bound = slot
    over = []
    for i, row in led.load.items():
        r = rate[i]
        over += [(i, t) for t, amt in row.items()
                 if not (amt / r <= bound or leq(amt / r, slot, rel))]
    over.sort()
    for i, t in over:
        yield f"cap_{i}_{t}", led.load[i][t] / rate[i], slot
    for i, v, t, amt in led.negative:
        if not leq(zero, amt, rel):
            yield f"x_{i}_{v}_{t}", amt, zero
    for j, t, u in led.u_out:
        if not (leq(zero, u, rel) and leq(u, one, rel)):
            yield f"U_{j}_{t}", u, zero if u < zero else one
    for j, c in C.items():
        if not leq(zero, c, rel):
            yield f"C_{j}", c, zero


def _remaining(row, p, zero, horizon):
    """The share of a task of size p still to run at each slot from
    horizon - 1 down to 0: the running sum of its row from the top slot
    down, over p. An empty slot adds the typed zero, as the LP's suffix sum
    does; above the row's last slot (all of its slots lie below horizon)
    that sum stays the typed zero and needs no additions."""
    last = max(max(row, default=-1), -1)
    return [zero / p] * (horizon - 1 - last) + list(map(
        truediv, accumulate(map(row.get, range(last, -1, -1), repeat(zero))),
        repeat(p)))


# ---------------------------------------------------------------------------
# schedule embedding
# ---------------------------------------------------------------------------

@dataclass
class PrimalSolution:
    """A feasible point of the LP, on a grid of `slot`-length slots.

    x maps (machine, task, slot) to processing amount; U maps (job, slot)
    to the remaining fraction bound; C maps job to completion time. The
    machine rates are the instance's, at its speedup, and are not stored
    here. The slot scales the capacity constraint (sum_v x/s_i <= slot) and
    the U-term of the objective (cost_u = slot * sum w_j U_{j,t}).
    """

    slot: object
    x: dict
    U: dict
    C: dict
    cost: object        # sum_j w_j C_j of the embedded schedule
    objective: object   # cost + slot * sum w U


def schedule_to_primal(source, instance: Instance, slot=None) -> PrimalSolution:
    """Embed a realized schedule as an LP solution with objective <= 2*cost.

    `source` is a Trace of `instance` (each interval gets realized; a
    trace of another instance raises report.AnalysisError) or a list of
    ScheduleSlices covering [0, makespan); either ran at instance.speedup.
    A slice list is checked in time order, as pass A reads each segment,
    and LpError names the first fault read: a segment must start at time 0
    or later, and each pool must hold >= 1 task at a rate >= 0, on no
    machines or on machines in 1..m, and its members >= 1 task each of a
    job of the instance that no other pool of the segment holds.
    x spreads each rate pool uniformly over its machine span; U is the
    minimal feasible remaining fraction; the slot defaults to half the
    smallest per-job gap between completion time and the area under its U
    curve, which keeps the left-Riemann U sum below C_j per job. All four
    constraint families and both objective bounds are checked before
    returning (LpError otherwise).
    Each task of positive size needs an x entry, so an instance with more
    such tasks than MAX_PRIMAL_ENTRIES is refused before anything is
    realized.
    """
    n_tasks = _positive_task_count(instance)
    if n_tasks > MAX_PRIMAL_ENTRIES:
        raise LpError(
            f"primal embedding exceeds {MAX_PRIMAL_ENTRIES} entries: "
            f"{n_tasks} tasks of positive size need one each"
        )
    if hasattr(source, "intervals"):
        require_own_trace(source, instance)
        slices = [
            realize_slice(iv.profile, instance, iv) for iv in source.intervals
        ]
    else:
        slices = list(source)
    gamma = instance.speedup
    table = task_table(instance)
    job_tasks = {}
    for v, j, p in table:
        job_tasks.setdefault(j, []).append((v, p))
    weights = {j.job_id: j.weight for j in instance.jobs}
    zero = instance.speedup - instance.speedup  # typed zero

    # pass A, in time order: check each segment where it is read, and take
    # the completion times, per-job work curves (time, W) and, per segment,
    # the pools that put work on machines with the task ids they serve
    m = instance.machine_count()
    remaining = {v: p for v, _, p in table}
    # roundoff slack so a task whose quota exactly spans a segment still
    # completes inside it
    done_slack = {v: scaled_tol(p, REL_TOL) for v, _, p in table}
    # a job with no task left to run completes at its release, as in simulate
    completion = {j.job_id: j.release for j in instance.jobs}
    work_curve = {j.job_id: [(zero, zero)] for j in instance.jobs}
    plan = []  # (segment, [(pool, task ids)]) for each segment, in time order
    for seg in sorted((seg for sl in slices for seg in sl.segments if seg.end > seg.start),
                      key=lambda s: s.start):
        if not seg.start >= 0:
            raise LpError(f"segment starts at {seg.start}, before time 0")
        length = seg.end - seg.start
        placed, pools = set(), []
        for pl in seg.placements:
            lo, hi, rate = pl.machine_lo, pl.machine_hi, pl.per_task_rate
            if not (pl.count >= 1 and rate >= 0):
                raise LpError(f"pool of count {pl.count} at rate {rate}"
                              ": needs count >= 1 and rate >= 0")
            if lo <= hi and not (1 <= lo and hi <= m):
                raise LpError(f"pool on machines {lo}..{hi}, not 1..{m}")
            got = rate * length
            tasks = []
            for job_id, cnt in pl.members:
                if not (job_id in weights and cnt >= 1):
                    raise LpError(f"pool member ({job_id}, {cnt}) is not >= 1 task"
                                  " of a job of the instance")
                if job_id in placed:
                    raise LpError(f"job {job_id} split across pools in one segment")
                placed.add(job_id)
                if rate == 0:  # a pool at rate 0 runs nothing
                    continue
                alive = [
                    v for v, _ in job_tasks.get(job_id, ()) if remaining[v] > 0
                ]
                if len(alive) != cnt:
                    raise LpError(
                        f"pool of job {job_id} covers {cnt} tasks, "
                        f"{len(alive)} alive"
                    )
                tasks += alive
                for v in alive:
                    if got >= remaining[v] - done_slack[v]:
                        t_done = seg.start + min(remaining[v] / rate, length)
                        remaining[v] = zero
                        if t_done > completion[job_id]:
                            completion[job_id] = t_done
                    else:
                        remaining[v] = remaining[v] - got
                curve = work_curve[job_id]
                if curve[-1][0] < seg.start:  # idle gap: keep W flat
                    curve.append((seg.start, curve[-1][1]))
                curve.append((seg.end, curve[-1][1] + got))
            if rate != 0 and lo <= hi:
                pools.append((pl, tasks))
        plan.append((seg, pools))
    for v, slack in done_slack.items():
        if not remaining[v] <= slack:
            raise LpError(f"task {v} not finished by the given schedule")
    if hasattr(source, "completions"):
        for j, c in source.completions.items():
            if not close(c, completion[j]):
                raise LpError(f"job {j}: derived completion {completion[j]} vs trace {c}")

    cost = sum(weights[j] * completion[j] for j in weights) if weights else zero

    # slot: half the smallest gap C_j - integral(U_j); U_j(t) = 1 - W/p_max
    if slot is None:
        gap = None
        for job in instance.jobs:
            p_max = max((p for _, p in job_tasks.get(job.job_id, ())), default=0)
            if p_max == 0:
                continue
            area = zero
            curve = work_curve[job.job_id]
            for (t0, w0), (t1, w1) in zip(curve, curve[1:]):
                u0 = max(zero, 1 - w0 / p_max)
                u1 = max(zero, 1 - w1 / p_max)
                area = area + (t1 - t0) * (u0 + u1) / 2
            g = completion[job.job_id] - area
            if not g > 0:
                raise LpError(f"job {job.job_id}: U area reaches completion time")
            gap = g if gap is None else min(gap, g)
        if gap is None:  # all tasks zero-size
            slot = 1
        else:
            slot = gap / 2

    # pass B: bin x over the slot grid, keeping the ledger of the check as
    # x is written. A piece is final when its slot is above every slot an
    # earlier segment wrote and below the first that a later one can write,
    # as no other piece then adds to its entries: its sums are taken as
    # written. Other entries are opened: they are summed after pass B, in
    # x's order, and a task's machine time takes them in before its next
    # final piece, as that time is summed in x's order too.
    speeds, rate, load = {}, {}, {}  # machine -> speed, rate, {slot: amount}
    grid = {v: {} for v in remaining}
    spent = dict.fromkeys(grid, zero)
    pending = {v: [] for v in grid}  # task -> its opened keys not yet spent
    opened = []  # opened keys, in x's order
    x = {}
    high = -1  # highest slot that an earlier segment wrote
    for si, (seg, pools) in enumerate(plan):
        seg_high = high
        below = int(plan[si + 1][0].start / slot) if si + 1 < len(plan) else inf
        for pl, tasks in pools:
            machines = range(pl.machine_lo, pl.machine_hi + 1)
            for i in machines:
                if i not in speeds:
                    speeds[i] = instance.machine_speed(i)
                    rate[i], load[i] = gamma * speeds[i], {}
            spent_due = True  # the tasks' opened keys are yet to be spent
            t0, t1 = seg.start, seg.end
            s = int(t0 / slot)
            while t0 < t1:
                edge = (s + 1) * slot
                hi = edge if edge < t1 else t1
                d = hi - t0
                if d > 0:
                    share = d / pl.count * gamma
                    if high < s < below:
                        if spent_due:
                            spent_due = False
                            for v in tasks:
                                for key in pending[v]:
                                    spent[v] += x[key] / rate[key[0]]
                                pending[v].clear()
                        msum = zero
                        for i in machines:
                            amount = share * speeds[i]
                            msum += amount
                            per_time = amount / rate[i]
                            mine = load[i]
                            run = mine.get(s, zero)
                            for v in tasks:
                                x[i, v, s] = amount
                                run += amount
                                spent[v] += per_time
                            mine[s] = run
                        for v in tasks:
                            grid[v][s] = msum
                    else:
                        for i in machines:
                            amount = share * speeds[i]
                            for v in tasks:
                                key = (i, v, s)
                                if key in x:
                                    x[key] = x[key] + amount
                                else:
                                    x[key] = amount
                                    opened.append(key)
                                    pending[v].append(key)
                    if s > seg_high:
                        seg_high = s
                if len(x) > MAX_PRIMAL_ENTRIES:
                    raise LpError(
                        f"primal embedding exceeds {MAX_PRIMAL_ENTRIES} entries"
                    )
                t0 = hi
                s += 1
        high = seg_high

    for i, v, t in opened:  # _read's x sums, on the opened keys
        amt = x[i, v, t]
        row, mine = grid[v], load[i]
        row[t] = row[t] + amt if t in row else zero + amt
        mine[t] = mine[t] + amt if t in mine else zero + amt
    for v, keys in pending.items():
        for key in keys:
            spent[v] += x[key] / rate[key[0]]

    # minimal U: per job and slot, the largest remaining fraction of its
    # tasks, in slot descending then job order. U's last slot is high and x
    # names none above it, so the check's horizon is high + 1.
    fracs = [_remaining(grid[v], p, zero, high + 1) for v, _, p in table]
    cols = {}
    for (_, j, _), fr in zip(table, fracs):
        us = cols.get(j)
        # b if b > a else a is max(a, b), without a call per slot
        cols[j] = fr if us is None else [b if b > a else a for a, b in zip(us, fr)]
    # U reads the columns across, slot descending then job; its sums are
    # taken in that order, from the columns
    slots = range(high, -1, -1)
    rows = list(zip(slots, zip(*cols.values())))
    U = {(j, s): u for s, row in rows for j, u in zip(cols, row)}
    one = zero + 1
    u_out = [(j, s, u) for s, row in rows
             for j, u in zip(cols, row) if not zero <= u <= one]
    u_sum = dict.fromkeys(weights, 0)
    u_sum.update((j, functools.reduce(add, us, 0)) for j, us in cols.items())
    u_cost = functools.reduce(add, map(mul, cycle([weights[j] for j in cols]),
                                       chain.from_iterable(row for _, row in rows)), zero)
    objective = cost + (slot * u_cost if U else zero)
    primal = PrimalSolution(
        slot=slot, x=x, U=U, C=dict(completion),
        cost=cost, objective=objective,
    )
    # amounts are positive, so x has no negative amount to note
    ledger = _Ledger(load, spent, rate, [], fracs, cols, u_out, u_sum, u_cost)
    check_primal(primal, instance, _sums=ledger)
    return primal


def check_primal(primal: PrimalSolution, instance: Instance, *, _sums=None) -> None:
    """Check the primal and raise LpError at the first violation, in this
    order. Every x, U and C key is checked in the one loop that reads it:
    first x, entry by entry in its order, each key's slot (an int >= 0),
    task (an int of the table) and machine (an int in 1..m); then U, whose
    keys must be an int slot >= 0 and an int job of the instance; then C,
    whose keys must be int jobs of the instance. Then _violated_rows on the
    primal's slot grid, machine i running at instance.speedup * sigma_i:
    its first row raises "row ... violated", and after every row its first
    broken bound, x then U then C, raises "x_i_v_t is negative", "U_j_t is
    negative", "U_j_t exceeds 1" or "C_j is negative". Then C, entry by
    entry: each job's Riemann sum slot * sum_t U_{j,t} must be at most C_j.
    Then cost <= objective <= 2 * cost. Last, the stored cost and objective
    must be close to sum_j w_j C_j and cost + slot * sum w_j U_{j,t},
    summed in schedule_to_primal's order.

    x and U are each iterated once, by _read, for the ledger that the rows,
    the bounds, the Riemann sums and the stored objective are checked on.
    schedule_to_primal passes the ledger it kept while writing x and U as
    _sums, so that the embedding reads neither back; every other caller
    leaves it unset."""
    table = task_table(instance)
    weights = {j.job_id: j.weight for j in instance.jobs}
    zero = primal.slot - primal.slot
    led = _sums or _read(primal.x, primal.U, instance, table, weights,
                         instance.speedup, zero, 0)
    for j in primal.C:
        if type(j) is not int or j not in weights:
            raise LpError(f"C_{j} names no LP variable")
    row = next(_violated_rows(table, led, primal.C, primal.slot, REL_TOL), None)
    if row is not None:
        name, lhs, rhs = row
        if name[0] in "xUC":  # a bound, after every row
            raise LpError(f"{name} {'is negative' if lhs < rhs else 'exceeds 1'}")
        raise LpError(f"row {name} violated: lhs={float(lhs)!r} rhs={float(rhs)!r}")
    for j, c in primal.C.items():
        usum = primal.slot * led.u_sum[j]
        if not leq(usum, c):
            raise LpError(f"job {j}: U sum {float(usum)} exceeds C {float(c)}")
    if not (leq(primal.cost, primal.objective)
            and leq(primal.objective, 2 * primal.cost)):
        raise LpError(
            f"objective {float(primal.objective)} outside "
            f"[cost, 2 cost] for cost {float(primal.cost)}"
        )
    cost = sum((w * primal.C.get(j, zero) for j, w in weights.items()), zero)
    for name, stored, want in (("cost", primal.cost, cost),
                               ("objective", primal.objective, cost + primal.slot * led.u_cost)):
        if not close(stored, want):
            raise LpError(f"{name} {float(stored)!r} is not the primal's {float(want)!r}")


def primal_to_solution_values(primal: PrimalSolution) -> dict:
    """Flatten a unit-slot PrimalSolution into LP solution values.

    Requires slot == 1 so the names line up with emit_lp's unit grid.
    """
    if primal.slot != 1:
        raise LpError(f"solution export needs unit slots, got {primal.slot}")
    values = {}
    for (i, v, s), amt in primal.x.items():
        values[f"x_{i}_{v}_{s}"] = values.get(f"x_{i}_{v}_{s}", 0.0) + float(amt)
    for (j, s), u in primal.U.items():
        values[f"U_{j}_{s}"] = float(u)
    for j, c in primal.C.items():
        values[f"C_{j}"] = float(c)
    return values


# ---------------------------------------------------------------------------
# brute-force optimum for tiny instances
# ---------------------------------------------------------------------------

def brute_force_opt(instance: Instance, grid: int = 2):
    """Minimal weighted completion time on a 1/grid time lattice.

    Exhaustive search over per-quantum injective assignments of alive tasks
    to the fastest machines, memoized on the remaining-size state. The
    result upper-bounds the true optimum and converges to it as grid grows.
    Restricted to tiny inputs: <= 3 machines, <= 5 tasks of positive size
    (zero-size tasks need no machine time), integer sizes <= 4, grid <= 4.
    """
    m = instance.machine_count()
    if m > BRUTE_MAX_MACHINES:
        raise LpError(f"brute force capped at {BRUTE_MAX_MACHINES} machines, got {m}")
    if not 1 <= grid <= BRUTE_MAX_GRID:
        raise LpError(f"grid must be in 1..{BRUTE_MAX_GRID}, got {grid}")
    n = _positive_task_count(instance)
    if n > BRUTE_MAX_TASKS:
        raise LpError(f"brute force capped at {BRUTE_MAX_TASKS} tasks, got {n}")
    table = task_table(instance)
    for _, _, p in table:
        if p != int(p) or p > BRUTE_MAX_SIZE or p < 0:
            raise LpError(f"brute force needs integer sizes <= {BRUTE_MAX_SIZE}, got {p}")
    if instance.has_releases():
        raise LpError("brute force handles release time 0 only")

    speeds = [coerce(sp, True) for sp in instance.machine_speeds(m)]  # fastest first
    quantum = coerce(1, True) / grid
    zero = coerce(0, True)
    weights = {j.job_id: float(j.weight) for j in instance.jobs}
    job_ids = sorted(weights)
    start = tuple(
        tuple(sorted(
            (coerce(int(p), True) for v, jj, p in table if jj == j),
            reverse=True,
        ))
        for j in job_ids
    )

    @functools.lru_cache(maxsize=None)
    def solve(state):
        alive_jobs = [k for k, rem in enumerate(state) if rem]
        if not alive_jobs:
            return 0.0
        w_alive = sum(weights[job_ids[k]] for k in alive_jobs)
        tasks = [
            (k, ti) for k in alive_jobs for ti in range(len(state[k]))
        ]
        slots = min(len(speeds), len(tasks))
        best = None
        # ordered selections: machine slot s gets chosen[s]
        for chosen in permutations(tasks, slots):
            nxt = [list(rem) for rem in state]
            for slot_i, (k, ti) in enumerate(chosen):
                nxt[k][ti] = max(
                    zero, nxt[k][ti] - quantum * speeds[slot_i]
                )
            key = tuple(
                tuple(sorted((r for r in rem if r > 0), reverse=True))
                for rem in nxt
            )
            val = solve(key)
            if best is None or val < best:
                best = val
        return float(quantum) * w_alive + best

    return solve(start)
