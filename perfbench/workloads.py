"""The four workloads: their instance universe, the op that takes one
instance through the pipeline, and the output summary that is compared
with reference.json.

Every workload has a fixed universe of generated instances, a ladder of
configs times a number of variants (instance seeds) per config, so that
reference.json holds the seed commit's output for every instance a run can
touch. A timed run takes the whole universe in each of its passes, in an
order the run seed sets. The universe is fixed rather than sampled per
seed because op times are heavy-tailed: a random 100-op subset per seed
moved p90 by up to 12% between seeds on lp-embed.

The ops call the package through module attributes (sim.simulate, not a
name imported from sim), because the traced run rebinds those attributes.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from bagsched import duals, gen, instances, lp, sim
from bagsched.duals import CONSTANTS
from bagsched.numutil import close, leq

# `bagsched simulate --realize` rejects a slice whose delivered per-job work
# is off by more than this share of the fluid work
REALIZE_WORK_REL = 1e-6


class OutputMismatch(Exception):
    """An op finished but its output breaks a check."""


def weaker_gamma(instance):
    """The weaker family's threshold 2*max(K, log2 n)."""
    n = instance.task_count()
    k = len(instance.classes)
    return CONSTANTS.weaker_margin * max(k, math.log2(n) if n > 1 else 0)


def general_gamma(k):
    """The general family's threshold 1024*K*max(log2 K, 1)."""
    return CONSTANTS.general_base * k * max(math.log2(k), 1.0)


def instance_seed(config, variant):
    k, jobs, max_tasks = config
    return 1_000_000 * k + 10_000 * max_tasks + 100 * jobs + variant


def entry_key(config, variant):
    k, jobs, max_tasks = config
    return f"K{k}.j{jobs}.t{max_tasks}/v{variant}"


# ---------------------------------------------------------------------------
# inputs: built in set-up, one fresh set of objects per op
# ---------------------------------------------------------------------------

def _random(config, variant):
    k, jobs, max_tasks = config
    return gen.gen_random_ica(k, jobs, max_tasks, instance_seed(config, variant))


def realize_input(config, variant):
    inst = _random(config, variant)
    return instances.with_speedup(inst, weaker_gamma(inst))


def exact_input(config, variant):
    inst = instances.instance_from_dict(
        instances.instance_to_dict(_random(config, variant)), exact=True
    )
    return instances.with_speedup(inst, math.ceil(weaker_gamma(inst)))


def certify_input(config, variant):
    inst = _random(config, variant)
    lower = [
        instances.with_speedup(gen.gen_lower_bound(k), CONSTANTS.single_margin * k)
        for k in range(2, 6)
    ]
    return (
        instances.with_speedup(inst, weaker_gamma(inst)),
        instances.with_speedup(inst, general_gamma(config[0])),
        lower,
    )


def lp_input(config, variant):
    return _random(config, variant)


# ---------------------------------------------------------------------------
# ops: the timed region; each returns (intervals simulated, raw outputs)
# ---------------------------------------------------------------------------

def realize_op(instance):
    """simulate --realize --out, then verify --family weaker on that run."""
    trace = sim.simulate(instance)
    for iv in trace.intervals:
        sl = sim.realize_slice(iv.profile, instance, iv)
        for j in iv.jobs:
            want = float(j.rate * iv.length())
            got = float(sl.work.get(j.job_id, 0))
            if abs(got - want) > REALIZE_WORK_REL * max(1.0, want):
                raise OutputMismatch(
                    f"interval at {iv.start}: job {j.job_id} work {got} != {want}"
                )
    buf = io.StringIO()
    sim.write_trace(trace, buf)
    cert = duals.build_weaker_duals(trace, instance)
    return len(trace.intervals), (trace, buf.getvalue(), cert)


def certify_op(inputs):
    """Weaker and general certificates on one instance, then the
    single-job certificate on the lower-bound staircases K=2..5."""
    weaker_inst, general_inst, lower = inputs
    runs = [(weaker_inst, duals.build_weaker_duals),
            (general_inst, duals.build_general_duals)]
    runs += [(inst, duals.build_single_job_duals) for inst in lower]
    out = []
    for inst, build in runs:
        trace = sim.simulate(inst)
        out.append((trace, build(trace, inst)))
    return sum(len(t.intervals) for t, _ in out), out


def lp_op(instance):
    """simulate, then embed the realized schedule as a checked LP primal."""
    trace = sim.simulate(instance)
    primal = lp.schedule_to_primal(trace, instance)
    return len(trace.intervals), (trace, primal)


# ---------------------------------------------------------------------------
# summaries: computed outside the timed region, compared with reference.json
# ---------------------------------------------------------------------------

def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cert_row(trace, cert):
    return [float(trace.objective), float(trace.makespan),
            float(cert.objective), cert.feasible]


def realize_summary(raw):
    trace, text, cert = raw
    return {"intervals": len(trace.intervals), "run": _cert_row(trace, cert)}


def exact_summary(raw):
    trace, text, cert = raw
    return {
        "intervals": len(trace.intervals),
        "trace_sha256": _sha(text),
        "cert_objective_sha256": _sha(str(cert.objective)),
        "feasible": cert.feasible,
    }


def certify_summary(raw):
    return {"runs": [_cert_row(trace, cert) for trace, cert in raw]}


def lp_summary(raw):
    trace, primal = raw
    if not (leq(primal.cost, primal.objective)
            and leq(primal.objective, 2 * primal.cost)):
        raise OutputMismatch(
            f"primal objective {primal.objective} outside [cost, 2 cost], "
            f"cost {primal.cost}"
        )
    return {
        "intervals": len(trace.intervals),
        "objective": float(trace.objective),
        "primal_cost": float(primal.cost),
        "primal_objective": float(primal.objective),
    }


def same_output(got, want) -> bool:
    """Equality, with floats compared at the package's relative tolerance."""
    if isinstance(got, float) or isinstance(want, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and not isinstance(got, bool) and close(got, want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_output(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_output(got[k], want[k]) for k in want))
    return got == want


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple                  # (K, jobs, max_tasks)
    variants: int                   # instance seeds per config
    make_input: Callable            # (config, variant) -> fresh op input
    run_op: Callable                # input -> (intervals, raw outputs)
    summarize: Callable             # raw outputs -> JSON-able summary

    def sequence(self, seed, count, config_limit=None):
        """Universe entries (config, variant) of the first `count` ops.

        Ops cycle through the configs in ladder order; each config walks
        its own seeded permutation of its variants, so any run of
        len(configs) * variants consecutive ops covers the universe.
        """
        configs = self.configs[:config_limit]
        rng = random.Random(seed)
        perms = [rng.sample(range(self.variants), self.variants) for _ in configs]
        return [
            (configs[i % len(configs)],
             perms[i % len(configs)][(i // len(configs)) % self.variants])
            for i in range(count)
        ]

    def universe(self, config_limit=None):
        return [(c, v) for c in self.configs[:config_limit]
                for v in range(self.variants)]

    def check(self, raw, config, variant, reference):
        """Raise OutputMismatch when an op's output summary differs from the
        recorded reference."""
        got = json.loads(json.dumps(self.summarize(raw)))
        key = entry_key(config, variant)
        want = reference[self.name].get(key)
        if want is None:
            raise OutputMismatch(f"{key}: no reference output recorded")
        if not same_output(got, want):
            raise OutputMismatch(f"{key}: output {got} != reference {want}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("realize", tuple((3, j, 4) for j in (20, 24, 28, 32)), 10,
                 realize_input, realize_op, realize_summary),
        Workload("certify", ((3, 15, 4), (3, 20, 4), (3, 25, 4),
                             (4, 15, 4), (4, 20, 4)),
                 8, certify_input, certify_op, certify_summary),
        Workload("exact", tuple((3, j, 4) for j in (8, 10, 12, 15)), 10,
                 exact_input, realize_op, exact_summary),
        Workload("lp-embed", tuple((2, j, 3) for j in (7, 8, 10, 12)), 10,
                 lp_input, lp_op, lp_summary),
    )
}
