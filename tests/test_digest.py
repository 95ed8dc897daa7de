"""Bit-identity digest of a fixed set of small runs.

Each section hashes plain values, never dataclass reprs, so adding or
removing a field moves no hash: the trace text, every interval's alive jobs
as (job, weight, count, rate), the realized segments, the certificates'
to_dict, and the LP primal's x, U, C, cost and objective. A refactor that
must leave outputs unchanged keeps every hash. A change that moves outputs
on purpose records the new hashes here and says so in CHANGES.md.

The speedups are integers, and every recorded threshold is free of
logarithms of non-powers of two: the weaker runs keep log2 n at most K and
the general family runs at K=2 and K=4. The one logarithm left in recorded
values is the general family's doubling bound, 1 + log2(10K).
"""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from bagsched import (
    build_general_duals,
    build_single_job_duals,
    build_weaker_duals,
    gen_lower_bound,
    gen_random_ica,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    make_job,
    realize_slice,
    schedule_to_primal,
    simulate,
    with_speedup,
    write_trace,
)

DIGESTS = {
    "trace": (18, "31205fbe3805e91b30cb69d57daeea5ffb8d672476a07ce39bde0a64b9a1a7c4"),
    "jobs": (91, "a7e3f597b39ddbf3918faf978e71be623f0ac88334ab67863ba579c4b3b10bf2"),
    "segments": (91, "43e5bbfef25aaa322e1d4c5a6878e6226ed1e86f19462f31402c7f2c646321c4"),
    "certificates": (17, "b8b3eadced2b15dafea322ea019ebc08d9c67f44ebc433d739b2a7349fac5ea0"),
    "primal": (6, "4fc338120bf23f21969423709b4928c6c202b3c8aeec9f30813447509ce3db30"),
}


def _plain(value):
    """A JSON value that pins a number bit for bit in either mode."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _released():
    """Releases admit job 3 before job 2, and job 2's share is the largest."""
    return make_instance(
        [(4, 1), (1, 3)],
        [make_job(1, 1.0, [3, 2]), make_job(2, 6.0, [2], release=1.5),
         make_job(3, 2.0, [4, 4, 1], release=0.5)],
        speedup=2,
    )


def _exact(k, jobs, max_tasks, seed, gamma):
    inst = gen_random_ica(k, jobs, max_tasks, seed)
    return with_speedup(instance_from_dict(instance_to_dict(inst), exact=True), gamma)


def _runs():
    """(instance, certificate builders, embed a primal?) per run.

    The weaker runs have at most 2^K tasks, so their threshold is 2K.
    """
    runs = []
    for seed in range(3):
        runs.append((with_speedup(gen_random_ica(2, 4, 1, seed), 4),
                     [build_weaker_duals], True))
        runs.append((with_speedup(gen_random_ica(3, 4, 2, seed), 6),
                     [build_weaker_duals], False))
        runs.append((with_speedup(gen_random_ica(2, 5, 3, seed), 2048),
                     [build_general_duals], False))
    runs.append((with_speedup(gen_random_ica(4, 4, 2, 7), 8192),
                 [build_weaker_duals, build_general_duals], False))
    runs.append((_exact(2, 4, 1, 11, 4), [build_weaker_duals], True))
    runs.append((_exact(3, 4, 2, 12, 6), [build_weaker_duals], False))
    for k in range(1, 5):
        runs.append((with_speedup(gen_lower_bound(k), 2 * k),
                     [build_single_job_duals], False))
    runs.append((_released(), [], True))
    exact_pair = make_instance(
        [(Fraction(2), 1), (Fraction(1), 2)],
        [make_job(1, Fraction(3), [Fraction(5, 2), Fraction(1)], exact=True),
         make_job(2, Fraction(1), [Fraction(3), Fraction(3)], exact=True)],
        speedup=Fraction(1), exact=True,
    )
    runs.append((exact_pair, [], True))
    return runs


@pytest.fixture(scope="module")
def sections():
    items = {name: [] for name in DIGESTS}
    for inst, builders, embed in _runs():
        trace = simulate(inst)
        buf = io.StringIO()
        write_trace(trace, buf)
        items["trace"].append(buf.getvalue())
        for iv in trace.intervals:
            items["jobs"].append([
                [_plain(iv.start), _plain(iv.end)],
                [[j.job_id, _plain(j.weight), j.count, _plain(j.rate)]
                 for j in iv.jobs],
            ])
            sl = realize_slice(iv.profile, inst, iv)
            items["segments"].append([
                [_plain(seg.start), _plain(seg.end),
                 [[_plain(pl.members), pl.count, pl.position_lo, pl.machine_lo,
                   pl.machine_hi, _plain(pl.per_task_rate)]
                  for pl in seg.placements]]
                for seg in sl.segments
            ] + [sorted((j, _plain(w)) for j, w in sl.work.items())])
        for build in builders:
            items["certificates"].append(build(trace, inst).to_dict())
        if embed:
            primal = schedule_to_primal(trace, inst)
            items["primal"].append({
                "slot": _plain(primal.slot),
                "x": sorted([list(k), _plain(v)] for k, v in primal.x.items()),
                "U": sorted([list(k), _plain(v)] for k, v in primal.U.items()),
                "C": sorted([k, _plain(v)] for k, v in primal.C.items()),
                "cost": _plain(primal.cost),
                "objective": _plain(primal.objective),
            })
    digests = {}
    for name, values in items.items():
        h = hashlib.sha256()
        for value in values:
            h.update(json.dumps(value, sort_keys=True).encode() + b"\n")
        digests[name] = (len(values), h.hexdigest())
    return digests


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_section_digest(sections, name):
    assert sections[name] == DIGESTS[name]
