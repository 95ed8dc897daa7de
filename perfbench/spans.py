"""Tracing for the per-layer metrics of the benchmark.

For a traced op only, the package's public layer functions are rebound to
wrappers that record a span: name, start, end, parent span, op id, and the
work counts read off the call's arguments and result. A layer's self time
is its span minus its child spans. Instance.capacity_prefix is counted
without a span, since it is called hundreds of thousands of times per op.

Nothing under src/ knows about this: the wrappers replace the module
attributes through which the package and the ops look the functions up,
and are removed again after each traced op.
"""
from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import bagsched
from bagsched import blocks, duals, instances, lp, rates, sim

MODULES = (bagsched, blocks, duals, instances, lp, rates, sim)


def _slots(primal):
    return 1 + max((s for _, _, s in primal.x), default=-1)


def _checks_scanned(args, cert):
    return {"checks_scanned": sum(r.checked for r in cert.checks)}


# span name -> (function, counts(args, result)); the counts are the work
# units the ROADMAP asks to report next to each time
LAYERS = {
    "rates.assign_rates": (rates.assign_rates,
                           lambda a, r: {"alive_jobs": len(a[0])}),
    "sim.simulate": (sim.simulate,
                     lambda a, r: {"intervals": len(r.intervals)}),
    "sim.realize_slice": (sim.realize_slice, lambda a, r: {
        "segments": len(r.segments),
        "placements": sum(len(s.placements) for s in r.segments),
    }),
    "sim.write_trace": (sim.write_trace,  # ops write into a fresh buffer
                        lambda a, r: {"trace_bytes": a[1].tell()}),
    "blocks.classify_blocks": (blocks.classify_blocks, lambda a, r: {
        "blocks": sum(len(iv.blocks) for iv in r.intervals),
    }),
    "duals.build_weaker_duals": (duals.build_weaker_duals, _checks_scanned),
    "duals.build_single_job_duals": (duals.build_single_job_duals,
                                     _checks_scanned),
    "duals.build_general_duals": (duals.build_general_duals, _checks_scanned),
    "lp.schedule_to_primal": (lp.schedule_to_primal, lambda a, r: {
        "primal_entries": len(r.x), "slots": _slots(r),
    }),
    "lp.check_primal": (lp.check_primal, None),
}

COUNT_NAMES = {  # count key -> per-layer metric name
    "alive_jobs": "rates.alive_jobs",
    "intervals": "sim.intervals",
    "segments": "sim.segments",
    "placements": "sim.placements",
    "trace_bytes": "sim.trace_bytes",
    "blocks": "blocks.blocks",
    "checks_scanned": "duals.checks_scanned",
    "primal_entries": "lp.primal_entries",
    "slots": "lp.slots",
    "capacity_prefix": "instances.capacity_prefix.calls",
}
CALL_COUNTS = ("rates.assign_rates", "sim.realize_slice")
EXPONENTS = ("sim.realize_slice", "sim.simulate")


class Tracer:
    """Spans in memory: [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._prefix_calls = 0

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[5] = counts(args, result)
            return result

        return traced

    @contextmanager
    def _installed(self):
        saved = []
        for name, (fn, counts) in LAYERS.items():
            wrapper = self._wrap(name, fn, counts)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        prefix = instances.Instance.capacity_prefix

        def counted(inst, k):
            self._prefix_calls += 1
            return prefix(inst, k)

        instances.Instance.capacity_prefix = counted
        try:
            yield
        finally:
            instances.Instance.capacity_prefix = prefix
            for module, attr, value in saved:
                setattr(module, attr, value)

    def run_op(self, op_id, fn, arg):
        """Run fn(arg) traced under a root span named "op"; returns
        (result, seconds)."""
        self._op = op_id
        self._prefix_calls = 0
        root_index = len(self.spans)
        with self._installed():
            result = self._wrap("op", fn, None)(arg)
        root = self.spans[root_index]
        root[5] = {"capacity_prefix": self._prefix_calls}
        self._op = None
        return result, root[2] - root[1]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def loglog_slope(points):
    """Least-squares slope of log y against log x; 0 with fewer than two
    distinct positive x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def report(spans, ops_per_pass):
    """Per-layer metrics from dumped spans.

    Op ids are consecutive per pass, so pass = op id // ops_per_pass. Self
    times are summed per pass and reported as the median over passes;
    counts are per pass. Returns (metrics, passes whose counts differ from
    the first pass).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    passes = {}
    per_op = {}
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        p = passes.setdefault(op // ops_per_pass,
                              {"self": {}, "counts": {}, "op_s": 0.0})
        self_s = (end - start) - child_time[i]
        p["self"][name] = p["self"].get(name, 0.0) + self_s
        calls = name + ".calls"
        p["counts"][calls] = p["counts"].get(calls, 0) + 1
        for key, n in (counts or {}).items():
            p["counts"][key] = p["counts"].get(key, 0) + n
        o = per_op.setdefault(op, {"intervals": 0})
        o[name] = o.get(name, 0.0) + self_s
        if counts and "intervals" in counts:
            o["intervals"] += counts["intervals"]
        if name == "op":
            p["op_s"] += end - start

    first = passes[min(passes)]["counts"]
    drifted = sorted(k for k, p in passes.items() if p["counts"] != first)
    metrics = {}
    for name in LAYERS:
        metrics[name + ".self_s"] = statistics.median(
            p["self"].get(name, 0.0) for p in passes.values()
        )
    for name in CALL_COUNTS:
        metrics[name + ".calls"] = first.get(name + ".calls", 0)
    for key, name in COUNT_NAMES.items():
        metrics[name] = first.get(key, 0)
    for name in EXPONENTS:
        metrics[name + ".exponent"] = loglog_slope(
            (o["intervals"], o.get(name, 0.0)) for o in per_op.values()
        )
    metrics["trace.unattributed_s"] = statistics.median(
        p["self"]["op"] for p in passes.values()
    )
    metrics["trace.attributed_share"] = statistics.median(
        1 - p["self"]["op"] / p["op_s"] for p in passes.values()
    )
    return metrics, drifted
