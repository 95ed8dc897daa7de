"""Seeded benchmark of the checked-claim pipeline.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ./src
there, never from an installed copy. One process, one thread, closed loop:
an op (one instance taken through its workload's whole pipeline) starts
only after the previous one finished. Inputs are generated in set-up, a
fresh set of objects per op, and gc.collect() runs between ops outside the
timed region. Every op's output is compared with reference.json, recorded
from the seed commit by record.py.

--trace 0 times three passes over the workload's instances, started evenly
over --seconds, and prints the end-to-end metrics, scaled to a reference
machine speed that speed.py samples around every timed region. --trace 1
alternates untraced and traced ops over a fixed list of ops per pass, at
least two passes and more while another fits in --seconds, dumps the spans
to .perfbench_out/, and prints the per-layer metrics computed from the
dump (see spans.py). A run ends within --seconds when a pass takes at most
a third of it. The last line of standard output is the JSON result;
metric names and units come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, sleep

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

TAIL_BEYOND = 10        # instances beyond the percentile op_tail_s reports
REPEATS = 3             # timed passes per run
HD_STEPS = 200          # integration points per order statistic
IMPORT_REPS = 5         # imports of bagsched; setup_s takes their median
TRACE_VARIANTS = 2      # variants per config in one traced pass
TRACE_MIN_PASSES = 2    # work counts of later passes must repeat pass 0's
TRACE_MAX_PASSES = 8


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def bootstrap():
    """Import bagsched from ROOT/src IMPORT_REPS times, each from scratch,
    and return the median import time at the reference speed. The last
    import is the one used."""
    pkg = ROOT / "src" / "bagsched"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"package source not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    samples = []
    speed.kernel()  # the first call pays for cold caches
    before = speed.sample()
    for _ in range(IMPORT_REPS):
        for name in [m for m in sys.modules
                     if m == "bagsched" or m.startswith("bagsched.")]:
            del sys.modules[name]
        t0 = perf_counter()
        import bagsched
        samples.append(perf_counter() - t0)
    scale = speed.scale(before, speed.sample())
    if Path(bagsched.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"bagsched imported from {bagsched.__file__}, not {pkg}")
    return statistics.median(samples) * scale


def metric_units(kind):
    """{name: unit} of the BENCHMARK.json metric list `kind`."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def timed(fn, arg):
    t0 = perf_counter()
    out = fn(arg)
    return out, perf_counter() - t0


class Tally:
    """Ops attempted and failed, and whether the run's results hold."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.steady = True  # traced work counts repeat on every pass

    def attempt(self, entry, op):
        """Run op() -> ((intervals, raw), seconds) and check its output.

        Returns (seconds, intervals), or None when the op raised. An output
        that differs from the reference counts as failed but keeps its time.
        """
        self.attempted += 1
        try:
            (intervals, raw), seconds = op()
        except Exception:  # an op boundary: count the failure, keep measuring
            self._failure()
            return None
        try:
            self.workload.check(raw, *entry, self.reference)
        except Exception:  # OutputMismatch, or a summary the output breaks
            self._failure()
        return seconds, intervals

    def _failure(self):
        self.failed += 1
        if self.failed <= 3:
            traceback.print_exc(file=sys.stderr)


def build_pool(wl, seq):
    """Fresh inputs for every op in seq, then one warm-up op on the same
    instance whatever the seed; returns (pool, seconds)."""
    t0 = perf_counter()
    pool = [wl.make_input(*entry) for entry in seq]
    try:
        wl.run_op(wl.make_input(wl.configs[0], 0))
    except Exception:  # the timed ops count and report this failure
        pass
    return pool, perf_counter() - t0


def settle():
    """Collect, then move every live object (the input pool above all) out
    of the collector's reach, so that the collections an op triggers scan
    only what the op allocated, as in a process that loaded one instance."""
    gc.collect()
    gc.freeze()


def harrell_davis(values, p):
    """Harrell-Davis estimate of quantile p: the mean of the order
    statistics, each weighted by the mass of Beta(p(n+1), (1-p)(n+1)) over
    its 1/n slice of [0, 1] (midpoint rule, HD_STEPS points a slice)."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    h = 1 / (n * HD_STEPS)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [
        sum(math.exp(log_norm + (a - 1) * math.log(x)
                     + (b - 1) * math.log1p(-x))
            for x in ((i * HD_STEPS + j + 0.5) * h for j in range(HD_STEPS)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n):
    """The highest percentile with TAIL_BEYOND of n values beyond it, or
    half of them when there are too few."""
    return math.floor(100 * (1 - min(TAIL_BEYOND, n // 2) / n))


def measure(wl, reference, seed, seconds, import_s, config_limit, instances):
    """End-to-end metrics of untraced ops.

    A pass builds fresh inputs, then takes each instance of the universe
    (or its first `instances`) once. A run makes REPEATS passes; pass k
    starts k/REPEATS of `seconds` after the first, or when pass k-1 ends if
    that is later.

    Every timed region, an op or a pass's set-up, lies between two samples
    of speed.kernel(), and its time is scaled to the reference speed by
    their mean. On a shared 2-core VM the median op of one pass took up to
    1.67 times that of another pass of the same run; scaled this way, the
    passes' median ops stayed within 1.05 times each other.
    An instance's op time is the median of its REPEATS scaled samples,
    which drops a sample that a burst of load slowed. op_p50_s and
    op_tail_s are taken over the instances, whose number does not depend
    on the speed of the code, so op_tail_s is the same percentile on every
    commit. Both are Harrell-Davis estimates: op times cluster by instance
    size, and a single order statistic jumps between clusters from run to
    run where a weighted mean of all of them moves less. setup_s is the
    median import time plus the median of the passes' input builds, both
    scaled.
    """
    seq = wl.sequence(seed, instances or len(wl.universe(config_limit)),
                      config_limit)
    tally = Tally(wl, reference)
    setups, raw, intervals = [], [], 0
    samples = [[] for _ in seq]
    start = perf_counter()
    for k in range(REPEATS):
        sleep(max(0.0, start + k * seconds / REPEATS - perf_counter()))
        gc.collect()
        before = speed.sample()
        pool, s = build_pool(wl, seq)
        settle()
        kernel_s = speed.sample()
        setups.append(s * speed.scale(before, kernel_s))
        for i, entry in enumerate(seq):
            inp, pool[i] = pool[i], None
            done = tally.attempt(entry, lambda: timed(wl.run_op, inp))
            del inp
            gc.collect()
            after = speed.sample()
            if done:
                raw.append(done[0])
                samples[i].append(done[0] * speed.scale(kernel_s, after))
                intervals += done[1]
            kernel_s = after
    wall = perf_counter() - start
    times = [statistics.median(s) for s in samples if s]
    if len(times) < 2:
        raise BenchError(f"{tally.failed} of {tally.attempted} ops raised")
    pct = tail_percentile(len(times))
    p50_s = harrell_davis(times, 0.5)
    tail_s = harrell_davis(times, pct / 100)
    beyond = sum(t > tail_s for t in times)
    print(f"{wl.name} seed={seed}: {REPEATS} passes over {len(seq)} instances "
          f"in {wall:.1f} s, {tally.failed} of {tally.attempted} ops failed; "
          f"op_tail_s is p{pct} over {len(times)} instances ({beyond} beyond "
          f"it); median op {statistics.median(raw):.4f} s as timed, "
          f"{statistics.median(times):.4f} s at the reference speed")
    metrics = {
        "op_p50_s": p50_s,
        "op_tail_s": tail_s,
        "intervals_per_s": intervals / sum(sum(s) for s in samples),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, tally


def measure_traced(wl, reference, seed, seconds, config_limit):
    """Per-layer metrics: untraced and traced ops in pairs, over passes of a
    fixed op list; counts come from the first pass and must repeat. Passes
    go on while another, as long as the longest so far, fits in `seconds`."""
    import spans

    configs = wl.configs[:config_limit]
    positions = wl.sequence(seed, TRACE_VARIANTS * len(configs), config_limit)
    per_pass = len(positions)
    tally = Tally(wl, reference)
    tracer = spans.Tracer()
    plain, traced = [], []
    start = perf_counter()
    passes = 0
    longest = 0.0
    while passes < TRACE_MIN_PASSES or (
            passes < TRACE_MAX_PASSES
            and perf_counter() - start + longest <= seconds):
        begun = perf_counter()
        pool, _ = build_pool(wl, [e for e in positions for _ in (0, 1)])
        settle()
        for k, entry in enumerate(positions):
            op_id = passes * per_pass + k
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                inp, pool[2 * k + with_trace] = pool[2 * k + with_trace], None
                if with_trace:
                    done = tally.attempt(
                        entry, lambda: tracer.run_op(op_id, wl.run_op, inp))
                else:
                    done = tally.attempt(entry, lambda: timed(wl.run_op, inp))
                del inp
                gc.collect()
                if done:
                    (traced if with_trace else plain).append(done[0])
        longest = max(longest, perf_counter() - begun)
        passes += 1
    if not plain or not traced:
        raise BenchError(f"{tally.failed} of {tally.attempted} ops raised")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.dump(dump)
    with open(dump, encoding="utf-8") as fh:
        metrics, drifted = spans.report(json.load(fh), per_pass)
    metrics["trace.op_p50_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - statistics.median(plain)
    print(f"{wl.name} seed={seed}: {passes} traced passes of {per_pass} ops, "
          f"{tally.failed} of {tally.attempted} ops failed; spans in "
          f"{dump.relative_to(ROOT)}; "
          f"self times cover {metrics['trace.attributed_share']:.1%} of traced op time")
    if drifted:
        tally.steady = False
        print(f"error: work counts of passes {drifted} differ from pass 0",
              file=sys.stderr)
    return metrics, tally


def run(workload, seed, seconds, trace, import_s, config_limit=None,
        instances=None):
    """One benchmark run; returns the result object printed as JSON."""
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[workload]
    reference = load_reference()
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        metrics, tally = measure_traced(wl, reference, seed, seconds, config_limit)
    else:
        metrics, tally = measure(
            wl, reference, seed, seconds, import_s, config_limit, instances)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not computed: {', '.join(missing)}")
    return {
        "correct": tally.failed == 0 and tally.steady,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # the package's result checks are still asserts; -O would time a
        # program with them removed
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    try:
        import_s = bootstrap()
        result = run(args.workload, args.seed, args.seconds, args.trace, import_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
