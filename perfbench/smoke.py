"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs two instances of the smallest config of each workload, untraced and
traced, and passes (exit 0) when every run is correct with no failed
op (so the exact workload's trace digests match the reference), every
metric of BENCHMARK.json is printed with its unit as a finite number, the
traced self times cover at least 90% of the traced op time, and the
benchmark refuses to run under python -O.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys

import run

MIN_ATTRIBUTED = 0.9


def problems(result, units):
    out = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"{result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != units:
        out.append(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(units)}")
    out += [f"{k} = {v['value']!r}" for k, v in metrics.items()
            if not isinstance(v["value"], (int, float))
            or not math.isfinite(v["value"])]
    share = metrics.get("trace.attributed_share", {"value": 1.0})["value"]
    if share < MIN_ATTRIBUTED:
        out.append(f"self times cover only {share:.1%} of traced op time")
    return out


def main():
    import_s = run.bootstrap()
    from workloads import WORKLOADS

    failures = []
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                result = run.run(name, seed=0, seconds=0, trace=trace,
                                 import_s=import_s, config_limit=1, instances=2)
            except run.BenchError as exc:
                failures.append(f"{name} trace={trace}: {exc}")
                continue
            result = json.loads(json.dumps(result))
            units = run.metric_units("per_layer" if trace else "end_to_end")
            failures += [f"{name} trace={trace}: {p}"
                         for p in problems(result, units)]
    optimized = subprocess.run(
        [sys.executable, "-O", str(run.HERE / "run.py"), "--workload", "exact",
         "--seed", "0", "--seconds", "0"],
        capture_output=True, text=True, timeout=120,
    )
    if optimized.returncode == 0 or optimized.stdout.strip():
        failures.append("ran under python -O")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
