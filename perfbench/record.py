"""Record reference.json: the output summary of every instance in every
workload's universe, as the current code computes it.

    python3 perfbench/record.py

Run it only on the commit whose outputs are the reference (the seed
commit of the benchmark). It records every workload from scratch. A later
change that alters outputs must make the benchmark's ops fail, not rewrite
this file.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import run


def main():
    run.bootstrap()
    from workloads import WORKLOADS, entry_key

    reference = {}
    for name, wl in WORKLOADS.items():
        t0 = perf_counter()
        entries = {}
        infeasible = 0
        for config, variant in wl.universe():
            _, raw = wl.run_op(wl.make_input(config, variant))
            summary = json.loads(json.dumps(wl.summarize(raw)))
            # feasibility flags are the summaries' only booleans
            infeasible += "false" in json.dumps(summary)
            entries[entry_key(config, variant)] = summary
        reference[name] = entries
        print(f"{name}: {len(entries)} entries, {infeasible} with an "
              f"infeasible certificate, {perf_counter() - t0:.1f} s")
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
