"""Command-line front end: simulate, verify, emit-lp, gen, bench.

Exit codes are a stable contract:
  0  success, or a feasible certificate;
  1  an infeasible certificate, a failed work check, or a solution that
     violates the LP;
  2  a file that cannot be read or parsed: an I/O error, text that is not
     JSON or JSON lines, or a solution line that is not `name
     finite-number` (argparse's usage errors exit 2 too);
  3  parsed content that is refused: a malformed field, number or count,
     a violated precondition (family preconditions, size caps), or a
     float run past the float range (rerun with --exact).
All randomness flows from explicit --seed arguments. Relative output paths
honor the BAGSCHED_OUT_DIR environment variable. A command whose document
(trace, certificate, LP) goes to stdout prints its report lines to stderr,
so that stdout holds the document alone.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager

from .duals import (
    build_general_duals,
    build_single_job_duals,
    build_weaker_duals,
    single_job_threshold,
    weaker_threshold,
)
from .gen import gen_lower_bound, gen_random_ica, gen_raw_speeds
from .instances import (
    InstanceError,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    round_speeds,
    select_capacity_classes,
    with_speedup,
)
from .lp import LpError, check_lp_solution, emit_lp, parse_lp_solution, solution_objective
from .numutil import WORK_REL, scaled_tol, to_float
from .rates import RateError
from .report import AnalysisError, certified_ratio
from .sim import realize_slice, simulate, write_trace

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3

FAMILIES = {
    "weaker": build_weaker_duals,
    "single": build_single_job_duals,
    "general": build_general_duals,
}


def _out_path(path):
    if path in (None, "-"):
        return path
    base = os.environ.get("BAGSCHED_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@contextmanager
def _output(path):
    """stdout for None or "-", else the file, closed however the block ends."""
    path = _out_path(path)
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _load_any(path, exact=False):
    """Load an instance from an instance JSON or a trace JSONL file.

    A trace's instance is the one its meta line embeds, speedup included.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first_line = fh.readline()
        try:
            first = json.loads(first_line)
        except json.JSONDecodeError:
            first = None  # multi-line JSON: an instance document
        if isinstance(first, dict) and first.get("type") == "meta":
            if "instance" not in first:
                raise InstanceError(
                    f"{path}: trace lacks an embedded instance record"
                )
            return instance_from_dict(first["instance"], exact=exact)
        fh.seek(0)
        return instance_from_dict(json.load(fh), exact=exact)


def cmd_simulate(args) -> int:
    instance = _load_any(args.instance, exact=args.exact)
    if args.preprocess:
        rounded = round_speeds((c.speed, c.count) for c in instance.classes)
        _, classes = select_capacity_classes(rounded)
        instance = make_instance(
            classes=[(c.speed, c.count) for c in classes],
            jobs=instance.jobs,
            speedup=instance.speedup,
            exact=instance.exact,
        )
    if args.gamma is not None:
        instance = with_speedup(instance, args.gamma)
    trace = simulate(instance)
    report = sys.stderr if args.out == "-" else sys.stdout
    if args.realize:
        for index, iv in enumerate(trace.intervals):
            # the per-task work the segments deliver to each job, against its
            # quota: exactly in exact mode, else within WORK_REL of the
            # slice's largest quota, with no absolute floor
            got = {}
            for seg in realize_slice(iv.profile, instance, iv).segments:
                span = seg.end - seg.start
                for pl in seg.placements:
                    work = pl.per_task_rate * span
                    for job, _ in pl.members:
                        got[job] = got.get(job, 0) + work
            length = iv.length()
            want = {j.job_id: j.rate * length for j in iv.jobs}
            tol = scaled_tol(max(want.values(), default=0), WORK_REL)
            for job, quota in want.items():
                if not abs(got.get(job, 0) - quota) <= tol:
                    print(f"realize: interval {index} [{iv.start}, {iv.end}): "
                          f"job {job} got work {got.get(job, 0)}, expected {quota}",
                          file=sys.stderr)
                    return EXIT_INFEASIBLE
        print(f"realized {len(trace.intervals)} intervals", file=report)
    if args.out:
        with _output(args.out) as fh:
            write_trace(trace, fh)
    print(f"objective={to_float(trace.objective)!r} makespan={to_float(trace.makespan)!r}",
          file=report)
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_any(args.input, exact=args.exact)
    if args.gamma is not None:
        instance = with_speedup(instance, args.gamma)
    trace = simulate(instance)
    cert = FAMILIES[args.family](trace, instance)
    report = sys.stderr if args.out == "-" else sys.stdout

    print(f"family={cert.family} gamma={to_float(cert.gamma)!r} "
          f"required={cert.gamma_required!r} gamma_ok={cert.gamma_ok}", file=report)
    if not cert.gamma_ok:
        print("warning: speedup below the family's threshold; "
              "violations are expected", file=sys.stderr)
    print(f"alpha_total={to_float(cert.alpha_total)!r} "
          f"beta_total={to_float(cert.beta_total)!r} "
          f"objective={to_float(cert.objective)!r}", file=report)
    for name, slack, witness in cert.min_slack_table():
        print(f"  check {name}: min_slack={slack!r} at {witness}", file=report)
    for v in cert.violations()[:10]:
        print(f"  violation {v.check} at {v.witness}: "
              f"lhs={v.lhs!r} rhs={v.rhs!r}", file=sys.stderr)
    total = sum(r.violation_count for r in cert.checks if not r.diagnostic)
    if total > 10:
        print(f"  ... {total} violations total", file=sys.stderr)
    try:
        print(f"certified_ratio={to_float(certified_ratio(cert, trace))!r}", file=report)
    except AnalysisError as exc:
        print(f"no certified ratio: {exc}", file=sys.stderr)
    print(f"feasible={cert.feasible}", file=report)
    if args.out:
        with _output(args.out) as fh:
            json.dump(cert.to_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


def cmd_emit_lp(args) -> int:
    instance = _load_any(args.instance, exact=args.exact)
    text = emit_lp(instance, args.horizon)
    with _output(args.out) as fh:
        fh.write(text)
    if args.solution:
        try:
            with open(args.solution, "r", encoding="utf-8") as sfh:
                values = parse_lp_solution(sfh.read())
        except LpError as exc:
            print(f"solution parse error: {exc}", file=sys.stderr)
            return EXIT_IO
        bad = check_lp_solution(instance, values, args.horizon)
        value = solution_objective(instance, values, args.horizon)
        report = sys.stderr if args.out in (None, "-") else sys.stdout
        print(f"solution objective={value!r} violations={len(bad)}", file=report)
        for name, lhs, rhs in bad[:10]:
            print(f"  {name}: lhs={lhs!r} rhs={rhs!r}", file=sys.stderr)
        if bad:
            return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.family == "lower":
        instance = gen_lower_bound(args.k)
        payload = instance_to_dict(instance)
    elif args.family == "random":
        instance = gen_random_ica(args.k, args.jobs, args.max_tasks, args.seed)
        payload = instance_to_dict(instance)
    else:
        speeds = gen_raw_speeds(args.profile, args.seed, count=args.count)
        payload = {
            "profile": args.profile,
            "seed": args.seed,
            "speeds": speeds,
        }
    with _output(args.out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _bench_row(instance, gamma, builder, k, n, seed):
    instance = with_speedup(instance, gamma)
    trace = simulate(instance)
    row = {
        "K": k,
        "n": n,
        "seed": seed,
        "gamma": float(gamma),
        "makespan": float(trace.makespan),
        "objective": float(trace.objective),
        "lp_lb": "",
        "dual_lb": "",
        "ratio": "",
    }
    try:
        cert = builder(trace, instance)
        ratio = certified_ratio(cert, trace)
    except AnalysisError:
        return row
    dual = float(cert.objective)
    row["dual_lb"] = dual
    row["lp_lb"] = dual / 2
    row["ratio"] = float(ratio)
    return row


def _seed_list(text) -> list:
    """--seeds: comma-separated ints, blanks skipped."""
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def cmd_bench(args) -> int:
    rows = []  # by K, the lower-bound row first, then the seeds in numeric order
    for k in range(args.k_min, args.k_max + 1):
        if args.family in ("lower", "both"):
            instance = gen_lower_bound(k)
            rows.append(_bench_row(
                instance, single_job_threshold(instance), build_single_job_duals,
                k, instance.task_count(), "",
            ))
        if args.family in ("random", "both"):
            for seed in sorted(args.seeds):
                instance = gen_random_ica(k, args.jobs, args.max_tasks, seed)
                rows.append(_bench_row(
                    instance, weaker_threshold(instance), build_weaker_duals,
                    k, instance.task_count(), seed,
                ))
    with _output(args.out) as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["K", "n", "seed", "gamma", "makespan", "objective",
                            "lp_lb", "dual_lb", "ratio"],
        )
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bagsched",
        description="Water-filling scheduler for bags of tasks on related "
                    "machines, with dual-fitting certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run the scheduler on an instance")
    ps.add_argument("instance", help="instance JSON (or trace JSONL) path")
    ps.add_argument("--gamma", type=float, default=None,
                    help="override the speedup")
    ps.add_argument("--preprocess", action="store_true",
                    help="round speeds and reselect classes first")
    ps.add_argument("--realize", action="store_true",
                    help="realize every interval and check delivered work")
    ps.add_argument("--exact", action="store_true",
                    help="rational arithmetic")
    ps.add_argument("--out", default=None, help="write trace JSONL here")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="build a dual certificate for a run")
    pv.add_argument("input", help="instance JSON or trace JSONL path")
    pv.add_argument("--family", choices=sorted(FAMILIES), required=True)
    pv.add_argument("--gamma", type=float, default=None,
                    help="override the speedup (thresholds re-checked)")
    pv.add_argument("--exact", action="store_true")
    pv.add_argument("--out", default=None, help="write certificate JSON here")
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("emit-lp", help="emit the completion-time LP")
    pl.add_argument("instance")
    pl.add_argument("--horizon", type=int, required=True,
                    help="unit slots to model")
    pl.add_argument("--solution", default=None,
                    help="check a name/value solution file against the LP")
    pl.add_argument("--exact", action="store_true")
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_emit_lp)

    pg = sub.add_parser("gen", help="generate instances or raw speeds")
    pg.add_argument("family", choices=["lower", "random", "speeds"])
    pg.add_argument("--k", type=int, default=2)
    pg.add_argument("--jobs", type=int, default=3)
    pg.add_argument("--max-tasks", type=int, default=4)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--profile", choices=["uniform", "geometric", "clustered"],
                    default="uniform")
    pg.add_argument("--count", type=int, default=None,
                    help="speeds to write (default 5); read by the uniform "
                         "and geometric profiles, refused by clustered")
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="sweep generators, write a CSV")
    pb.add_argument("--family", choices=["lower", "random", "both"],
                    default="both")
    pb.add_argument("--k-min", type=int, default=1)
    pb.add_argument("--k-max", type=int, default=3)
    pb.add_argument("--seeds", type=_seed_list, default=[],
                    help="comma-separated seeds for the random family")
    pb.add_argument("--jobs", type=int, default=3)
    pb.add_argument("--max-tasks", type=int, default=4)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InstanceError, AnalysisError, RateError, LpError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
