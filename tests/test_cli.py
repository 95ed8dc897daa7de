"""Command-line interface: subcommands, exit codes, output contracts."""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagsched import cli, gen_random_ica, make_instance, make_job
from bagsched.cli import main
from bagsched.instances import instance_from_dict, instance_to_dict
from bagsched.lp import LpError, check_lp_solution, solution_objective
from bagsched.numutil import EVENT_REL
from bagsched.report import AnalysisError
from bagsched.sim import simulate, write_trace


def run_cli(*argv):
    return main(list(argv))


def gen_instance(tmp_path, *argv):
    path = tmp_path / "instance.json"
    assert run_cli("gen", *argv, "--out", str(path)) == 0
    return path


def test_gen_lower_writes_instance(tmp_path, capsys):
    path = gen_instance(tmp_path, "lower", "--k", "2")
    data = json.loads(path.read_text())
    assert [c["sigma"] for c in data["classes"]] == [64, 1]
    assert [c["count"] for c in data["classes"]] == [1, 128]
    assert len(data["jobs"]) == 1


def test_gen_speeds_profile(tmp_path):
    path = tmp_path / "speeds.json"
    assert run_cli("gen", "speeds", "--profile", "geometric", "--seed", "4",
                   "--count", "6", "--out", str(path)) == 0
    data = json.loads(path.read_text())
    assert data["profile"] == "geometric"
    assert len(data["speeds"]) == 6


def test_gen_speeds_count_defaults_and_clustered_refusal(tmp_path, capsys):
    # uniform and geometric read --count, 5 when it is not given; clustered
    # writes its fixed shape and refuses an explicit count, naming the shape
    path = tmp_path / "speeds.json"
    for profile in ("uniform", "geometric"):
        assert run_cli("gen", "speeds", "--profile", profile, "--out", str(path)) == 0
        assert len(json.loads(path.read_text())["speeds"]) == 5
    assert run_cli("gen", "speeds", "--profile", "clustered", "--out", str(path)) == 0
    assert len(json.loads(path.read_text())["speeds"]) == 16502
    capsys.readouterr()
    assert run_cli("gen", "speeds", "--profile", "clustered", "--count", "5",
                   "--out", str(path)) == 3
    assert "2 fast and 16,500 slow" in capsys.readouterr().err


def test_simulate_prints_objective(tmp_path, capsys):
    path = gen_instance(tmp_path, "lower", "--k", "2")
    assert run_cli("simulate", str(path)) == 0
    out = capsys.readouterr().out
    assert "objective=" in out and "makespan=" in out
    assert "1.65625" in out


def test_simulate_writes_trace_and_verify_reads_it(tmp_path, capsys):
    inst = gen_instance(tmp_path, "lower", "--k", "2")
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", str(inst), "--gamma", "4", "--realize",
                   "--out", str(trace)) == 0
    capsys.readouterr()
    cert = tmp_path / "cert.json"
    assert run_cli("verify", str(trace), "--family", "single",
                   "--out", str(cert)) == 0
    out = capsys.readouterr().out
    assert "feasible=True" in out
    doc = json.loads(cert.read_text())
    assert doc["family"] == "single_job"
    assert doc["gamma"] == 4.0
    assert doc["feasible"] is True


def test_simulate_preprocess_rounds_and_inflates(tmp_path, capsys):
    # speeds 100 and 1.5 round down to 64 and 1; the slow class's capacity
    # 9000 is at least 2 * 64 * 64, so both classes stay, and each count
    # doubles with the K = 2 classes kept. The task of size 128 then runs
    # at 64 instead of 100.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "classes": [{"sigma": 100, "count": 1}, {"sigma": 1.5, "count": 9000}],
        "jobs": [{"weight": 1, "sizes": [128]}],
    }))
    assert run_cli("simulate", str(path)) == 0
    assert capsys.readouterr().out == "objective=1.28 makespan=1.28\n"
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", str(path), "--preprocess", "--out", str(trace)) == 0
    assert capsys.readouterr().out == "objective=2.0 makespan=2.0\n"
    meta = json.loads(trace.read_text().splitlines()[0])
    assert meta["classes"] == [[64.0, 2], [1.0, 18000]]


def test_simulate_preprocess_never_expands_machines(tmp_path, capsys):
    # 2,001,001 machines: each class is rounded once with its count, so the
    # instance that plain simulate runs also preprocesses; the machines were
    # once expanded one by one and refused past a million
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "classes": [{"sigma": 100, "count": 1}, {"sigma": 1.5, "count": 2_001_000}],
        "jobs": [{"weight": 1, "sizes": [128]}],
    }))
    assert run_cli("simulate", str(path)) == 0
    assert capsys.readouterr().out == "objective=1.28 makespan=1.28\n"
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", str(path), "--preprocess", "--out", str(trace)) == 0
    assert capsys.readouterr().out == "objective=2.0 makespan=2.0\n"
    meta = json.loads(trace.read_text().splitlines()[0])
    assert meta["classes"] == [[64.0, 2], [1.0, 4_002_000]]


def test_simulate_realize_rejects_short_work(tmp_path, monkeypatch, capsys):
    # every pool runs at half its rate, so each job gets half its quota
    realize = cli.realize_slice

    def short(profile, instance, interval):
        sl = realize(profile, instance, interval)
        sl.segments = [seg._replace(placements=tuple(
            pl._replace(per_task_rate=pl.per_task_rate / 2) for pl in seg.placements))
            for seg in sl.segments]
        return sl

    monkeypatch.setattr(cli, "realize_slice", short)
    inst = gen_instance(tmp_path, "lower", "--k", "2")
    assert run_cli("simulate", str(inst), "--gamma", "4", "--realize") == 1
    err = capsys.readouterr().err
    assert "interval 0" in err and "job 1" in err


def _tiny_instance(tmp_path):
    """gen_random_ica(2, 6, 3, 1) with every size times 2^-60: its first
    quota is about 3.4e-18, far below an absolute floor of WORK_REL."""
    inst = gen_random_ica(2, 6, 3, 1)
    inst = make_instance(inst.classes, [
        make_job(job.job_id, job.weight,
                 [(math.ldexp(g.size, -60), g.count) for g in job.groups])
        for job in inst.jobs])
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    return path


@pytest.mark.parametrize("mode", [(), ("--exact",)], ids=["float", "exact"])
def test_simulate_realize_checks_what_the_segments_deliver(tmp_path, monkeypatch,
                                                         capsys, mode):
    # the slices' work records are left as realized, but the least job
    # alive in a slice is taken out of every segment: the check sums the
    # segments, so it names that job in the first interval, in exact mode
    # and in float mode at quotas far below 1e-6
    path = _tiny_instance(tmp_path)
    argv = ("simulate", str(path), "--gamma", "8", "--realize") + mode
    assert run_cli(*argv) == 0
    realize = cli.realize_slice

    def dropped(profile, instance, interval):
        sl = realize(profile, instance, interval)
        job = min(m.job_id for m in profile.members())
        sl.segments = [seg._replace(placements=tuple(
            pl._replace(members=tuple(m for m in pl.members if m[0] != job))
            for pl in seg.placements)) for seg in sl.segments]
        return sl

    monkeypatch.setattr(cli, "realize_slice", dropped)
    capsys.readouterr()
    assert run_cli(*argv) == 1
    job = simulate(cli.with_speedup(cli._load_any(str(path), exact=bool(mode)), 8)
                   ).intervals[0].jobs[0].job_id
    err = capsys.readouterr().err
    assert err.startswith("realize: interval 0 [")
    assert f"job {job} got work 0, expected " in err


@pytest.mark.parametrize("edge", ["start", "end"])
def test_simulate_realize_checks_exact_work_exactly(tmp_path, monkeypatch, capsys, edge):
    # the last segment of each slice starts or ends 10^-30 late, far inside
    # WORK_REL: its jobs get that much less or more work than their quotas,
    # a segment that does not start where the one before ended being
    # measured from its own start, and the exact check names the first job
    from fractions import Fraction

    path = _tiny_instance(tmp_path)
    argv = ("simulate", str(path), "--gamma", "8", "--realize", "--exact")
    realize = cli.realize_slice
    late = []

    def moved(profile, instance, interval):
        sl = realize(profile, instance, interval)
        last = sl.segments[-1]
        sl.segments[-1] = last._replace(**{edge: getattr(last, edge) + Fraction(1, 10 ** 30)})
        late.append(min(job for pl in last.placements if pl.per_task_rate
                        for job, _ in pl.members))
        return sl

    monkeypatch.setattr(cli, "realize_slice", moved)
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("realize: interval 0 [")
    assert f"job {late[0]} got work " in err


def test_jobs_of_the_other_mode_are_a_precondition(tmp_path, monkeypatch,
                                                   capsys):
    # a loader that hands `simulate --exact` float jobs gets exit 3, not a
    # run whose "exact" sums fall back to floats
    load = cli.instance_from_dict

    def float_jobs(data, exact=False):
        inst = load(data)
        return cli.make_instance(inst.classes, inst.jobs, exact=exact)

    monkeypatch.setattr(cli, "instance_from_dict", float_jobs)
    inst = gen_instance(tmp_path, "random", "--k", "2", "--jobs", "2",
                        "--seed", "1")
    capsys.readouterr()
    assert run_cli("simulate", str(inst)) == 0
    assert run_cli("simulate", str(inst), "--exact") == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition: job 1: weight ")
    assert err.rstrip().endswith("is a float in an exact instance")


def test_verify_exit_codes(tmp_path, capsys):
    inst = gen_instance(tmp_path, "lower", "--k", "2")
    # infeasible below threshold: exit 1 and a warning on stderr
    code = run_cli("verify", str(inst), "--family", "weaker", "--gamma", "1")
    err = capsys.readouterr().err
    assert code == 1
    assert "below" in err.lower() or "threshold" in err.lower() or err

    # feasible at the proper speedup: exit 0
    assert run_cli("verify", str(inst), "--family", "single",
                   "--gamma", "4") == 0

    # two jobs cannot use the single-job family: precondition exit 3
    multi = gen_instance(tmp_path, "random", "--k", "2", "--jobs", "2",
                         "--max-tasks", "2", "--seed", "1")
    capsys.readouterr()
    assert run_cli("verify", str(multi), "--family", "single",
                   "--gamma", "4") == 3



@pytest.mark.parametrize("gamma", ["1", "2048"])
def test_general_family_writes_a_short_block_violation(tmp_path, capsys, gamma):
    # 570 alive tasks on 129 machines: at t=0 job 1's 70 tasks hold the
    # fast machine and 69 slow ones, and job 2's block is short on the 59
    # slow machines left, one class only. The short-block-two-classes
    # witness once nested that class list, and --out died with a TypeError
    # and exit 1
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "classes": [{"sigma": 64, "count": 1}, {"sigma": 1, "count": 128}],
        "jobs": [{"weight": 10, "sizes": [{"size": 5, "count": 70}]},
                 {"weight": 1, "sizes": [{"size": 1, "count": 500}]}],
    }))
    out = tmp_path / "cert.json"
    assert run_cli("verify", str(path), "--family", "general", "--gamma", gamma,
                   "--out", str(out)) == 0
    capsys.readouterr()
    cert = json.loads(out.read_text())
    assert cert["feasible"]
    (record,) = [c for c in cert["checks"] if c["name"] == "short-block-two-classes"]
    assert record["violations"] == 1
    assert record["violation_sample"][0]["witness"] == [0, 1, 2]


def test_a_trace_without_an_embedded_instance_is_a_precondition(tmp_path, capsys):
    path = gen_instance(tmp_path, "lower", "--k", "2")
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", str(path), "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    meta = json.loads(lines[0])
    del meta["instance"]
    trace.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(trace), "--family", "weaker") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"precondition: {trace}: trace lacks an embedded instance record\n")


def test_emit_lp_refuses_a_horizon_below_one(tmp_path, capsys):
    path = gen_instance(tmp_path, "lower", "--k", "2")
    capsys.readouterr()
    assert run_cli("emit-lp", str(path), "--horizon", "0") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition: horizon must be >= 1, got 0\n"


def test_general_family_needs_the_capacity_conditions(tmp_path, capsys):
    # 100 slow machines fall short of the capacity growth 2*64 needs of
    # the one fast machine
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "classes": [{"sigma": 64, "count": 1}, {"sigma": 1, "count": 100}],
        "jobs": [{"weight": 1, "sizes": [64]}],
    }))
    assert run_cli("verify", str(path), "--family", "general") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition:")
    assert "capacity growth conditions" in captured.err


def test_verify_records_slacks_too_large_for_a_float(tmp_path, capsys):
    # a weight of 1e308 makes slacks of +-inf in float mode and Fractions
    # too large for a float in exact mode; both are recorded, not raised
    path = gen_instance(tmp_path, "random", "--k", "2", "--jobs", "3",
                        "--max-tasks", "2", "--seed", "1")
    data = json.loads(path.read_text())
    data["jobs"][0]["weight"] = 1e308
    path.write_text(json.dumps(data))
    capsys.readouterr()
    for mode in ((), ("--exact",)):
        out_path = tmp_path / "cert.json"
        code = run_cli("verify", str(path), "--family", "weaker", *mode,
                       "--out", str(out_path))
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert out.startswith("family=weaker")
        assert f"feasible={code == 0}" in out
        cert = json.loads(out_path.read_text())
        assert not any("slack_histogram" in c for c in cert["checks"])
        assert all(c["checked"] > 0 for c in cert["checks"])


@pytest.mark.parametrize("command, exact_out", [
    (("simulate",), "objective=inf makespan=23.07380842470888\n"),
    (("verify", "--family", "weaker", "--gamma", "8"), "feasible=True\n"),
], ids=["simulate", "verify"])
def test_objective_past_the_float_range(tmp_path, capsys, command, exact_out):
    # job 2 at weight 1e308 takes the objective past the float range. The
    # float run once printed objective=inf, or a nan dual objective beside
    # feasible=True, and exited 0; it now refuses and points to --exact.
    # The exact run once died converting a Fraction for printing; it now
    # prints inf and exits on its checks.
    path = gen_instance(tmp_path, "random", "--k", "2", "--jobs", "3",
                        "--max-tasks", "2", "--seed", "1")
    data = json.loads(path.read_text())
    data["jobs"][1]["weight"] = 1e308
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command[0], str(path), *command[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition:")
    assert "--exact" in captured.err
    assert run_cli(command[0], str(path), *command[1:], "--exact") == 0
    assert capsys.readouterr().out.endswith(exact_out)


def test_speedup_past_the_float_range(tmp_path, capsys):
    # a speedup of 10^400 once killed float simulate with an OverflowError
    # traceback in instances._finite, verify --exact with one in the
    # certificate's threshold test, and verify --family general --exact with
    # one in the log blocks takes of each class centre; all exited 1
    path = gen_instance(tmp_path, "lower", "--k", "2")
    data = json.loads(path.read_text())
    data["speedup"] = {"num": 10 ** 400, "den": 1}
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("simulate", str(path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition:")
    assert "--exact" in captured.err
    assert run_cli("verify", str(path), "--family", "weaker", "--exact") == 0
    captured = capsys.readouterr()
    assert "gamma=inf" in captured.out
    assert captured.out.endswith("certified_ratio=inf\nfeasible=True\n")
    assert captured.err == ""
    assert run_cli("verify", str(path), "--family", "general", "--exact") == 0
    captured = capsys.readouterr()
    assert "gamma=inf" in captured.out
    assert captured.out.endswith("feasible=True\n")
    assert captured.err == "no certified ratio: dual objective -0.0 is not positive\n"
    # rate-cover's slacks are all NaN here; every record that ran a
    # comparison still names a witness
    assert "check rate-cover: min_slack=inf at (0, 1, 0, 1)\n" in captured.out
    assert "min_slack=inf at ()" not in captured.out


def test_speeds_below_the_float_range(tmp_path, capsys):
    # exact class speeds of 64/10^400 and 1/10^400 round to 0.0 as floats;
    # the general family's log-scale class choice once died on log(0.0)
    path = gen_instance(tmp_path, "lower", "--k", "2")
    data = json.loads(path.read_text())
    for c in data["classes"]:
        c["sigma"] = {"num": c["sigma"], "den": 10 ** 400}
    data["speedup"] = 2048
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", str(path), "--family", "general", "--exact") == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("feasible=True\n")
    assert captured.err == "no certified ratio: dual objective -inf is not positive\n"


def test_emit_lp_refuses_a_horizon_past_the_term_cap(tmp_path, capsys):
    inst = tmp_path / "unit.json"
    inst.write_text(json.dumps({
        "classes": [{"sigma": 1, "count": 1}],
        "jobs": [{"weight": 1, "release": 0, "sizes": [1]}],
    }))
    out = tmp_path / "model.lp"
    assert run_cli("emit-lp", str(inst), "--horizon", "1411",
                   "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("precondition: LP too large")
    assert not out.exists()


def test_lp_values_past_the_float_range_are_a_precondition(tmp_path, capsys):
    # the LP text holds floats: emit-lp --exact once died with an
    # OverflowError traceback on a weight of 10^400, where the float run
    # already exits 3 and points to --exact
    data = {"classes": [{"sigma": 1, "count": 1}],
            "jobs": [{"weight": {"num": 10 ** 400, "den": 1}, "sizes": [1]}]}
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(data))
    assert run_cli("emit-lp", str(path), "--horizon", "2") == 3
    assert "rerun with --exact" in capsys.readouterr().err
    assert run_cli("emit-lp", str(path), "--horizon", "2", "--exact") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition: job 1: weight does not fit a float, "
                            "and the LP text holds floats\n")
    for read in (solution_objective, check_lp_solution):
        with pytest.raises(LpError, match="^job 1: weight does not fit a float"):
            read(instance_from_dict(data, exact=True), {}, 2)
    # a size of 10^-400 rounds to 0.0, and its inverse is past the range
    data["jobs"] = [{"weight": 1, "sizes": [{"num": 1, "den": 10 ** 400}]}]
    path.write_text(json.dumps(data))
    assert run_cli("emit-lp", str(path), "--horizon", "2", "--exact") == 3
    assert capsys.readouterr().err.startswith(
        "precondition: task 1: 1/size does not fit a float")
    with pytest.raises(LpError, match="^task 1: size does not fit a float"):
        check_lp_solution(instance_from_dict(data, exact=True), {}, 2)


def test_missing_file_is_io_error(capsys):
    assert run_cli("simulate", "/nonexistent/instance.json") == 2


def test_malformed_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("simulate", str(bad)) == 2


@pytest.mark.parametrize("text", ["", " \n"], ids=["empty", "blank"])
@pytest.mark.parametrize("command", [("simulate",), ("verify", "--family", "weaker"),
                                     ("emit-lp", "--horizon", "1")])
def test_a_file_without_json_is_io_error(tmp_path, capsys, text, command):
    # an empty file once exited 3 as an "empty file" precondition, while a
    # blank one exited 2: neither holds JSON
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run_cli(command[0], str(path), *command[1:]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_emit_lp_and_solution_flow(tmp_path, capsys):
    inst = tmp_path / "unit.json"
    inst.write_text(json.dumps({
        "classes": [{"sigma": 1, "count": 1}],
        "jobs": [{"weight": 1, "release": 0, "sizes": [1]}],
        "speedup": 1,
    }))
    lp_path = tmp_path / "model.lp"
    assert run_cli("emit-lp", str(inst), "--horizon", "2",
                   "--out", str(lp_path)) == 0
    text = lp_path.read_text()
    assert "Minimize" in text and "x_1_1_0" in text

    good = tmp_path / "good.sol"
    good.write_text("x_1_1_0 1\nC_1 1\nU_1_0 1\n")
    capsys.readouterr()
    assert run_cli("emit-lp", str(inst), "--horizon", "2",
                   "--solution", str(good)) == 0
    assert "objective" in capsys.readouterr().err  # the LP is on stdout

    bad = tmp_path / "bad.sol"
    bad.write_text("x_1_1_0 0.25\nC_1 0.25\nU_1_0 1\n")
    assert run_cli("emit-lp", str(inst), "--horizon", "2",
                   "--solution", str(bad)) == 1


def test_emit_lp_reports_beside_the_lp_on_stdout(tmp_path, capsys):
    # the LP on stdout once ended with its solution's report line; with the
    # LP in a file, the report stays on stdout
    inst = gen_instance(tmp_path, "lower", "--k", "1")
    sol = tmp_path / "s.sol"
    sol.write_text("x_1_1_0 1\nC_1 1\nU_1_0 1\n")
    for out in ([], ["--out", "-"]):
        assert run_cli("emit-lp", str(inst), "--horizon", "1", "--solution", str(sol),
                       *out) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("End\n")
        assert captured.err == "solution objective=2.0 violations=0\n"
    assert run_cli("emit-lp", str(inst), "--horizon", "1", "--solution", str(sol),
                   "--out", str(tmp_path / "m.lp")) == 0
    assert capsys.readouterr() == ("solution objective=2.0 violations=0\n", "")


@pytest.mark.parametrize("realize", [[], ["--realize"]])
def test_simulate_reports_beside_a_trace_on_stdout(tmp_path, capsys, realize):
    # the trace on stdout once had "realized ..." and "objective=..." lines
    # around it
    inst = gen_instance(tmp_path, "lower", "--k", "2")
    assert run_cli("simulate", str(inst), "--gamma", "4", *realize, "--out", "-") == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert records[0]["type"] == "meta"
    assert "objective=" in captured.err
    assert ("realized " in captured.err) == bool(realize)


def test_verify_reports_beside_a_certificate_on_stdout(tmp_path, capsys):
    # the report once came before the certificate JSON on stdout
    inst = gen_instance(tmp_path, "lower", "--k", "2")
    assert run_cli("verify", str(inst), "--family", "single", "--gamma", "4",
                   "--out", "-") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["feasible"] is True
    assert "feasible=True" in captured.err and "certified_ratio=" in captured.err


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-Infinity", "1e400"])
def test_a_solution_value_that_is_no_finite_number_is_a_parse_error(
        tmp_path, capsys, value):
    # "abc" once died with a ValueError traceback and exit 1, and nan and
    # inf were read and printed as "solution objective=nan"
    inst = tmp_path / "unit.json"
    inst.write_text(json.dumps({"classes": [{"sigma": 1, "count": 1}],
                                "jobs": [{"weight": 1, "sizes": [1]}]}))
    sol = tmp_path / "values.sol"
    sol.write_text(f"x_1_1_0 1\nC_1 {value}\n")
    assert run_cli("emit-lp", str(inst), "--horizon", "2", "--out",
                   str(tmp_path / "model.lp"), "--solution", str(sol)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solution parse error: bad solution line: 'C_1 {value}'\n"


def test_bench_csv_contract(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert run_cli("bench", "--family", "both", "--k-min", "1",
                       "--k-max", "2", "--seeds", "0,1", "--jobs", "2",
                       "--max-tasks", "3", "--out", str(out)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()  # deterministic
    lines = out_a.read_text().strip().splitlines()
    assert lines[0] == "K,n,seed,gamma,makespan,objective,lp_lb,dual_lb,ratio"
    # 2 lower-bound rows (K=1,2) + 2 K-values * 2 seeds random rows
    assert len(lines) == 1 + 2 + 4


def test_bench_rows_run_by_k_then_seed(tmp_path):
    # rows were sorted on the seed's text, so seed 10 came before seed 2
    out = tmp_path / "b.csv"
    assert run_cli("bench", "--k-min", "1", "--k-max", "2", "--seeds", "10,2",
                   "--jobs", "2", "--max-tasks", "2", "--out", str(out)) == 0
    rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
    assert [(k, seed) for k, _, seed in rows] == [
        ("1", ""), ("1", "2"), ("1", "10"), ("2", ""), ("2", "2"), ("2", "10")]


def test_bench_leaves_the_bounds_empty_without_a_certified_ratio(tmp_path, monkeypatch):
    def refused(trace, instance):
        raise AnalysisError("refused")

    monkeypatch.setattr(cli, "build_weaker_duals", refused)
    out = tmp_path / "b.csv"
    assert run_cli("bench", "--family", "random", "--k-min", "1", "--k-max", "1",
                   "--seeds", "0", "--jobs", "2", "--max-tasks", "2",
                   "--out", str(out)) == 0
    (row,) = out.read_text().splitlines()[1:]
    assert row.startswith("1,") and row.endswith(",,,")


def test_bench_empty_seeds_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run_cli("bench", "--family", "random", "--seeds", "",
                   "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["K,n,seed,gamma,makespan,objective,lp_lb,dual_lb,ratio"]


def test_bench_bad_seed_is_a_usage_error(capsys):
    # a seed that is not an int once died with a ValueError traceback
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--seeds", "a,1")
    assert exc.value.code == 2
    assert ("argument --seeds: not a comma-separated list of integers: 'a,1'"
            in capsys.readouterr().err)


def test_out_dir_env_redirects_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BAGSCHED_OUT_DIR", str(tmp_path))
    assert run_cli("gen", "lower", "--k", "1", "--out", "inst.json") == 0
    assert (tmp_path / "inst.json").exists()


def test_output_goes_to_stdout_or_a_file_closed_on_error(tmp_path, monkeypatch,
                                                         capsys):
    assert run_cli("gen", "lower", "--k", "1", "--out", "-") == 0
    assert json.loads(capsys.readouterr().out)["classes"] == [
        {"sigma": 1, "count": 1}]
    handles = []

    def failing_write(trace, fh):
        handles.append(fh)
        fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_trace", failing_write)
    path = gen_instance(tmp_path, "lower", "--k", "1")
    assert run_cli("simulate", str(path), "--out", str(tmp_path / "t.jsonl")) == 2
    assert handles[0].closed


@pytest.mark.parametrize("argv", [
    ("random", "--k", "0"),
    ("random", "--jobs", "0"),
    ("lower", "--k", "0"),
    # gen speeds once wrote "speeds": [] for a count below 1, which
    # preprocess_raw_speeds refuses, and took a negative seed
    ("speeds", "--count", "0"),
    ("speeds", "--count", "-1"),
    ("speeds", "--seed", "-1"),
    # the clustered profile has a fixed shape and once ignored a count
    ("speeds", "--profile", "clustered", "--count", "3"),
])
def test_gen_bad_arguments_are_preconditions(tmp_path, capsys, argv):
    assert run_cli("gen", *argv, "--out", str(tmp_path / "x.json")) == 3
    assert capsys.readouterr().err.startswith("precondition:")


NON_FINITE = {
    "size": lambda data: data["jobs"][0]["sizes"].__setitem__(0, math.inf),
    "weight": lambda data: data["jobs"][1].__setitem__("weight", math.nan),
    "speed": lambda data: data["classes"][0].__setitem__("sigma", math.inf),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE))
@pytest.mark.parametrize("command", [("simulate",),
                                     ("verify", "--family", "weaker")])
def test_non_finite_json_is_a_precondition(tmp_path, capsys, field, command):
    # json reads NaN and Infinity; an infinite size once printed a nan
    # objective, and the others died in the rate assignment
    path = gen_instance(tmp_path, "random", "--k", "2", "--jobs", "2",
                        "--max-tasks", "2", "--seed", "1")
    data = json.loads(path.read_text())
    NON_FINITE[field](data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command[0], str(path), *command[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition:")
    assert "must be finite" in captured.err


ZERO_DENOMINATOR = {
    "speedup": lambda data: data.__setitem__("speedup", {"num": 1, "den": 0}),
    "weight": lambda data: data["jobs"][1].__setitem__("weight", {"num": 1, "den": 0}),
    "size": lambda data: data["jobs"][0]["sizes"].__setitem__(0, {"num": 1, "den": 0}),
    "speed": lambda data: data["classes"][0].__setitem__("sigma", {"num": 3, "den": 0}),
}


@pytest.mark.parametrize("field", sorted(ZERO_DENOMINATOR))
@pytest.mark.parametrize("command", [("simulate",),
                                     ("verify", "--family", "weaker"),
                                     ("emit-lp", "--horizon", "2")])
@pytest.mark.parametrize("exact", [(), ("--exact",)])
def test_a_zero_denominator_is_malformed_json(tmp_path, capsys, field, command,
                                              exact):
    # {"num": n, "den": 0} once raised ZeroDivisionError in every command,
    # in both modes, and exited 1 with a traceback
    path = gen_instance(tmp_path, "random", "--k", "2", "--jobs", "2",
                        "--max-tasks", "2", "--seed", "1")
    data = json.loads(path.read_text())
    ZERO_DENOMINATOR[field](data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command[0], str(path), *command[1:], *exact) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition: ")
    assert " must be a number, got {'num': " in captured.err


@pytest.mark.parametrize("classes, sizes", [
    ([{"sigma": 2, "count": 1.5}], [1]),
    ([{"sigma": 2, "count": 1}], [{"size": 2, "count": 2.5}]),
    ([{"sigma": 2, "count": 1}], [{"size": 2, "count": "abc"}]),
    ([{"sigma": 2, "count": True}], [1]),
])
def test_counts_that_are_not_whole_are_a_precondition(tmp_path, capsys,
                                                      classes, sizes):
    # counts were once truncated (1.5 machines ran as 1, 2.5 tasks as 2,
    # true as 1) or died with a ValueError traceback, before any check saw
    # them
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(
        {"classes": classes, "jobs": [{"weight": 1, "sizes": sizes}]}))
    assert run_cli("simulate", str(path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition:")
    assert "must be a whole number >= 1" in captured.err


@pytest.mark.parametrize("classes, sizes, what", [
    ([{"sigma": 2, "count": 10 ** 400}], [1], "class count"),
    ([{"sigma": 2, "count": 1}], [{"size": 2, "count": 10 ** 400}], "job 1: task count"),
])
def test_counts_past_the_float_range_need_exact(tmp_path, capsys, classes, sizes, what):
    # a count of 10^400 is a valid JSON int; float runs of it once died with
    # an OverflowError traceback in SpeedClass.capacity or AliveJob.share
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(
        {"classes": classes, "jobs": [{"weight": 1, "sizes": sizes}]}))
    for command in (("simulate",), ("verify", "--family", "weaker")):
        assert run_cli(command[0], str(path), *command[1:]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"precondition: {what} is too large for a float; "
                                "rerun with --exact\n")
    assert run_cli("simulate", str(path), "--exact") == 0


@pytest.mark.parametrize("k", ["2", "3"])
def test_general_family_takes_a_weight_past_the_float_range_in_exact_mode(
        tmp_path, capsys, k):
    # the worst simple-block ratio once converted a weight of 10^400/3 to a
    # float before dividing, and verify died with an OverflowError traceback;
    # at K = 3, log2 K was a float, so the certificate held floats and
    # multiplying that weight by one died with an OverflowError too
    path = gen_instance(tmp_path, "random", "--k", k, "--jobs", "3",
                        "--max-tasks", "2", "--seed", "1")
    data = json.loads(path.read_text())
    data["jobs"][0]["weight"] = {"num": 10 ** 400, "den": 3}
    path.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "cert.json"
    assert run_cli("verify", str(path), "--family", "general", "--exact",
                   "--out", str(out)) == 0
    assert "feasible=True" in capsys.readouterr().out
    cert = json.loads(out.read_text())
    assert [type(cert[total]) for total in ("alpha_total", "beta_total")] == [dict, dict]


def test_single_family_takes_sizes_past_the_float_range_in_exact_mode(capsys, tmp_path):
    # the band flags' break and reach times, and the epoch-strict-order
    # sides, were converted by a bare float(), and verify died with an
    # OverflowError traceback on sizes of 10^400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "classes": [{"sigma": 64, "count": 1}, {"sigma": 1, "count": 128}],
        "jobs": [{"weight": 1, "sizes": [{"size": 64 * 10 ** 400, "count": 1},
                                         {"size": 10 ** 400, "count": 128}]}],
        "speedup": 4}))
    assert run_cli("verify", str(path), "--family", "single", "--exact") == 0
    out = capsys.readouterr().out
    assert "certified_ratio=16.0" in out and "feasible=True" in out


BOOLEAN_NUMBERS = {
    "all": {"classes": [{"sigma": True, "count": 1}],
            "jobs": [{"weight": True, "sizes": [True]}],
            "speedup": {"num": True, "den": True}},
    "speed": {"classes": [{"sigma": True, "count": 1}],
              "jobs": [{"weight": 1, "sizes": [1]}]},
    "weight": {"classes": [{"sigma": 1, "count": 1}],
               "jobs": [{"weight": False, "sizes": [1]}]},
    "size": {"classes": [{"sigma": 1, "count": 1}],
             "jobs": [{"weight": 1, "sizes": [{"size": True, "count": 2}]}]},
    "release": {"classes": [{"sigma": 1, "count": 1}],
                "jobs": [{"weight": 1, "sizes": [1], "release": False}]},
    "num": {"classes": [{"sigma": 1, "count": 1}],
            "jobs": [{"weight": 1, "sizes": [1]}], "speedup": {"num": True, "den": 2}},
    "den": {"classes": [{"sigma": 1, "count": 1}],
            "jobs": [{"weight": {"num": 3, "den": True}, "sizes": [1]}]},
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_NUMBERS))
@pytest.mark.parametrize("exact", [(), ("--exact",)])
def test_booleans_are_not_numbers(tmp_path, capsys, field, exact):
    # true and false once read as 1 and 0 wherever a number goes: the "all"
    # file simulated at speed, weight, size and speedup 1 (objective=1.0)
    # and exited 0, although a count of true is refused
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(BOOLEAN_NUMBERS[field]))
    assert run_cli("simulate", str(path), *exact) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition: ")
    assert " must be a number, got " in captured.err


@pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
def test_bad_gamma_is_a_precondition(tmp_path, capsys, gamma):
    path = gen_instance(tmp_path, "lower", "--k", "2")
    capsys.readouterr()
    assert run_cli("verify", str(path), "--family", "weaker",
                   "--gamma", gamma) == 3
    assert capsys.readouterr().err.startswith("precondition: speedup must be")


@pytest.mark.parametrize("exact", [(), ("--exact",)])
def test_infinite_trace_gamma_is_a_precondition(tmp_path, capsys, exact):
    # json reads Infinity; under --exact the trace's gamma once reached
    # Fraction(inf) and died with an OverflowError traceback. A trace's
    # speedup is its embedded instance's
    path = gen_instance(tmp_path, "lower", "--k", "2")
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", str(path), "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["instance"]["speedup"] = math.inf
    trace.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(trace), "--family", "weaker", *exact) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition: speedup must be finite")


def test_exact_trace_gamma_round_trips(tmp_path, capsys):
    path = gen_instance(tmp_path, "lower", "--k", "2")
    data = json.loads(path.read_text())
    data["speedup"] = {"num": 70, "den": 3}
    path.write_text(json.dumps(data))
    trace = tmp_path / "trace.jsonl"
    assert run_cli("simulate", str(path), "--exact", "--out", str(trace)) == 0
    meta = json.loads(trace.read_text().splitlines()[0])
    assert meta["gamma"] == {"num": 70, "den": 3}
    capsys.readouterr()
    assert run_cli("verify", str(trace), "--family", "weaker", "--exact") == 0


def test_verify_prints_the_true_violation_total(tmp_path, capsys):
    # each record keeps at most VIOLATION_CAP violation samples; verify once
    # counted the samples and printed 50 where the certificate records 100
    path = gen_instance(tmp_path, "random", "--k", "3", "--jobs", "100",
                        "--seed", "0")
    out_path = tmp_path / "cert.json"
    capsys.readouterr()
    assert run_cli("verify", str(path), "--family", "weaker", "--gamma", "0.5",
                   "--out", str(out_path)) == 1
    err = capsys.readouterr().err
    checks = json.loads(out_path.read_text())["checks"]
    assert sum(c["violations"] for c in checks if not c["diagnostic"]) == 100
    assert "  ... 100 violations total\n" in err


def test_verify_prints_no_slack_for_a_record_that_kept_none(tmp_path, capsys):
    # epoch-strict-order and short-block-two-classes record only plain
    # `require` checks, which keep no slack: their slack is None, not the
    # inf that stands for "no check yet"
    path = gen_instance(tmp_path, "lower", "--k", "3")
    assert run_cli("verify", str(path), "--family", "single", "--gamma", "6") == 0
    out = capsys.readouterr().out
    assert "  check epoch-strict-order: min_slack=None at ()" in out.splitlines()
    assert "min_slack=inf" not in out


def test_python_m_bagsched_runs_from_a_checkout(tmp_path):
    # with only the source tree on the path, as in an uninstalled checkout
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "bagsched", "gen", "lower", "--k", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert [c["sigma"] for c in data["classes"]] == [64, 1]


FUZZ_INSTANCE = {
    "classes": [{"sigma": 2, "count": 1}, {"sigma": 1, "count": 2}],
    "jobs": [{"weight": {"num": 3, "den": 2}, "release": 0,
              "sizes": [1, {"size": 2, "count": 2}]},
             {"weight": 1, "sizes": [{"num": 1, "den": 2}]}],
    "speedup": 2,
}
_FUZZ_TRACE = io.StringIO()
write_trace(simulate(instance_from_dict(FUZZ_INSTANCE)), _FUZZ_TRACE)
FUZZ_META, FUZZ_TRACE_REST = _FUZZ_TRACE.getvalue().split("\n", 1)
FUZZ_BASES = {
    "instance": FUZZ_INSTANCE,
    "trace": json.loads(FUZZ_META),
    "solution": {"x_1_1_0": 0.5, "x_2_2_0": 1, "U_1_0": 1, "C_1": 1.0, "C_2": 2},
}
ODD_VALUES = [True, False, None, "1", [1], 10 ** 400, {"num": 1, "den": 0},
              {"num": 1.5, "den": 2}, {"num": 1, "den": 2.0}, math.nan, math.inf]
DUPLICATE = "__duplicate__"  # renamed to the duplicated key once dumped


def _slots(node):
    """(container, key or index) of every value in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _render(kind, doc, key):
    if kind == "solution":
        text = "".join(f"{name} {json.dumps(value)}\n" for name, value in doc.items())
    else:
        text = json.dumps(doc) + ("\n" + FUZZ_TRACE_REST if kind == "trace" else "")
    return text.replace(DUPLICATE, str(key))


@st.composite
def mutated_files(draw):
    """A valid instance, trace or solution file with one value swapped for an
    odd one, or one key dropped or duplicated with an odd value last."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    doc = copy.deepcopy(FUZZ_BASES[kind])
    parent, key = draw(st.sampled_from(list(_slots(doc))))
    actions = ["swap", "drop"] + ["duplicate"] * isinstance(parent, dict)
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del parent[key]
    elif action == "swap":
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    else:
        parent[DUPLICATE] = draw(st.sampled_from(ODD_VALUES))
    return kind, _render(kind, doc, key)


FLOAT_RANGE_FILES = {
    # rates overflow to inf, so every event time is 0
    "speedup": {"classes": [{"sigma": 2, "count": 1}, {"sigma": 1, "count": 2}],
                "jobs": [{"weight": 1.5, "sizes": [1, {"size": 2, "count": 2}]},
                         {"weight": 1, "sizes": [0.5]}], "speedup": 1e308},
    # job 2 runs for 0.125, less than one ulp of its release
    "release": {"classes": [{"sigma": 2, "count": 1}, {"sigma": 1, "count": 2}],
                "jobs": [{"weight": 1.5, "sizes": [1, {"size": 2, "count": 2}]},
                         {"weight": 1, "release": 2 ** 64, "sizes": [0.5]}],
                "speedup": 2},
    # job 2's rate, its share 1e-320 times the water level 1e-13, is 0.0
    "rate": {"classes": [{"sigma": 1e-13, "count": 1}],
             "jobs": [{"weight": 1, "sizes": [1]}, {"weight": 1e-320, "sizes": [1]}]},
    # each count fits a float, their sum does not
    "groups": {"classes": [{"sigma": 1, "count": 1}],
               "jobs": [{"weight": 1, "sizes": [{"size": 2, "count": 10 ** 308},
                                                {"size": 1, "count": 10 ** 308}]}]},
    "jobs": {"classes": [{"sigma": 1, "count": 1}],
             "jobs": [{"weight": 1, "sizes": [{"size": 1, "count": 10 ** 308}]},
                      {"weight": 1, "sizes": [{"size": 1, "count": 10 ** 308}]}]},
}


@settings(max_examples=150, deadline=None)
@given(case=mutated_files(), exact=st.booleans())
@example(case=("instance", '{"classes": "x"}'), exact=False)
@example(case=("solution", "x_1_1_0 abc\n"), exact=False)
@example(case=("instance", json.dumps(FLOAT_RANGE_FILES["speedup"])), exact=False)
@example(case=("instance", json.dumps(FLOAT_RANGE_FILES["release"])), exact=False)
@example(case=("instance", json.dumps(FLOAT_RANGE_FILES["rate"])), exact=False)
@example(case=("instance", json.dumps(FLOAT_RANGE_FILES["groups"])), exact=False)
@example(case=("instance", json.dumps(FLOAT_RANGE_FILES["jobs"])), exact=False)
def test_every_input_file_ends_in_a_documented_exit(case, exact):
    # emit-lp reads an instance, a trace's meta line or a solution file
    # without simulating, and simulate --realize runs an instance or trace;
    # each bad field once escaped as a Python error (a traceback, or a
    # message such as "string indices must be integers"), and so did a
    # float run that left the float range
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        runs = [["emit-lp", path, "--horizon", "1"]]
        if kind == "solution":
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(FUZZ_INSTANCE, fh)
            runs[0] += ["--solution", path + ".sol"]
            path += ".sol"
        else:
            runs.append(["simulate", path, "--realize"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + ["--exact"] * exact)
            allowed = (0, 1, 2, 3) if kind == "solution" else (0, 2, 3)
            assert code in allowed, err.getvalue()
            # with the LP on stdout, emit-lp's report line goes to stderr,
            # before the violated rows
            refusal = {0: "", 1: "solution objective=", 2: "error: ",
                       3: "precondition: "}[code]
            if kind == "solution" and code == 2:
                refusal = "solution parse error: bad solution line: "
            assert err.getvalue().startswith(refusal), err.getvalue()
            if code == 1:
                assert err.getvalue().splitlines()[1].startswith("  "), err.getvalue()
            assert "Error" not in err.getvalue() and "Traceback" not in err.getvalue()


def test_a_slice_shorter_than_1e_12_realizes(tmp_path, capsys):
    # one of the general-threshold runs: its slice [8.386655e-08,
    # 8.386749e-08) ended after its first segment while the end test granted
    # 1e-12 absolute, and the slice died with a LivelockError
    path = gen_instance(tmp_path, "random", "--k", "4", "--jobs", "20",
                        "--max-tasks", "4", "--seed", "4042006")
    capsys.readouterr()
    assert run_cli("simulate", str(path), "--gamma", "8192", "--realize") == 0
    assert capsys.readouterr().out.startswith("realized 48 intervals\n")


def test_deep_subnormal_quotas_need_exact(tmp_path, capsys):
    # one task on one machine at speedup 1 has its size as its quota; below
    # the least quota whose EVENT_REL share is not 0.0, a float slice can
    # tell no drain from rounding, and is refused. The search starts where
    # that share is half the least subnormal
    edge = math.ldexp(0.5 / EVENT_REL, -1074)
    while EVENT_REL * edge > 0:
        edge = math.nextafter(edge, 0)
    while not EVENT_REL * edge > 0:
        edge = math.nextafter(edge, 1)
    path = tmp_path / "instance.json"
    for size, code in ((edge, 0), (math.nextafter(edge, 0), 3)):
        path.write_text(json.dumps({"classes": [{"sigma": 1, "count": 1}],
                                    "jobs": [{"weight": 1, "sizes": [size]}]}))
        assert run_cli("simulate", str(path), "--realize") == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.startswith("realized 1 intervals\n")
        else:
            assert captured.err == (f"precondition: quotas of [0.0, {size!r}) are too "
                                    "small for float arithmetic; rerun with --exact\n")
        assert run_cli("simulate", str(path), "--realize", "--exact") == 0
        assert capsys.readouterr().out.startswith("realized 1 intervals\n")
    # sizes near 1e-314 stalled with a LivelockError in the first slice
    path.write_text(json.dumps({
        "classes": [{"sigma": 2, "count": 1}, {"sigma": 1, "count": 2}],
        "jobs": [{"weight": 1, "sizes": [3e-314, {"size": 1e-314, "count": 2}]},
                 {"weight": 2.5, "sizes": [2e-314, 2e-314]}], "speedup": 3}))
    assert run_cli("simulate", str(path), "--realize") == 3
    assert capsys.readouterr().err.endswith("rerun with --exact\n")
    assert run_cli("simulate", str(path), "--realize", "--exact") == 0


@pytest.mark.parametrize("name, words", [
    ("speedup", "time stops at t=0.0 in float arithmetic"),
    ("release", "time stops at t=1.8446744073709552e+19 in float arithmetic"),
    ("rate", "job 2's rate is 0.0 at t=0.0 in float arithmetic"),
    ("groups", "total task count is too large for a float"),
    ("jobs", "total task count is too large for a float"),
])
def test_float_runs_past_the_float_range_need_exact(tmp_path, capsys, name, words):
    # each float run once died with a traceback and exit 1: an AssertionError
    # where time stopped, a ZeroDivisionError on a rate of 0.0, or an
    # OverflowError in rates on a task count sum
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(FLOAT_RANGE_FILES[name]))
    assert run_cli("simulate", str(path), "--realize") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition: {words}; rerun with --exact\n"
    assert run_cli("simulate", str(path), "--realize", "--exact") == 0
