"""Tests of the benchmark itself: the seeded generator, the output checker,
the tracer, and the printed result."""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.check import Outcome, check_all, check_task
from perfbench.trace import METRICS, Layer, Tracer
from perfbench.workloads import Task

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(task: Task, tmp_path) -> Outcome:
    from bohemian import cli

    workloads.write_inputs([task], str(tmp_path))
    return run.run_task(cli, task.argv(str(tmp_path)))[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


def test_generator_draws_from_the_seed():
    for workload in ("census", "theorem"):
        assert workloads.build(workload, 1) != workloads.build(workload, 2)


def test_argv_passes_budget_and_never_workers(tmp_path):
    for workload in workloads.WORKLOADS:
        for task in workloads.build(workload, 3):
            argv = task.argv(str(tmp_path))
            assert "--budget" in argv and "--workers" not in argv


# -- checker -------------------------------------------------------------

STREAM = Task("s", "oracle", ((1, 1, 1),), "1", expect_count=6)


@pytest.fixture
def stream_output(tmp_path):
    out = _run(STREAM, tmp_path)
    assert check_task(STREAM, out) == []
    return out


def _members(stdout: str) -> list[str]:
    return stdout.split("\n\n")[:-1]


def test_checker_rejects_a_flipped_entry(stream_output):
    first, rest = stream_output.stdout.split("\n", 1)
    flipped = first.replace("0", "1", 1) if "0" in first else first.replace("1", "0", 1)
    bad = replace(stream_output, stdout=flipped + "\n" + rest)
    assert check_task(STREAM, bad)


def test_checker_rejects_a_dropped_member(stream_output):
    members = _members(stream_output.stdout)
    body = "\n\n".join(members[1:]) + "\n\ncount: 6\n"
    bad = replace(stream_output, stdout=body)
    assert check_task(STREAM, bad)
    # dropping the member and fixing the count still misses the closed form
    bad = replace(stream_output, stdout=body.replace("count: 6", "count: 5"))
    assert check_task(STREAM, bad)


def test_checker_rejects_a_wrong_count_record(stream_output):
    bad = replace(stream_output, stdout=stream_output.stdout.replace("count: 6", "count: 7"))
    assert check_task(STREAM, bad)


def test_checker_rejects_unexpected_exit_and_tracebacks(stream_output):
    assert check_task(STREAM, replace(stream_output, exit_code=1))
    assert check_task(STREAM, replace(stream_output, stderr="Traceback (most recent ...)"))
    assert check_task(STREAM, Outcome(None, "", "", "Traceback ...\nKeyError: 1\n"))


def test_checker_rejects_members_out_of_order(stream_output):
    members = _members(stream_output.stdout)
    body = "\n\n".join(members[::-1]) + "\n\ncount: 6\n"
    assert check_task(STREAM, replace(stream_output, stdout=body))


def test_count_only_twin_must_agree(tmp_path, stream_output):
    twin = Task("c", "oracle", STREAM.matrix, "1", count_only=True, twin="s")
    out = _run(twin, tmp_path)
    assert check_all([STREAM, twin], [stream_output, out]) == {}
    bad = replace(out, stdout="count: 5\n")
    assert set(check_all([STREAM, twin], [stream_output, bad])) == {"c"}


def test_theorem_output_needs_a_theorem_id(tmp_path):
    task = Task("t", "theorem", ((1, 1), (1, 1)), "1", expect_count=16)
    out = _run(task, tmp_path)
    assert check_task(task, out) == []
    headerless = out.stdout.split("\n", 1)[1]
    assert check_task(task, replace(out, stdout=headerless))


def test_verify_allows_only_the_known_gaps(tmp_path):
    task = Task("v", "verify", suite="outer")
    out = _run(task, tmp_path)
    assert check_task(task, out) == []
    payload = json.loads(out.stdout)
    payload["outcomes"][0]["discrepancies"][0]["theorem_id"] = "Thm3.5"
    assert check_task(task, replace(out, stdout=json.dumps(payload)))


# -- tracer ----------------------------------------------------------------

def test_tracer_rebinds_importers_and_restores(tmp_path):
    from bohemian import census, matrices

    original = matrices._product_rows
    tracer = Tracer()
    tracer.install()
    try:
        assert census._product_rows is matrices._product_rows is not original
        _run(STREAM, tmp_path)
        stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert census._product_rows is original and matrices._product_rows is original
    scan = stats["census.scan"]
    assert scan.calls == 1 and scan.counters == {"candidates": 27, "hits": 6}
    assert stats["matrices.product_rows"].calls > 0
    cli = stats["cli"]
    assert 0 <= cli.self_s <= cli.total_s
    assert scan.total_s <= cli.total_s


def _inner():
    return 1


def _outer():
    return _inner() + _inner()


def test_child_wrapper_overhead_is_not_parent_self_time():
    def slow_hook(args, kwargs, result, fn):
        time.sleep(0.1)
        return {}

    tracer = Tracer(layers=(Layer("outer", (f"{__name__}:_outer",)),
                            Layer("inner", (f"{__name__}:_inner",), slow_hook)))
    tracer.install()
    try:
        assert _outer() == 2
        stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    outer, inner = stats["outer"], stats["inner"]
    assert inner.calls == 2 and outer.calls == 1
    assert outer.total_s >= 0.2  # both hooks ran inside the outer call
    assert outer.self_s < 0.1  # ... and neither is charged to it


def test_missing_target_is_absent_not_a_crash():
    tracer = Tracer(layers=(Layer("gone", ("bohemian.matrices:no_such_function",)),))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gone"]


def test_task_time_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([0.004, 0.012, 0.008])
    monkeypatch.setattr(run.speed, "probe", lambda: next(probes))
    monkeypatch.setattr(run, "run_task", lambda cli, argv: (1.0, Outcome(0, argv, "")))
    result = run.run_pass(None, ["a", "b"])
    ref = run.speed.REF_SECONDS
    assert result.raw == [1.0, 1.0]
    assert result.seconds == pytest.approx([ref / 0.008, ref / 0.010])
    assert result.wall == pytest.approx(sum(result.seconds))


def test_sampler_reads_speed_during_a_task_and_reports_its_cost():
    with run.speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(sampler.readings) >= 3
    assert 0 < sampler.spent < 0.3
    assert all(r > 0 for r in sampler.readings)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0])[0] == 3.0


# -- the printed result ------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    twin = Task("02-c", "oracle", STREAM.matrix, "1", count_only=True, twin="01-s")
    monkeypatch.setattr(workloads, "build", lambda w, s: [replace(STREAM, name="01-s"), twin])
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    for name, metric in result["metrics"].items():
        assert printed[name] == metric["unit"]
    if trace:
        assert {name for name, *_ in METRICS} | {"trace.overhead_frac"} == set(result["metrics"])
