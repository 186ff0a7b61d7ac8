"""Tests of the benchmark itself: ``pytest bench/tests``."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest

import run
import stats
import tracing
import workloads

BENCH = pathlib.Path(__file__).resolve().parent.parent


def _cells(jobs):
    """(app, params, scheme, processors) of every cell, in order."""
    if isinstance(jobs[0], workloads.RaceJob):
        return [(job.app, job.params, scheme, processors)
                for job in jobs for scheme, processors in job.cells]
    return [(cell.app, cell.app_params, cell.scheme, cell.processors)
            for job in jobs for cell in job.cells()]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seeded_grid_is_deterministic(workload):
    first, again = workloads.grid(workload, 0), workloads.grid(workload, 0)
    other = workloads.grid(workload, 1)
    assert _cells(first) == _cells(again)
    assert len(_cells(other)) == len(_cells(first))
    assert ([params for _app, params, _s, _p in _cells(other)]
            != [params for _app, params, _s, _p in _cells(first)])


def _span(name, start, end, parent=None, attr=None):
    return [name, start, end, parent, 1, attr]


def test_self_time_of_nested_spans():
    second = 10 ** 9
    tracer = tracing.Tracer()
    optimize = _span("analyze.optimize", 0, 100 * second)
    instrument = _span("schemes.instrument", 10 * second, 40 * second,
                       optimize)
    inner_run = _span("sim.run", 20 * second, 30 * second, instrument,
                      (5, 7))
    outer_run = _span("sim.run", 50 * second, 90 * second, optimize, (10, 3))
    tracer.spans = [inner_run, instrument, outer_run, optimize]
    metrics = tracing.layer_metrics(tracer, wall_s=200.0, cold_wall_s=200.0,
                                    windows=[], jobs=[])
    assert metrics["analyze.optimize.self_s"] == pytest.approx(30.0)
    assert metrics["schemes.instrument.self_s"] == pytest.approx(20.0)
    assert metrics["sim.run.self_s"] == pytest.approx(50.0)
    assert metrics["sim.run.events"] == 15
    assert metrics["sim.run.cycles"] == 10
    # share counts children; attributed_frac counts each second once
    assert metrics["analyze.optimize.share"] == pytest.approx(0.5)
    assert metrics["trace.attributed_frac"] == pytest.approx(0.5)


def test_wrappers_record_parents_per_call():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    middle = tracer.wrap("middle", lambda: inner())
    outer = tracer.wrap("outer", lambda: (middle(), inner()))
    outer()
    rows = tracer.export(0)
    assert [row[0] for row in rows] == ["outer", "middle", "inner", "inner"]
    assert [row[3] for row in rows] == [-1, 0, 1, 0]
    tracer.disable()
    outer()
    assert len(tracer.spans) == 4


def test_missing_hook_reads_null_and_run_goes_on(monkeypatch, capsys):
    monkeypatch.setattr(tracing, "hook_table", lambda: (
        {"lab.apps": ("repro.lab.apps:renamed_build_app",)}, {}))
    tracer = tracing.Tracer()
    tracer.install()
    assert "lab.apps" in tracer.missing
    assert "lab.apps" in capsys.readouterr().err
    metrics = tracing.layer_metrics(tracer, wall_s=1.0, cold_wall_s=1.0,
                                    windows=[], jobs=[])
    assert metrics["lab.apps.self_s"] is None
    assert metrics["trace.attributed_frac"] is None
    assert metrics["sim.run.self_s"] == 0.0


def _record(outcome="ok", scheme="reference-based", column=None):
    metrics = {"makespan": 10}
    if column is not None:
        metrics["elimination"] = column
    return {"key": "cell", "config": {"scheme": scheme}, "outcome": outcome,
            "metrics": metrics}


def test_sabotaged_record_is_a_failure():
    result = workloads.PassResult()
    workloads._check_record(result, _record())
    workloads._check_record(result, _record(scheme="auto", outcome="serial"))
    assert result.attempted == 2 and not result.violations
    workloads._check_record(result, _record(outcome="corruption-detected"))
    # only the compiler's own choice may come back serial
    workloads._check_record(result, _record(outcome="serial"))
    workloads._check_record(result, _record(column={
        "supported": True, "sync_ops_before": 10, "sync_ops_after": 12}))
    assert result.attempted == 5
    assert len(result.violations) == 3


def _report(sha="a" * 64, violations=()):
    return {"seed": 0, "setup_s": 0.5, "wall_s": 2.0, "cold_wall_s": 2.0,
            "cells": 4, "cell_ms": [1.0, 2.0, 3.0, 4.0],
            "job_ms": [10.0, 12.0], "attempted": 4,
            "violations": list(violations), "records_sha256": sha,
            "counts": {"runs": 4, "events": 100, "cycles": 50},
            "peak_rss_mb": 60.0}


def test_records_differing_between_repeats_is_a_failure():
    clean = run.summarize("figures", [_report(), _report()], None)
    assert not clean["violations"]
    assert clean["metrics"]["failed_frac"]["value"] == 0
    sabotaged = run.summarize("figures", [_report(), _report(sha="b" * 64)],
                              None)
    assert sabotaged["violations"] == ["records_sha256 differs between "
                                       "repeats"]
    line = run.driver_line(sabotaged, trace=False)
    assert line["correct"] is False and line["failed"] == 1


def tiny_end_to_end(out):
    """Every workload on a tiny grid: two untraced repeats and a traced
    one, in this process.  Prints each workload's two driver lines."""
    import child
    from repro.lab import SweepSpec
    tiny = {
        "figures": [SweepSpec.build(
            "tiny", apps=[("fig2.1", {"n": 8}), ("hydro", {"n": 8})],
            schemes=["reference-based", "auto"], processors=(2,))],
        "optimizer": [SweepSpec.build(
            "tiny", apps=[("fold-chain", {"n": 8})],
            schemes=["process-oriented"], processors=(2,), eliminate=True)],
        "service-fanout": [SweepSpec.build(
            f"tiny-{n}", apps=[("fig2.1", {"n": n})],
            schemes=["reference-based"], processors=(2,)) for n in (8, 9)],
        "race-check": [workloads.RaceJob(
            "fig2.1", (("n", 8),), (("reference-based", 2),))],
    }
    workloads.grid = lambda workload, seed: tiny[workload]
    lines = {}
    for workload in run.WORKLOADS:
        reports = []
        for trace in ("0", "0", "1"):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                child.main([workload, "0", repr(time.monotonic()), trace,
                            out])
            reports.append(json.loads(buffer.getvalue().splitlines()[-1]))
        summary = run.summarize(workload, reports[:2], reports[2])
        lines[workload] = [run.driver_line(summary, trace=False),
                           run.driver_line(summary, trace=True)]
    print(json.dumps(lines))


def test_tiny_run_emits_every_benchmark_metric():
    spec = stats.benchmark_spec()
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(BENCH), str(BENCH / "tests"), str(BENCH.parent / "src")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import test_bench; test_bench.tiny_end_to_end({out!r})"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = json.loads(proc.stdout.splitlines()[-1])
    for workload, (untraced, traced) in lines.items():
        assert untraced["correct"] and traced["correct"], workload
        assert set(untraced["metrics"]) == {
            entry["name"] for entry in spec["end_to_end"]}
        assert set(traced["metrics"]) == {
            entry["name"] for entry in spec["per_layer"]}
        for entry in untraced["metrics"].values():
            assert isinstance(entry["value"], float), (workload, entry)
        for name, entry in traced["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (workload, name)
