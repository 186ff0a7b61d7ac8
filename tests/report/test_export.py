"""JSON export of run summaries."""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.report import (compare_results, load_results, save_results)
from repro.schemes import RunConfig, make_scheme
from repro.sim import Machine, MachineConfig


@pytest.fixture(scope="module")
def runs():
    config = RunConfig(machine=Machine(MachineConfig(processors=4)))
    loop = fig21_loop(n=20)
    return {name: make_scheme(name).run(loop, config=config)
            for name in ("statement-oriented", "process-oriented")}


def test_roundtrip(tmp_path, runs):
    path = tmp_path / "results.json"
    save_results(path, runs, metadata={"n": 20, "processors": 4})
    payload = load_results(path)
    assert payload["metadata"]["n"] == 20
    assert set(payload["runs"]) == set(runs)
    for label, result in runs.items():
        assert payload["runs"][label]["makespan"] == result.makespan
        assert payload["runs"][label]["sync_vars"] == result.sync_vars


def test_version_guard(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"format_version": 99, "runs": {}}')
    with pytest.raises(ValueError):
        load_results(path)


def test_compare_results(tmp_path, runs):
    path = tmp_path / "base.json"
    save_results(path, runs)
    payload = load_results(path)
    ratios = compare_results(payload, payload)
    assert all(ratio == 1.0 for ratio in ratios.values())
    # a degraded current run shows up as ratio > 1
    slower = {k: dict(v) for k, v in payload["runs"].items()}
    slower["process-oriented"]["makespan"] *= 2
    current = {"format_version": 1, "metadata": {}, "runs": slower}
    ratios = compare_results(payload, current)
    assert ratios["process-oriented"] == 2.0


def test_compare_skips_unknown_runs(runs, tmp_path):
    path = tmp_path / "base.json"
    save_results(path, {"only-one": runs["process-oriented"]})
    baseline = load_results(path)
    save_results(path, runs)
    current = load_results(path)
    ratios = compare_results(baseline, current)
    assert set(ratios) == set()  # no overlap with "only-one"? none match
