"""Sweep fault cells and chaos cases share one run-and-classify step.

``repro.faults.chaos.run_classified`` names every outcome for both
``run_chaos_case`` and ``repro.lab.runner.execute_cell``; these tests pin
that the two front ends agree cell for cell, and that the chaos rule
for an undiagnosed hazard reaches sweep records too.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import run_chaos_case, run_classified
from repro.faults.plan import make_plan
from repro.faults.watchdog import HazardReport, WaitForGraph
from repro.lab import SweepOptions, SweepSpec, make_spec, run_sweep
from repro.lab.apps import build_app
from repro.lab.record import make_record
from repro.lab.runner import execute_cell
from repro.schemes import make_scheme, scheme_names
from repro.sim import DeadlockError
from repro.sim.machine import Machine, MachineConfig

PLANS = ("lossy-bus", "crash-task", "jitter")


def fault_spec(recover: bool) -> SweepSpec:
    """The chaos harness's default case as a sweep grid."""
    return SweepSpec.build(
        "chaos-parity", apps=[("fig2.1", {"n": 12, "cost": 8})],
        schemes=scheme_names(), processors=(4,), wait_bounds=(100_000,),
        plans=PLANS, seeds=(0,), recover=recover)


@pytest.mark.parametrize("recover", [False, True])
def test_sweep_records_match_chaos_cases(recover):
    report = run_sweep(fault_spec(recover),
                       SweepOptions(procs=1, cache_dir=None))
    assert len(report.records) == len(scheme_names()) * len(PLANS)
    for record in report.records:
        config = record["config"]
        case = run_chaos_case(config["scheme"],
                              make_plan(config["plan"], seed=config["seed"]),
                              n=12, processors=4, recover=recover)
        makespan = (record["metrics"] or {}).get("makespan")
        assert (record["outcome"], makespan) == (case.outcome,
                                                 case.makespan), record["key"]


def _empty_report() -> HazardReport:
    return HazardReport(now=0, live_tasks=0, tasks=[],
                        graph=WaitForGraph(), cycle=None)


@pytest.mark.parametrize("report", [None, "empty"])
def test_undiagnosed_deadlock_in_chaos_and_sweep(monkeypatch, report):
    hazard = _empty_report() if report == "empty" else None

    def stuck(self, workload):
        raise DeadlockError("stuck without a diagnosis", report=hazard)

    monkeypatch.setattr(Machine, "run", stuck)
    case = run_chaos_case("process-oriented", make_plan("jitter", seed=0),
                          n=8, processors=2)
    assert case.outcome == "deadlock-undiagnosed"
    assert not case.acceptable
    assert case.blocked_tasks == {} and case.makespan is None

    cell = fault_spec(False).cells()[0]
    record = execute_cell(cell.config())
    assert record["key"] == cell.key
    assert record["outcome"] == "deadlock-undiagnosed"
    assert record["error"].startswith("stuck without a diagnosis")
    assert set(record["metrics"]) == {"serial_cycles"}


@pytest.mark.parametrize(
    "cell", make_spec("speedup").cells(), ids=lambda cell: cell.key)
def test_unvalidated_cells_record_the_same_in_both_metrics_modes(cell):
    """A cell that skips validation reads only end-of-run counters, so a
    counters-mode machine must seal the same record as a full one."""
    config = cell.config()
    assert config["validate"] is False
    loop = build_app(config["app"], config["app_params"])
    records = []
    for metrics in ("full", "counters"):
        machine = Machine(MachineConfig(processors=config["processors"],
                                        schedule=config["schedule"],
                                        metrics=metrics))
        instrumented = make_scheme(config["scheme"]).instrument(loop)
        run = run_classified(machine, instrumented, validate=False)
        records.append(make_record(cell.key, config, outcome=run.outcome,
                                   result=run.result,
                                   serial_cycles=loop.serial_cycles()))
    full, counters = records
    assert full["outcome"] == "ok"
    assert full == counters
