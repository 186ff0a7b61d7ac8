"""JSON serialization of hazard reports and fault-cell records."""

from __future__ import annotations

import json

from repro.faults import FaultPlan, HazardReport
from repro.faults.chaos import fault_machine_config, run_classified
from repro.sim import DeadlockError, Machine, MachineConfig
from repro.schemes import make_scheme
from repro.apps.kernels import fig21_loop


def _crashed_report() -> HazardReport:
    """A real report: crash two processors with no recovery configured."""
    scheme = make_scheme("statement-oriented")
    machine = Machine(MachineConfig(
        processors=4,
        fault_plan=FaultPlan(crash_after_ops=(("cpu1", 30), ("cpu2", 60)))))
    try:
        machine.run(scheme.instrument(fig21_loop(n=16)))
    except DeadlockError as err:
        return err.report
    raise AssertionError("expected the crashed run to deadlock")


def test_report_to_json_is_json_native():
    payload = _crashed_report().to_json()
    text = json.dumps(payload)  # must not raise
    assert json.loads(text) == payload
    assert "cpu1" in payload["crashed"]
    assert payload["tasks"]
    assert {"task", "state", "var", "reason", "since", "blocked_for",
            "waits_on", "value"} <= set(payload["tasks"][0])


def test_report_round_trips_through_from_json():
    report = _crashed_report()
    payload = report.to_json()
    rebuilt = HazardReport.from_json(json.loads(json.dumps(payload)))
    # to_json is a fixed point: re-serializing the rebuilt report must
    # produce the identical payload (no double-repr of values)
    assert rebuilt.to_json() == payload
    assert rebuilt.now == report.now
    assert rebuilt.cycle == report.cycle
    assert rebuilt.crashed == report.crashed
    assert rebuilt.graph.edges() == report.graph.edges()
    assert [d.task for d in rebuilt.tasks] == [d.task for d in report.tasks]


def test_diagnosed_report_carries_recovery_state():
    instrumented = make_scheme("statement-oriented").instrument(
        fig21_loop(n=16, cost=8))
    machine = Machine(fault_machine_config(
        FaultPlan(name="meltdown", seed=1, crash_prob=0.02), recover=True,
        processors=4, wait_bound=100_000))
    run = run_classified(machine, instrumented)
    assert run.outcome in ("deadlock-diagnosed", "limit-diagnosed")
    assert run.report.recovery_actions
    assert run.report.recovery.get("reincarnations", 0) > 0


def test_chaos_outcome_to_json(fault_record):
    """A fault cell's record is JSON-native and names its cell; a
    completed run keeps its recovery counters in the metrics and lists
    no recovery actions (no hazard report)."""
    payload = fault_record("process-oriented", "crash-task", recover=True)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["outcome"] == "ok"
    assert payload["config"]["scheme"] == "process-oriented"
    assert payload["config"]["plan"] == "crash-task"
    assert payload["metrics"]["recovery"]["reincarnations"] >= 2
    assert "hazard" not in payload


def test_died_cell_record_keeps_the_hazard(fault_record):
    """A fault cell that died keeps its diagnosis in the record's
    top-level ``hazard``: the cycle, each blocked task's state and the
    recovery counters and actions reached before the death."""
    payload = fault_record("statement-oriented", "lossy-bus", 5)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["outcome"] == "deadlock-diagnosed"
    assert payload["metrics"] == {"serial_cycles": 640}
    hazard = payload["hazard"]
    assert set(hazard) == {"cycle", "blocked", "recovery",
                           "recovery_actions"}
    assert hazard["blocked"] and set(hazard["cycle"]) <= set(
        hazard["blocked"])
    assert hazard["recovery"] == {} and hazard["recovery_actions"] == []
