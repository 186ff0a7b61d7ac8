"""The three recovery mechanisms, end to end through fault-plan cells.

Each test pins one mechanism: lost broadcasts come back via NACK +
retransmission, crashed tasks come back via checkpoint replay on a
rescue, and a sustained-lossy bus flips busy-waiting to charged
shared-memory polling of the home copy.  The final tests pin the
failure side: an unrecoverable plan still dies with a structured
diagnosis that enumerates the recovery actions attempted.
"""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.faults import FaultPlan
from repro.faults.chaos import fault_machine_config, run_classified
from repro.schemes import make_scheme
from repro.sim import Machine

BROADCAST_SCHEMES = ["statement-oriented", "process-oriented"]
ALL_SCHEMES = ["reference-based", "instance-based",
               "statement-oriented", "process-oriented"]


def run_custom_plan(scheme, plan):
    """Run an ad-hoc plan (no preset name, so no sweep cell) on the
    fault cells' loop and machine, with recovery on."""
    instrumented = make_scheme(scheme).instrument(fig21_loop(n=16, cost=8))
    instrumented.bound_waits(100_000)
    machine = Machine(fault_machine_config(plan, recover=True, processors=4))
    return run_classified(machine, instrumented)


@pytest.mark.parametrize("scheme", BROADCAST_SCHEMES)
def test_lost_broadcasts_are_retransmitted(fault_record, scheme):
    record = fault_record(scheme, "lossy-bus", recover=True)
    assert record["outcome"] == "ok", record.get("error")
    assert record["metrics"]["recovery"]["retransmissions"] > 0


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_crashed_tasks_are_reincarnated(fault_record, scheme):
    record = fault_record(scheme, "crash-task", recover=True)
    assert record["outcome"] == "ok", record.get("error")
    assert record["metrics"]["recovery"]["reincarnations"] >= 2
    assert record["metrics"]["recovery"]["reclaimed_iterations"] >= 2


def test_dropped_rmw_commits_are_retried(fault_record):
    # flaky-rmw hits the data-oriented key increments (SyncUpdate)
    record = fault_record("reference-based", "flaky-rmw", recover=True)
    assert record["outcome"] == "ok", record.get("error")
    assert record["metrics"]["recovery"]["rmw_retries"] > 0


@pytest.mark.parametrize("scheme", BROADCAST_SCHEMES)
def test_sustained_loss_enters_degraded_fallback(scheme):
    plan = FaultPlan(name="very-lossy", seed=0, broadcast_loss=0.5)
    run = run_custom_plan(scheme, plan)
    assert run.outcome == "ok", run.error
    assert run.result.recovery["fallback_epochs"] >= 1
    assert run.result.recovery["fallback_polls"] > 0
    assert run.result.recovery["recovery_overhead_cycles"] > 0


@pytest.mark.parametrize("plan_name", ["lossy-bus", "flaky-rmw",
                                       "crash-task"])
def test_recoverable_plans_complete_validated(fault_record, plan_name):
    """The acceptance sweep in miniature: every recoverable plan must
    end 'ok' on every scheme, and each plan must show aggregate recovery
    activity somewhere (memory-fabric schemes see no broadcasts, so the
    bound is per plan, not per run)."""
    events = 0
    for scheme in ALL_SCHEMES:
        for seed in range(2):
            record = fault_record(scheme, plan_name, seed, recover=True)
            assert record["outcome"] == "ok", \
                (scheme, plan_name, seed, record.get("error"))
            events += sum(
                count for key, count
                in record["metrics"].get("recovery", {}).items()
                if not key.endswith("_cycles"))
    assert events > 0, plan_name


def test_unrecoverable_crashes_die_diagnosed_with_actions():
    """When the reincarnation budget cannot keep up, the run must still
    die with a structured diagnosis -- now carrying the list of recovery
    actions that were attempted before death."""
    plan = FaultPlan(name="meltdown", seed=1, crash_prob=0.02)
    run = run_custom_plan("statement-oriented", plan)
    assert run.outcome in ("deadlock-diagnosed", "limit-diagnosed")
    assert run.report.recovery_actions
    assert any("reincarnated" in a for a in run.report.recovery_actions)
    assert run.report.recovery["reincarnations"] > 0


def test_without_recovery_the_same_plans_may_die(fault_record):
    """Control: crash-task without recovery loses two processors'
    obligations and the run dies (that it dies *diagnosed* is the
    fault layer's own contract, pinned elsewhere)."""
    record = fault_record("statement-oriented", "crash-task")
    assert record["outcome"] != "ok"
    assert record["hazard"]["recovery"] == {}
