"""Recovery determinism and the zero-overhead pin.

Two contracts: (1) a recovered run is as replayable as a faulty one --
same plan, same seed, same policy reproduce the identical execution;
(2) configuring recovery on a clean run changes nothing at all, because
the manager is only constructed when a fault injector exists.
"""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.faults import FaultPlan
from repro.recovery import RecoveryPolicy
from repro.schemes import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig

P = 4


@pytest.mark.parametrize("plan_name", ["lossy-bus", "flaky-rmw",
                                       "crash-task"])
def test_recovered_runs_replay_byte_for_byte(fault_record, plan_name):
    def run():
        return fault_record("process-oriented", plan_name, 3,
                            processors=P, recover=True)

    first, second = run(), run()
    assert first["outcome"] == second["outcome"] == "ok"
    assert first["metrics"]["makespan"] == second["metrics"]["makespan"]
    assert first["metrics"]["recovery"] == second["metrics"]["recovery"]
    # a completed run lists no recovery actions: it has no hazard report
    assert "hazard" not in first and "hazard" not in second
    assert first == second


def test_different_seeds_recover_differently(fault_record):
    records = [fault_record("statement-oriented", "lossy-bus", seed,
                            processors=P, recover=True)
               for seed in range(4)]
    assert all(r["outcome"] == "ok" for r in records)
    # the runs are seeded, not degenerate: some pair must differ
    assert len({(r["metrics"]["makespan"],
                 tuple(sorted(r["metrics"]["recovery"].items())))
                for r in records}) > 1


def _trace_key(result):
    return [(r.commit, r.kind, r.addr, r.value) for r in result.trace]


@pytest.mark.parametrize("name", scheme_names())
def test_recovery_on_clean_run_is_zero_overhead(name):
    """No fault plan (or an empty one) means the recovery layer is never
    constructed: metrics and trace are byte-identical to a clean run and
    no 'recovery' key appears in the result."""
    loop = fig21_loop(n=24, cost=8)
    scheme = make_scheme(name)
    clean = Machine(MachineConfig(processors=P)).run(
        scheme.instrument(loop))
    configured = Machine(MachineConfig(
        processors=P, fault_plan=FaultPlan(),
        recovery=RecoveryPolicy())).run(scheme.instrument(loop))
    assert clean.makespan == configured.makespan
    assert clean.summary() == configured.summary()
    assert _trace_key(clean) == _trace_key(configured)
    assert "recovery" not in configured.extra
    assert configured.recovery == {}
    assert configured.recovery_events == 0


def test_faulty_run_without_recovery_is_unchanged_by_the_layer(
        fault_record):
    """The injector's draw stream must be identical whether or not
    recovery is configured off: same plan + seed, no recovery, twice."""
    def run():
        return fault_record("statement-oriented", "lossy-bus", 5,
                            processors=P)

    first, second = run(), run()
    assert first["outcome"] == second["outcome"]
    assert (first["metrics"] or {}).get("makespan") \
        == (second["metrics"] or {}).get("makespan")
    assert (first["metrics"] or {}).get("faults") \
        == (second["metrics"] or {}).get("faults")
    assert first == second
