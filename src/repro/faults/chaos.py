"""The degradation contract every fault-plan run is held to.

The acceptance contract for the fault layer: under *any* injected fault
mix, a run must end in exactly one of

``ok``
    the simulation completed and validated against sequential semantics
    (timing-only faults -- jitter, stalls -- must always land here);
``deadlock-diagnosed`` / ``limit-diagnosed``
    the run died, but with a structured :class:`HazardReport` naming
    per-task blocking state and (when one exists) the wait-for cycle;
``corruption-detected``
    the run completed with wrong values and the validator caught it
    (e.g. a duplicated RMW commit releasing a sink early).

What must *never* happen: a hang (bounded by ``max_cycles``, the
stagnation watchdog and the per-wait spin budget) or silent corruption
(bounded by :meth:`InstrumentedLoop.validate`).  Outcomes outside the
acceptable set -- an undiagnosed error, or an unexpected crash -- fail
the sweep.

This module holds the contract's pieces: :func:`run_classified` names
an outcome, :func:`fault_machine_config` builds the guarded fault
machine, and :data:`ACCEPTABLE_OUTCOMES` lists what the contract
allows.  Fault cells run as sweep cells
(:func:`repro.lab.runner.execute_cell`); ``python -m repro chaos``
builds a fault-plan :class:`~repro.lab.spec.SweepSpec` and checks its
records against the contract.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from ..recovery import RecoveryPolicy
from ..sim import (DeadlockError, Machine, MachineConfig, RunResult,
                   SimulationLimitError, ValidationError)
from .plan import FaultPlan
from .watchdog import HazardReport

#: engine guards for every fault-plan run: an injected hazard must
#: surface as a diagnosed error, not a hang
FAULT_MAX_CYCLES = 2_000_000
FAULT_STAGNATION_LIMIT = 20_000

#: every outcome the degradation contract allows
ACCEPTABLE_OUTCOMES = ("ok", "deadlock-diagnosed", "limit-diagnosed",
                       "corruption-detected")


class ClassifiedRun(NamedTuple):
    """One run named by the degradation contract (:func:`run_classified`):
    the finished run (None when it died), the error's first line (None
    for ``ok``) and a dead run's hazard report."""

    outcome: str
    result: Optional[RunResult] = None
    error: Optional[str] = None
    report: Optional[HazardReport] = None


def run_classified(machine: Machine, instrumented, *,
                   validate: bool = True) -> ClassifiedRun:
    """Run ``instrumented`` on ``machine`` and name the outcome.

    The one run-and-classify step behind every sweep cell
    (:func:`repro.lab.runner.execute_cell`): a hazard is
    ``<kind>-diagnosed`` when its :class:`HazardReport` names per-task
    state and ``<kind>-undiagnosed`` otherwise; a completed run that
    fails validation is ``corruption-detected``.
    """
    try:
        result = machine.run(instrumented)
    except (DeadlockError, SimulationLimitError) as err:
        kind = "deadlock" if isinstance(err, DeadlockError) else "limit"
        diagnosed = err.report is not None and bool(err.report.tasks)
        return ClassifiedRun(
            outcome=f"{kind}-{'' if diagnosed else 'un'}diagnosed",
            error=str(err).splitlines()[0], report=err.report)
    if validate:
        try:
            instrumented.validate(result)
        except ValidationError as err:
            return ClassifiedRun(outcome="corruption-detected",
                                 result=result,
                                 error=str(err).splitlines()[0])
    return ClassifiedRun(outcome="ok", result=result)


def fault_machine_config(plan: FaultPlan, *, recover: bool = False,
                         **settings: Any) -> MachineConfig:
    """The machine of every fault-plan run: ``plan`` injected, the
    default :class:`~repro.recovery.RecoveryPolicy` when ``recover``,
    and the engine guards that turn an injected hazard into a diagnosed
    error.  ``settings`` are the remaining :class:`MachineConfig`
    fields."""
    return MachineConfig(fault_plan=plan,
                         recovery=RecoveryPolicy() if recover else None,
                         max_cycles=FAULT_MAX_CYCLES,
                         stagnation_limit=FAULT_STAGNATION_LIMIT,
                         **settings)
