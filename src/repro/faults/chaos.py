"""Chaos harness: sweep fault plans across synchronization schemes.

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

Run it as ``python -m repro chaos`` or via :func:`run_chaos_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence)

from ..apps.kernels import fig21_loop
from ..recovery import RecoveryPolicy
from ..schemes.registry import make_scheme, scheme_names
from ..sim import (DeadlockError, Machine, MachineConfig, RunResult,
                   SimulationLimitError, ValidationError)
from .plan import FaultPlan, make_plan, plan_names
from .watchdog import HazardReport

#: engine guards for every fault-plan run (chaos cases and sweep fault
#: cells alike): an injected hazard must surface as a diagnosed error,
#: not a hang
FAULT_MAX_CYCLES = 2_000_000
FAULT_STAGNATION_LIMIT = 20_000

#: every outcome the degradation contract allows
ACCEPTABLE_OUTCOMES = ("ok", "deadlock-diagnosed", "limit-diagnosed",
                       "corruption-detected")


@dataclass
class ChaosOutcome:
    """Result of one (scheme, plan, seed) chaos run."""

    scheme: str
    plan: str
    seed: int
    outcome: str
    #: first line of the error / headline metric
    detail: str = ""
    makespan: Optional[int] = None
    fault_events: int = 0
    #: the blocking wait-for cycle, when the diagnosis found one
    cycle: Optional[List[str]] = None
    #: per-task blocked states from the hazard report
    blocked_tasks: Dict[str, str] = field(default_factory=dict)
    #: recovery-layer counters (empty unless recovery was enabled)
    recovery: Dict[str, int] = field(default_factory=dict)
    #: recovery actions attempted (populated from the hazard report on
    #: failed runs; successful runs keep only the counters)
    recovery_actions: List[str] = field(default_factory=list)

    @property
    def acceptable(self) -> bool:
        return self.outcome in ACCEPTABLE_OUTCOMES

    @property
    def recovery_events(self) -> int:
        """Total recovery actions taken (cycle sums excluded)."""
        return sum(count for key, count in self.recovery.items()
                   if not key.endswith("_cycles"))

    def to_json(self) -> Dict[str, Any]:
        """JSON-native dict for ``python -m repro chaos --json``."""
        return {
            "scheme": self.scheme,
            "plan": self.plan,
            "seed": self.seed,
            "outcome": self.outcome,
            "detail": self.detail,
            "makespan": self.makespan,
            "fault_events": self.fault_events,
            "cycle": list(self.cycle) if self.cycle else None,
            "blocked_tasks": dict(self.blocked_tasks),
            "recovery": dict(self.recovery),
            "recovery_actions": list(self.recovery_actions),
        }


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

    The one run-and-classify step behind both :func:`run_chaos_case`
    and sweep cells (:func:`repro.lab.runner.execute_cell`): a hazard
    is ``<kind>-diagnosed`` when its :class:`HazardReport` names
    per-task state and ``<kind>-undiagnosed`` otherwise; a completed
    run that fails validation is ``corruption-detected``.
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
    """The machine of every fault-plan run (chaos cases and sweep fault
    cells alike): ``plan`` injected, the default
    :class:`~repro.recovery.RecoveryPolicy` when ``recover``, and the
    engine guards that turn an injected hazard into a diagnosed error.
    ``settings`` are the remaining :class:`MachineConfig` fields."""
    return MachineConfig(fault_plan=plan,
                         recovery=RecoveryPolicy() if recover else None,
                         max_cycles=FAULT_MAX_CYCLES,
                         stagnation_limit=FAULT_STAGNATION_LIMIT,
                         **settings)


def run_chaos_case(scheme_name: str, plan: FaultPlan, *,
                   n: int = 16, processors: int = 4,
                   recover: bool = False) -> ChaosOutcome:
    """Run one scheme under one fault plan and classify the outcome.

    The swept loop is :func:`~repro.apps.kernels.fig21_loop` with trip
    count ``n``; every wait spins at most 100,000 polls.  ``recover``
    turns on the recovery layer with the default
    :class:`~repro.recovery.RecoveryPolicy`.  With recovery,
    *recoverable* plans (lost broadcasts, dropped RMW commits,
    deterministic task crashes) must land on ``ok`` with the recovery
    counters showing what it cost; unrecoverable plans must still die
    diagnosed, with the attempted recovery actions enumerated in the
    hazard report.
    """
    instrumented = make_scheme(scheme_name).instrument(
        fig21_loop(n=n, cost=8))
    instrumented.bound_waits(100_000)
    machine = Machine(fault_machine_config(plan, recover=recover,
                                           processors=processors))
    run = run_classified(machine, instrumented)
    outcome = ChaosOutcome(scheme=scheme_name, plan=plan.name or "custom",
                           seed=plan.seed, outcome=run.outcome,
                           detail=run.error or "")
    if run.result is not None:
        outcome.makespan = run.result.makespan
        outcome.fault_events = run.result.fault_events
        outcome.recovery = dict(run.result.recovery)
        if run.outcome == "ok":
            outcome.detail = f"makespan {run.result.makespan}"
    elif run.report is not None:
        # an undiagnosed report has no task rows, so nothing is blocked
        outcome.cycle = run.report.cycle
        outcome.blocked_tasks = {diag.task: diag.state
                                 for diag in run.report.blocked()}
        outcome.recovery = dict(run.report.recovery)
        outcome.recovery_actions = list(run.report.recovery_actions)
    return outcome


def _sweep_case(item) -> ChaosOutcome:
    """Worker: run one (scheme, plan name, seed, kwargs) cell."""
    scheme, plan_name, seed, case_kwargs = item
    return run_chaos_case(scheme, make_plan(plan_name, seed=seed),
                          **case_kwargs)


def run_chaos_sweep(schemes: Optional[Sequence[str]] = None,
                    plans: Optional[Sequence[str]] = None,
                    seeds: Iterable[int] = range(3),
                    procs: int = 1,
                    **case_kwargs) -> List[ChaosOutcome]:
    """Sweep seeds x schemes x fault plans; return every outcome.

    ``schemes`` defaults to all four registered schemes, ``plans`` to
    every named preset; an unknown name raises :class:`ValueError`
    listing the known ones before any cell runs.  Keyword arguments
    pass through to :func:`run_chaos_case`.  ``procs`` fans the
    independent cells over supervised worker processes (cells are
    seeded and deterministic, so the outcome list is identical at any
    worker count).  A cell that raises is not retried: the sweep
    raises :class:`RuntimeError` naming it.
    """
    from ..lab.executor import SupervisedExecutor

    schemes = list(schemes) if schemes else scheme_names()
    plans = list(plans) if plans else plan_names()
    # a typo raises here, listing the known names, before any cell runs
    for name in schemes:
        make_scheme(name)
    for name in plans:
        make_plan(name)
    seeds = list(seeds)
    cells = [(scheme, plan_name, seed, case_kwargs)
             for scheme in schemes
             for plan_name in plans
             for seed in seeds]
    keys = [f"{scheme}/{plan_name}/{seed}"
            for scheme, plan_name, seed, _kwargs in cells]
    outcome = SupervisedExecutor(_sweep_case, procs=procs,
                                 max_retries=0).run(cells, keys=keys)
    if outcome.failures:
        raise RuntimeError(
            f"chaos sweep: {len(outcome.failures)} cell(s) raised: "
            + "; ".join(failure.describe()
                        for failure in outcome.failures))
    return [outcome.results[index] for index in range(len(cells))]


def summarize(outcomes: Sequence[ChaosOutcome]) -> Dict[str, int]:
    """Outcome histogram of a sweep."""
    histogram: Dict[str, int] = {}
    for outcome in outcomes:
        histogram[outcome.outcome] = histogram.get(outcome.outcome, 0) + 1
    return histogram
