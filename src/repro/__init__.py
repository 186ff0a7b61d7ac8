"""repro: Su & Yew, "On Data Synchronization for Multiprocessors" (ISCA '89).

A full reproduction of the paper's system: the *process-oriented*
synchronization scheme (process counters, folded onto X hardware
counters on a broadcast synchronization bus) together with every
substrate it is compared against -- the data-oriented reference-based
(Cedar key/data) and instance-based (HEP full/empty) schemes, the
statement-oriented (Alliant Advance/Await) scheme, counter and butterfly
barriers, a dependence-analyzing compiler front-end, and an
event-driven shared-memory multiprocessor simulator.

Quick start::

    from repro.apps import fig21_loop
    from repro.schemes import make_scheme

    loop = fig21_loop(n=100)
    result = make_scheme("process-oriented").run(loop)
    print(result.summary())

Packages
--------
``repro.core``
    The paper's contribution: process counters, primitives, the
    DOACROSS synchronization planner, folding, coalescing, branches.
``repro.depend``
    Loop IR, dependence analysis, dependence graphs, classification.
``repro.schemes``
    The four synchronization schemes behind one interface.
``repro.sim``
    The simulated multiprocessor (memory, buses, scheduling, metrics).
``repro.barriers``
    Counter, Brooks-butterfly and PC-butterfly barriers (Example 4).
``repro.apps``
    The paper's worked examples as runnable workloads.
``repro.faults``
    Deterministic fault injection, hazard diagnosis, the degradation
    contract (``python -m repro chaos``).
``repro.lab``
    Declarative experiment engine: sweep specs, a parallel cached
    runner, versioned run records (``python -m repro sweep``).

Error taxonomy (re-exported here for callers)
---------------------------------------------
``ValidationError``
    the run finished but diverged from sequential semantics;
``DeadlockError``
    no task can ever make progress -- carries a ``HazardReport`` with
    per-task wait state and the blocking wait-for cycle;
``SimulationLimitError``
    the cycle budget ran out first -- same structured report.
"""

__version__ = "1.0.0"

from . import apps, barriers, core, depend, faults, lab, recovery, report, \
    schemes, sim
from .faults import (FaultInjector, FaultPlan, HazardReport, TaskDiagnosis,
                     WaitForGraph, diagnose, make_plan, plan_names)
from .lab import SweepSpec, make_spec, run_sweep, sweep_presets
from .recovery import RecoveryManager, RecoveryPolicy
from .schemes import RunConfig
from .sim import (DeadlockError, HazardError, SimulationLimitError,
                  ValidationError)

__all__ = ["apps", "barriers", "core", "depend", "faults", "lab",
           "recovery", "report", "schemes", "sim", "__version__",
           "DeadlockError", "FaultInjector", "FaultPlan", "HazardError",
           "HazardReport", "RecoveryManager", "RecoveryPolicy",
           "RunConfig", "SimulationLimitError", "SweepSpec",
           "TaskDiagnosis",
           "ValidationError", "WaitForGraph", "diagnose", "make_plan",
           "make_spec", "plan_names", "run_sweep", "sweep_presets"]
