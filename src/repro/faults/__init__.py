"""Fault injection and hazard diagnosis for the simulated multiprocessor.

The paper argues its process-oriented scheme enforces ordered dependences
under *any* interleaving.  This package stresses that claim beyond the
happy path: a seeded, deterministic :class:`FaultPlan` perturbs the
hardware substrate (stalled and crashing processors, lost and delayed
synchronization broadcasts, memory-latency jitter, dropped or duplicated
read-modify-write commits), and a watchdog turns the resulting hangs into
*structured* diagnoses -- a per-task state table plus the blocking
wait-for cycle -- instead of a flat error string.

Three layers:

``repro.faults.plan``
    :class:`FaultPlan` -- the declarative, hashable description of which
    faults to inject, plus named presets (``make_plan``).
``repro.faults.injector``
    :class:`FaultInjector` -- the runtime that draws every fault decision
    from one ``random.Random(seed)`` stream.  The engine is
    deterministic, so draws happen in a reproducible order and a failing
    run replays byte-for-byte.
``repro.faults.watchdog``
    :func:`diagnose` -- builds :class:`TaskDiagnosis` records and the
    :class:`WaitForGraph` from a (possibly stuck) engine and extracts the
    blocking cycle into a :class:`HazardReport`.

:mod:`repro.faults.chaos` states the degradation contract -- every
run either validates against sequential semantics or fails with a
diagnosed structured error, never a hang, never silent corruption --
and holds the run-and-classify step every sweep cell uses.  ``python
-m repro chaos`` sweeps plans x schemes x seeds as a
:class:`~repro.lab.spec.SweepSpec` and checks each record against it.

With no plan installed (the default) none of the hooks draw randomness or
schedule events: simulations replay the exact pre-fault event sequence.
"""

from .injector import FaultInjector
from .plan import FaultPlan, make_plan, plan_names
from .watchdog import HazardReport, TaskDiagnosis, WaitForGraph, diagnose

__all__ = [
    "FaultInjector", "FaultPlan", "HazardReport", "TaskDiagnosis",
    "WaitForGraph", "diagnose", "make_plan", "plan_names",
]
