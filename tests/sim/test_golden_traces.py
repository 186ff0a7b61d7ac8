"""Golden-trace byte-identity pins for the engine hot-path rewrite.

The engine's correctness gate is *byte-identical* ``RunResult``s in
full-metrics mode: every field of the result -- per-access trace, sync
trace, per-task stats, final memory, the event stream -- is fingerprinted
(canonical JSON -> sha256) and compared against ``golden_traces.json``,
which was generated from the pre-rewrite tuple-heap engine.  Any change
to event ordering, tie-breaking, spin accounting or trace contents shows
up as a fingerprint mismatch.

The grid covers all four schemes x {fig2.1, the fig3.1 grid's loop at a
fig3.1 size, the fig3.2 grid's delayed loop} plus the butterfly barriers
(Example 4), so both fabrics, both wait modes, prologues and the posted
write path are all pinned.  The process-oriented scheme runs in both
primitive styles: the improved default (Fig. 4.3) and, as
``process-oriented-basic``, the basic one (Fig. 4.2).  Crash-recovery
cases (every scheme x {crash-task, crashy} on the fig2.1 and fig3.1
loops) pin the checkpoint payloads and the replay streams the same way;
each must also validate and must actually reincarnate a crashed task.
The hand-written workloads of Examples 1, 4 and 5 and the serial loop
of multi-loop programs are pinned under ``workload/...``.

Regenerate (only when a change is *meant* to alter results)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/sim/test_golden_traces.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Tuple

import pytest

from repro.apps.fft import BarrierFFT, PairwiseFFT
from repro.apps.kernels import fig21_loop
from repro.apps.pde import BarrierPDE, NeighborPDE
from repro.apps.relaxation import (PipelinedRelaxation, SerialRelaxation,
                                   StatementPipelinedRelaxation,
                                   WavefrontRelaxation)
from repro.compiler.program import SerialLoopWorkload
from repro.faults import make_plan
from repro.faults.chaos import FAULT_MAX_CYCLES, FAULT_STAGNATION_LIMIT
from repro.lab.apps import build_app
from repro.barriers import (BrooksButterflyBarrier, CounterBarrier,
                            DisseminationBarrier, PCButterflyBarrier,
                            PhasedWorkload, TournamentBarrier)
from repro.recovery import RecoveryPolicy
from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.sim.machine import Machine, MachineConfig
from repro.sim.metrics import RunResult

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_traces.json"

#: loop workloads: case stem -> (app, params, processors, schedule)
LOOPS: Dict[str, Tuple[str, Dict[str, Any], int, str]] = {
    "fig2.1": ("fig2.1", {"n": 16}, 4, "self"),
    "fig3.1": ("fig2.1", {"n": 50}, 8, "self"),
    "fig3.2": ("fig2.1-delay",
               {"n": 48, "slow_iteration": 16, "slow_cost": 400}, 8, "self"),
}

#: scheme case names -> (registry name, factory kwargs): the four
#: schemes at their defaults plus the basic primitive style
SCHEMES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    **{name: (name, {}) for name in scheme_names()},
    "process-oriented-basic": ("process-oriented", {"style": "basic"}),
}

#: crash-recovery cases: loop stems x fault plans, seed 0
RECOVERY_LOOPS = ("fig2.1", "fig3.1")
RECOVERY_PLANS = ("crash-task", "crashy")

BARRIERS = {
    "butterfly-brooks": BrooksButterflyBarrier,
    "butterfly-pc": PCButterflyBarrier,
}


def _region_cost(region: int, sweep: int) -> int:
    return (region * 11 + sweep * 5) % 17 + 20


def _stage_cost(pid: int, stage: int) -> int:
    return (pid * 13 + stage * 7) % 19 + 15


#: hand-written workloads: case name -> (workload factory,
#: processors, schedule); each factory builds a fresh workload
WORKLOADS = {
    "serial-relaxation": (lambda: SerialRelaxation(8), 1, "block"),
    "wavefront-relaxation": (
        lambda: WavefrontRelaxation(8, CounterBarrier(4)), 4, "block"),
    "pipelined-relaxation": (
        lambda: PipelinedRelaxation(8, group=2), 4, "self"),
    "statement-pipelined-relaxation": (
        lambda: StatementPipelinedRelaxation(8, n_counters=3), 4, "self"),
    "neighbor-pde": (lambda: NeighborPDE(4, 3, _region_cost), 4, "block"),
    "barrier-pde": (
        lambda: BarrierPDE(4, 3, _region_cost, TournamentBarrier(4)),
        4, "block"),
    "pairwise-fft": (lambda: PairwiseFFT(4, _stage_cost), 4, "block"),
    "barrier-fft": (
        lambda: BarrierFFT(4, _stage_cost, DisseminationBarrier(4)),
        4, "block"),
    "serial-loop": (lambda: SerialLoopWorkload(fig21_loop(n=12)),
                    2, "block"),
}


def _canon(value: Any) -> Any:
    """JSON-able canonical form (tuples->lists, tuple dict keys kept)."""
    if isinstance(value, dict):
        return sorted(([_canon(k), _canon(v)] for k, v in value.items()),
                      key=repr)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canon(dataclasses.asdict(value))
    return value


def fingerprint(result: RunResult) -> str:
    """sha256 over every byte of a run's observable result."""
    payload = {
        "makespan": result.makespan,
        "processors": [_canon(stats) for stats in result.processors],
        "memory_transactions": result.memory_transactions,
        "memory_hotspot": result.memory_hotspot,
        "sync_transactions": result.sync_transactions,
        "covered_writes": result.covered_writes,
        "sync_vars": result.sync_vars,
        "sync_storage_words": result.sync_storage_words,
        "init_cycles": result.init_cycles,
        "trace": [_canon(record) for record in result.trace],
        "sync_trace": _canon(result.sync_trace),
        "final_memory": _canon(result.final_memory),
        "extra": _canon(result.extra),
        "summary": _canon(result.summary()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_loop_case(scheme_name: str, stem: str,
                   stagnation_limit=None) -> RunResult:
    return _run_loop_machine(scheme_name, stem, stagnation_limit)[0]


def _run_loop_machine(scheme_name: str, stem: str,
                      stagnation_limit=None) -> Tuple[RunResult, Machine]:
    app, params, processors, schedule = LOOPS[stem]
    loop = build_app(app, dict(params))
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule, record_trace=True,
                                    stagnation_limit=stagnation_limit))
    result = _make_scheme(scheme_name).run(
        loop, config=RunConfig(machine=machine, validate=False))
    return result, machine


def _make_scheme(scheme_name: str):
    name, kwargs = SCHEMES[scheme_name]
    return make_scheme(name, **kwargs)


def _run_recovery_case(scheme_name: str, stem: str,
                       plan: str) -> RunResult:
    """A crash-recovery run: checkpoints on, crashed tasks replayed."""
    app, params, processors, schedule = LOOPS[stem]
    instrumented = _make_scheme(scheme_name).instrument(
        build_app(app, dict(params)))
    instrumented.bound_waits(100_000)
    machine = Machine(MachineConfig(
        processors=processors, schedule=schedule, record_trace=True,
        fault_plan=make_plan(plan, seed=0), max_cycles=FAULT_MAX_CYCLES,
        stagnation_limit=FAULT_STAGNATION_LIMIT,
        recovery=RecoveryPolicy()))
    result = machine.run(instrumented)
    instrumented.validate(result)
    # the pin covers replay only if a crashed task was reincarnated
    assert result.extra["recovery"]["reincarnations"] > 0
    return result


def _run_barrier_case(name: str) -> RunResult:
    barrier = BARRIERS[name](8)
    workload = PhasedWorkload(
        barrier, n_phases=3,
        work=lambda pid, phase: (pid * 7 + phase * 13) % 23 + 5)
    machine = Machine(MachineConfig(processors=8, schedule="block",
                                    record_trace=True))
    return machine.run(workload)


def _run_workload_case(name: str) -> RunResult:
    factory, processors, schedule = WORKLOADS[name]
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule, record_trace=True))
    return machine.run(factory())


def _all_cases():
    for stem in LOOPS:
        for scheme_name in SCHEMES:
            yield f"{stem}/{scheme_name}", (
                lambda s=scheme_name, t=stem: _run_loop_case(s, t))
    for stem in RECOVERY_LOOPS:
        for plan in RECOVERY_PLANS:
            for scheme_name in SCHEMES:
                yield f"recover/{stem}/{plan}/{scheme_name}", (
                    lambda s=scheme_name, t=stem, p=plan:
                    _run_recovery_case(s, t, p))
    for name in BARRIERS:
        yield name, (lambda n=name: _run_barrier_case(n))
    for name in WORKLOADS:
        yield f"workload/{name}", (lambda n=name: _run_workload_case(n))


CASES = dict(_all_cases())

REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    if REGEN or not GOLDEN_PATH.exists():
        table = {case_id: fingerprint(run()) for case_id, run in
                 CASES.items()}
        GOLDEN_PATH.write_text(json.dumps(table, indent=2,
                                          sort_keys=True) + "\n")
        return table
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_run_result_bytes_match_golden(case_id: str,
                                       golden: Dict[str, str]) -> None:
    """Full-metrics RunResults are byte-identical to the pinned trace."""
    assert case_id in golden, (
        f"{case_id} missing from {GOLDEN_PATH.name}; regenerate with "
        "REPRO_REGEN_GOLDEN=1")
    assert fingerprint(CASES[case_id]()) == golden[case_id], (
        f"{case_id}: RunResult bytes diverged from the golden trace -- "
        "the engine rewrite changed observable behavior")


@pytest.mark.parametrize("stem", sorted(LOOPS))
@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_armed_watchdog_matches_golden(scheme_name: str, stem: str,
                                       golden: Dict[str, str]) -> None:
    """Arming the stagnation watchdog only adds a check per event: a
    healthy run keeps the unarmed golden bytes and processes exactly the
    same number of events."""
    armed, armed_machine = _run_loop_machine(
        scheme_name, stem, stagnation_limit=FAULT_STAGNATION_LIMIT)
    assert fingerprint(armed) == golden[f"{stem}/{scheme_name}"]
    _, plain_machine = _run_loop_machine(scheme_name, stem)
    assert (armed_machine.last_run_info["events_processed"]
            == plain_machine.last_run_info["events_processed"])


def test_replay_is_deterministic() -> None:
    """Two identical runs produce identical fingerprints (same process)."""
    first = _run_loop_case("process-oriented", "fig2.1")
    second = _run_loop_case("process-oriented", "fig2.1")
    assert fingerprint(first) == fingerprint(second)


# ---------------------------------------------------------------------------
# counters mode: the opt-in fast path must agree with full metrics
# ---------------------------------------------------------------------------


def _run_loop_case_counters(scheme_name: str, stem: str) -> RunResult:
    app, params, processors, schedule = LOOPS[stem]
    loop = build_app(app, dict(params))
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule, metrics="counters"))
    return make_scheme(scheme_name).run(
        loop, config=RunConfig(machine=machine, validate=False))


@pytest.mark.parametrize("stem", sorted(LOOPS))
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_counters_mode_matches_full_counters(scheme_name: str,
                                             stem: str) -> None:
    """``metrics="counters"`` skips per-event collection, nothing else:
    every end-of-run counter -- the whole ``summary()`` dict -- must
    equal the full-metrics run's, event for event."""
    full = _run_loop_case(scheme_name, stem)
    fast = _run_loop_case_counters(scheme_name, stem)
    assert fast.summary() == full.summary()
    assert fast.makespan == full.makespan
    # and the fast path really did skip collection
    assert fast.trace == [] and fast.sync_trace == []
    assert full.trace != []


# ---------------------------------------------------------------------------
# randomized-schedule spot check (property-based)
# ---------------------------------------------------------------------------

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(max_examples=12, deadline=None)
@given(scheme_name=st.sampled_from(["process-oriented",
                                    "statement-oriented",
                                    "reference-based", "instance-based"]),
       schedule=st.sampled_from(["self", "chunk", "cyclic", "block"]),
       processors=st.integers(min_value=2, max_value=9),
       n=st.integers(min_value=4, max_value=28))
def test_random_configs_full_equals_counters(scheme_name: str,
                                             schedule: str,
                                             processors: int,
                                             n: int) -> None:
    """Across randomized (scheme, schedule, P, n) configurations, the
    counters fast path and the full-metrics path agree on every final
    counter, and the full run validates against sequential semantics --
    so the hot-path rewrite holds off the pinned grid too."""
    loop = build_app("fig2.1", {"n": n})
    scheme = make_scheme(scheme_name)
    full = scheme.run(loop, config=RunConfig(
        machine=Machine(MachineConfig(processors=processors,
                                      schedule=schedule,
                                      record_trace=True))))
    fast = scheme.run(loop, config=RunConfig(
        machine=Machine(MachineConfig(processors=processors,
                                      schedule=schedule,
                                      metrics="counters")),
        validate=False))
    assert fast.summary() == full.summary()
