"""Failure injection: broken synchronization must fail validation.

These tests prove the validation harness is not vacuous: deliberately
sabotaged schemes (dropped waits, zeroed thresholds, missing releases)
produce detectable races or deadlocks under the same machines on which
the real schemes validate cleanly.
"""

from __future__ import annotations

from typing import Generator

import pytest

from repro.apps.kernels import fig21_loop
from repro.core.codegen import PlannedWait, StatementPlan, SyncPlan
from repro.depend.model import Loop, Statement, ref1
from repro.schemes import RunConfig
from repro.schemes.process_oriented import ProcessOrientedScheme
from repro.schemes.statement_oriented import StatementOrientedScheme
from repro.sim import (DeadlockError, Machine, MachineConfig,
                       ValidationError)


def tight_loop():
    """A loop whose sink precedes its source textually: the sink of
    B's flow dependence (S1) runs at the *start* of iteration i while
    the source (S3) runs at the *end* of iteration i-1, so without the
    wait the race manifests immediately (Fig 2.1's layout, by contrast,
    self-orders: its doacross delay is zero)."""
    body = [
        Statement("S1", reads=(ref1("B", 1, -1),), cost=1),
        Statement("S2", writes=(ref1("C", 1, 0),), cost=40),
        Statement("S3", writes=(ref1("B", 1, 0),), cost=1),
    ]
    return Loop("racy", bounds=((1, 40),), body=body)


def machine():
    return Machine(MachineConfig(processors=8))


def strip_waits(plan: SyncPlan) -> SyncPlan:
    """A sabotaged plan: all waits removed, publications kept."""
    stripped = [StatementPlan(sid=p.sid, waits=(),
                              source_step=p.source_step,
                              is_last_source=p.is_last_source)
                for p in plan.statements]
    return SyncPlan(loop=plan.loop, arcs=plan.arcs, statements=stripped,
                    step_of=plan.step_of, n_sources=plan.n_sources)


def test_dropping_all_waits_is_detected():
    loop = tight_loop()
    scheme = ProcessOrientedScheme(processors=8)
    instrumented = scheme.instrument(loop)
    instrumented.plan = strip_waits(instrumented.plan)
    instrumented.recompile()  # op streams are compiled at instrument time
    result = machine().run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_dropping_one_wait_is_detected():
    """Removing only S1's wait: S1 reads stale B[i-1] values."""
    loop = tight_loop()
    scheme = ProcessOrientedScheme(processors=8)
    instrumented = scheme.instrument(loop)
    plan = instrumented.plan
    sabotaged = [
        StatementPlan(sid=p.sid,
                      waits=() if p.sid == "S1" else p.waits,
                      source_step=p.source_step,
                      is_last_source=p.is_last_source)
        for p in plan.statements]
    instrumented.plan = SyncPlan(loop=plan.loop, arcs=plan.arcs,
                                 statements=sabotaged,
                                 step_of=plan.step_of,
                                 n_sources=plan.n_sources)
    instrumented.recompile()
    result = machine().run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_publishing_steps_early_is_detected():
    """Marking every step *before* executing the statement breaks the
    source-completes-first guarantee."""
    loop = tight_loop()
    scheme = ProcessOrientedScheme(processors=8, style="basic")
    instrumented = scheme.instrument(loop)

    def premature(pid: int) -> Generator:
        # publish everything immediately, then run the plain body
        from repro.core.primitives import get_pc, release_pc, set_pc
        from repro.schemes.base import statement_instances
        yield from get_pc(instrumented.counters, pid)
        for step in range(1, instrumented.plan.n_sources):
            yield from set_pc(instrumented.counters, pid, step)
        yield from release_pc(instrumented.counters, pid)
        for compiled in statement_instances(loop, pid).values():
            yield from compiled.stream()

    instrumented.make_process = premature
    result = machine().run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_missing_release_deadlocks():
    """A process that never releases its counter starves pid + X."""
    loop = fig21_loop(n=30, cost=1)  # any loop with sources will do
    scheme = ProcessOrientedScheme(processors=4, n_counters=2,
                                   style="basic")
    instrumented = scheme.instrument(loop)
    original = instrumented.make_process

    def leaky(pid: int) -> Generator:
        for op in original(pid):
            from repro.sim.ops import SyncWrite
            if (isinstance(op, SyncWrite)
                    and isinstance(op.value, tuple)
                    and op.value[0] > pid):
                continue  # swallow the release broadcast
            yield op

    instrumented.make_process = leaky
    with pytest.raises(DeadlockError):
        machine().run(instrumented)


def test_statement_scheme_without_awaits_detected():
    loop = tight_loop()
    scheme = StatementOrientedScheme()
    instrumented = scheme.instrument(loop)

    # Await becomes a no-op: drop every arc (the Advance chain stays,
    # since the counters were assigned per source at instrument time)
    # and recompile the op streams.
    instrumented.arcs = []
    instrumented.recompile()
    result = machine().run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_unsabotaged_schemes_pass_the_same_machines():
    """Control: the honest schemes validate on identical configs."""
    loop = tight_loop()
    for scheme in (ProcessOrientedScheme(processors=8),
                   StatementOrientedScheme()):
        scheme.run(
            loop, config=RunConfig(machine=machine()))  # raises if invalid


def test_signaling_before_visibility_detected():
    """Section 2.2 requirement (1): a source may signal completion only
    after its write is globally visible.  Dropping the Fence while the
    memory is slow and the sync bus is fast lets the signal overtake the
    data -- the validator must catch the stale read."""
    from repro.sim.ops import Fence
    from repro.sim import MachineConfig, MemoryConfig

    loop = tight_loop()
    scheme = ProcessOrientedScheme(
        processors=8, fabric_kwargs={"bus_service": 1, "propagation": 0,
                                     "issue_cost": 0})
    instrumented = scheme.instrument(loop)
    original = instrumented.make_process

    def fenceless(pid):
        for op in original(pid):
            if isinstance(op, Fence):
                continue
            yield op

    instrumented.make_process = fenceless
    slow_writes = Machine(MachineConfig(
        processors=8, memory=MemoryConfig(latency=2, write_latency=60)))
    result = slow_writes.run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_with_fence_the_same_machine_validates():
    """Control for the fence ablation: the honest scheme passes on the
    identical slow-memory/fast-bus machine."""
    from repro.sim import MachineConfig, MemoryConfig

    loop = tight_loop()
    scheme = ProcessOrientedScheme(
        processors=8, fabric_kwargs={"bus_service": 1, "propagation": 0,
                                     "issue_cost": 0})
    slow_writes = Machine(MachineConfig(
        processors=8, memory=MemoryConfig(latency=2, write_latency=60)))
    scheme.run(
        loop, config=RunConfig(machine=slow_writes))  # raises if invalid


def test_off_by_one_wait_distance_detected():
    """Waiting on pid-2 instead of pid-1 (an off-by-one in the emitted
    distance) lets the true predecessor race ahead undetected -- the
    validator must flag the stale reads."""
    from repro.core.codegen import SyncPlan, StatementPlan, PlannedWait

    loop = tight_loop()
    scheme = ProcessOrientedScheme(processors=8)
    instrumented = scheme.instrument(loop)
    plan = instrumented.plan
    sabotaged = []
    for p in plan.statements:
        waits = tuple(PlannedWait(dist=w.dist + 1, step=w.step, src=w.src)
                      for w in p.waits)
        sabotaged.append(StatementPlan(sid=p.sid, waits=waits,
                                       source_step=p.source_step,
                                       is_last_source=p.is_last_source))
    instrumented.plan = SyncPlan(loop=plan.loop, arcs=plan.arcs,
                                 statements=sabotaged,
                                 step_of=plan.step_of,
                                 n_sources=plan.n_sources)
    instrumented.recompile()
    result = machine().run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_wrong_step_number_detected():
    """Waiting for step 1 when the true source is step 2 releases the
    sink after the *first* source statement -- too early."""
    from repro.core.codegen import SyncPlan, StatementPlan, PlannedWait
    from repro.depend.model import Loop, Statement, ref1

    # SinkB waits on source step 2 (Sb), which completes only after a
    # long computation; step 1 (Sa) completes almost immediately.
    # Demoting SinkB's wait to step 1 releases it ~60 cycles early into
    # a stale B read.  (The sink-before-source interleaving is chosen so
    # coverage pruning cannot legally remove any of the three arcs.)
    body = [
        Statement("SinkA", reads=(ref1("A", 1, -1),), cost=1),
        Statement("Sa", writes=(ref1("A", 1, 0),), cost=1),
        Statement("SinkB", reads=(ref1("B", 1, -1),), cost=1),
        Statement("Smid", reads=(ref1("D", 1, 0),), cost=60),
        Statement("Sb", writes=(ref1("B", 1, 0),), cost=1),
        Statement("Sc", writes=(ref1("C", 1, 0),), cost=1),
        Statement("SinkC", reads=(ref1("C", 1, -1),), cost=1),
    ]
    loop = Loop("steps", bounds=((1, 30),), body=body)
    scheme = ProcessOrientedScheme(processors=8)
    instrumented = scheme.instrument(loop)
    plan = instrumented.plan
    sabotaged = []
    for p in plan.statements:
        waits = tuple(PlannedWait(dist=w.dist, step=1, src=w.src)
                      for w in p.waits)  # all waits demoted to step 1
        sabotaged.append(StatementPlan(sid=p.sid, waits=waits,
                                       source_step=p.source_step,
                                       is_last_source=p.is_last_source))
    instrumented.plan = SyncPlan(loop=plan.loop, arcs=plan.arcs,
                                 statements=sabotaged,
                                 step_of=plan.step_of,
                                 n_sources=plan.n_sources)
    instrumented.recompile()
    result = machine().run(instrumented)
    with pytest.raises(ValidationError):
        instrumented.validate(result)


@pytest.mark.parametrize("make_scheme", [
    lambda: ProcessOrientedScheme(processors=8),
    lambda: ProcessOrientedScheme(processors=8, n_counters=4),
    StatementOrientedScheme,
], ids=["process-oriented", "process-oriented-x4", "statement-oriented"])
def test_recompile_after_mutation_equals_fresh_instrument(make_scheme):
    """Placements of one loop share ops through memos on the loop.
    Rewriting a placement's arcs (and plan) and recompiling must build
    what a fresh instrument of the rewritten arcs on a fresh loop
    builds: the rewrite misses the warm memos, never hits a stale op."""
    from dataclasses import replace

    from repro.core.codegen import build_sync_plan

    from ..analyze.test_optimize_trials import op_streams

    loop = fig21_loop(n=30, cost=1)
    scheme = make_scheme()
    instrumented = scheme.instrument(loop)
    arcs = list(instrumented.arcs)
    # warm the loop's memos with a second placement of the same loop
    scheme.instrument(loop, arcs=arcs[1:])
    # keep every source (the counter layout is fixed at instrument
    # time) but drop one arc and stretch the distance of another
    rewritten = [replace(arc, distance=arc.distance + 1)
                 if arc is arcs[0] else arc
                 for arc in arcs if (arc.src, arc.dst) != ("S1", "S3")]
    assert len(rewritten) == len(arcs) - 1
    if hasattr(instrumented, "plan"):
        instrumented.plan = build_sync_plan(loop, instrumented.graph,
                                            arcs=rewritten)
    else:
        instrumented.arcs = rewritten
    instrumented.recompile()
    fresh_loop = fig21_loop(n=30, cost=1)
    fresh = make_scheme().instrument(fresh_loop, arcs=rewritten)
    assert op_streams(instrumented) == op_streams(fresh)
    assert op_streams(instrumented) != op_streams(
        make_scheme().instrument(fresh_loop, arcs=arcs))
