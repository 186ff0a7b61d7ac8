"""Structured hazard errors: deadlock cycles, budgets, bounded waits.

Every failure mode of the engine must surface as a DeadlockError or
SimulationLimitError carrying a HazardReport -- per-task blocking state,
the wait-for graph, and (when one exists) the blocking cycle -- so a
stuck run is debuggable from the exception alone.
"""

from __future__ import annotations

import pytest

import repro
from repro.sim import (BroadcastSyncFabric, Compute, DeadlockError, Engine,
                       HazardError, MemoryConfig, MemorySyncFabric, MemRead,
                       SharedMemory, SimulationLimitError, SyncWrite,
                       WaitUntil)


def make_engine(fabric=None, memory=None, **kwargs):
    memory = memory or SharedMemory(MemoryConfig(latency=2))
    fabric = fabric or BroadcastSyncFabric()
    return Engine(memory, fabric, **kwargs), memory, fabric


def test_cross_wait_deadlock_reports_the_cycle():
    """Two tasks each waiting on a variable the other owns: the report
    must name both tasks, their variables, and the two-task cycle."""
    fabric = BroadcastSyncFabric()
    v0, v1 = fabric.alloc(2, init=0)
    engine, *_ = make_engine(fabric=fabric)

    def a():
        yield SyncWrite(v0, 1)
        yield WaitUntil(v1, lambda v: v >= 2, reason="a needs v1>=2")

    def b():
        yield SyncWrite(v1, 1)
        yield WaitUntil(v0, lambda v: v >= 2, reason="b needs v0>=2")

    engine.spawn(a(), name="a")
    engine.spawn(b(), name="b")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    err = excinfo.value
    report = err.report
    assert report is not None
    assert sorted(err.cycle) == ["a", "b"]
    diag_a = report.by_task()["a"]
    assert diag_a.state == "parked"
    assert diag_a.var == v1
    assert diag_a.waits_on == "b"
    assert diag_a.reason == "a needs v1>=2"
    assert diag_a.value == 1          # the committed-but-insufficient value
    assert diag_a.blocked_for >= 0
    diag_b = report.by_task()["b"]
    assert diag_b.waits_on == "a"
    assert "blocking wait-for cycle" in str(err)
    assert "a -> b" in str(err) or "b -> a" in str(err)


def test_limit_error_carries_diagnosis():
    engine, *_ = make_engine(max_cycles=100)

    def spinner():
        while True:
            yield Compute(10)

    engine.spawn(spinner(), name="loop")
    with pytest.raises(SimulationLimitError) as excinfo:
        engine.run()
    report = excinfo.value.report
    assert report is not None
    assert report.by_task()["loop"].state == "running"
    assert "exceeded 100 cycles" in str(excinfo.value)


def test_limit_error_includes_non_waituntil_blocked_tasks():
    """A task stuck in a plain memory access (not a WaitUntil) must still
    appear in the diagnosis, as 'stalled' with the op description."""
    memory = SharedMemory(MemoryConfig(latency=10_000))
    engine, *_ = make_engine(memory=memory, max_cycles=100)

    def reader():
        yield MemRead(("A", 0))

    engine.spawn(reader(), name="reader")
    with pytest.raises(SimulationLimitError) as excinfo:
        engine.run()
    diag = excinfo.value.report.by_task()["reader"]
    assert diag.state == "stalled"
    assert "memory read round trip" in diag.reason


def test_bounded_park_expires_into_diagnosed_deadlock():
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=0)[0]
    engine, *_ = make_engine(fabric=fabric)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1, reason="lost release",
                        max_spin=50)

    engine.spawn(waiter(), name="w")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert "bounded wait expired" in str(excinfo.value)
    assert excinfo.value.report.by_task()["w"].state == "parked"


def test_bounded_park_timeout_does_not_stretch_makespan():
    """A satisfied bounded wait must disarm its timeout: the stale event
    is dropped without advancing simulated time."""
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=0)[0]
    engine, *_ = make_engine(fabric=fabric)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1, max_spin=100_000)

    def setter():
        yield Compute(10)
        yield SyncWrite(var, 1)

    engine.spawn(waiter(), name="w")
    engine.spawn(setter(), name="s")
    assert engine.run() < 100


def test_bounded_poll_expires_into_diagnosed_deadlock():
    memory = SharedMemory()
    fabric = MemorySyncFabric(memory, poll_interval=3)
    var = fabric.alloc(1, init=0)[0]
    engine = Engine(memory, fabric)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1, reason="never set",
                        max_spin=60)

    engine.spawn(waiter(), name="w")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert "bounded wait expired" in str(excinfo.value)
    assert excinfo.value.report.by_task()["w"].state == "polling"


def test_stagnation_watchdog_catches_poll_livelock():
    """Poll-mode waiters keep the event queue busy forever, so a drained
    queue never happens; the stagnation watchdog must catch it."""
    memory = SharedMemory()
    fabric = MemorySyncFabric(memory, poll_interval=3)
    var = fabric.alloc(1, init=0)[0]
    engine = Engine(memory, fabric, stagnation_limit=200)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1, reason="stuck poll")

    engine.spawn(waiter(), name="w")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert str(excinfo.value).splitlines()[0] == (
        "stagnation: 201 consecutive events without any process making "
        "progress (stagnation_limit=200)")
    # The raising event opens its bucket: the check runs before the
    # clock advances to it.
    assert excinfo.value.report.now == 704
    diag = excinfo.value.report.by_task()["w"]
    assert diag.state == "polling"
    assert diag.var == var


def test_stagnation_watchdog_ignores_real_progress():
    memory = SharedMemory()
    fabric = MemorySyncFabric(memory, poll_interval=3)
    var = fabric.alloc(1, init=0)[0]
    engine = Engine(memory, fabric, stagnation_limit=200)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1)

    def setter():
        for _ in range(100):
            yield Compute(10)
        yield SyncWrite(var, 1)

    engine.spawn(waiter(), name="w")
    engine.spawn(setter(), name="s")
    engine.run()  # completes: polling with eventual release is not a hang


@pytest.mark.parametrize("limit", [-1, 0])
def test_engine_rejects_non_positive_stagnation_limit(limit):
    """A limit below 1 would declare a healthy run stagnant at its first
    event, so the engine refuses it like ``MachineConfig`` does."""
    with pytest.raises(ValueError, match="stagnation_limit must be >= 1"):
        make_engine(stagnation_limit=limit)


def test_hazard_errors_are_a_family():
    assert issubclass(DeadlockError, HazardError)
    assert issubclass(SimulationLimitError, HazardError)
    err = DeadlockError("bare")  # report-less raise still works
    assert err.report is None
    assert err.tasks == []
    assert err.cycle is None


def test_error_types_reexported_from_top_level_package():
    assert repro.DeadlockError is DeadlockError
    assert repro.SimulationLimitError is SimulationLimitError
    assert repro.HazardError is HazardError
    assert repro.ValidationError is not None
    assert repro.FaultPlan is not None
    assert repro.make_plan("jitter").name == "jitter"
