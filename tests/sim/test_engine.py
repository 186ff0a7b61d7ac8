"""Engine semantics: timing, visibility, waits, determinism, deadlock."""

from __future__ import annotations

import pytest

from repro.sim import (Annotate, BroadcastSyncFabric, Compute, DeadlockError,
                       Engine, Fence, MemRead, MemWrite, MemoryConfig,
                       MemorySyncFabric, SharedMemory, SimulationLimitError,
                       SyncUpdate, SyncWrite, Tag, WaitUntil)


def make_engine(fabric=None, memory=None, **kwargs):
    memory = memory or SharedMemory(MemoryConfig(latency=2))
    fabric = fabric or BroadcastSyncFabric()
    return Engine(memory, fabric, **kwargs), memory, fabric


def run_one(gen, **kwargs):
    engine, memory, fabric = make_engine(**kwargs)
    stats = engine.spawn(gen, name="t")
    makespan = engine.run()
    return engine, stats, makespan


def test_compute_advances_time_and_busy():
    def proc():
        yield Compute(7)
        yield Compute(3)

    _engine, stats, makespan = run_one(proc())
    assert makespan == 10
    assert stats.busy == 10
    assert stats.done_at == 10


def test_compute_rejects_negative():
    with pytest.raises(ValueError):
        Compute(-1)


def test_read_returns_written_value():
    def proc(out):
        yield MemWrite(("A", 0), 99)
        yield Fence()
        value = yield MemRead(("A", 0))
        out.append(value)

    out = []
    run_one(proc(out))
    assert out == [99]


def test_posted_write_not_yet_visible_without_fence():
    """A second process reading immediately may see the old value; after
    the writer's fence completes, reads see the new value."""
    memory = SharedMemory(MemoryConfig(latency=10))
    engine = Engine(memory, BroadcastSyncFabric())
    order = []

    def writer():
        yield MemWrite(("A", 0), 1)
        order.append(("write_issued", engine.now))
        yield Fence()
        order.append(("fence_done", engine.now))

    engine.spawn(writer(), name="w")
    engine.run()
    issued = dict(order)["write_issued"]
    fenced = dict(order)["fence_done"]
    assert issued < fenced  # the fence actually waited for visibility
    assert memory.peek(("A", 0)) == 1


def test_fence_with_no_writes_is_immediate():
    def proc():
        yield Fence()

    _e, _s, makespan = run_one(proc())
    assert makespan == 0


def test_event_wait_wakes_on_commit():
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=0)[0]
    engine, *_ = make_engine(fabric=fabric)
    log = []

    def waiter():
        yield WaitUntil(var, lambda v: v >= 5, reason="v>=5")
        log.append(("woke", engine.now))

    def setter():
        yield Compute(50)
        yield SyncWrite(var, 5)

    w = engine.spawn(waiter(), name="waiter")
    engine.spawn(setter(), name="setter")
    engine.run()
    assert log and log[0][1] >= 50
    assert w.spin >= 50  # the whole wait is accounted as spin


def test_wait_already_satisfied_counts_as_immediate():
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=9)[0]
    engine, *_ = make_engine(fabric=fabric)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 5)

    stats = engine.spawn(waiter(), name="w")
    engine.run()
    assert stats.waits_satisfied_immediately == 1
    assert stats.spin == 0


def test_polled_wait_charges_fabric_transactions():
    memory = SharedMemory()
    fabric = MemorySyncFabric(memory, poll_interval=3)
    var = fabric.alloc(1, init=0)[0]
    engine = Engine(memory, fabric)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1)

    def setter():
        yield Compute(40)
        yield SyncWrite(var, 1)

    engine.spawn(waiter(), name="w")
    engine.spawn(setter(), name="s")
    engine.run()
    # ~40 cycles of polling every 3 cycles, plus the set itself
    assert fabric.transactions >= 5


def test_sync_update_returns_new_value():
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=10)[0]
    engine, *_ = make_engine(fabric=fabric)
    got = []

    def proc():
        value = yield SyncUpdate(var, lambda v: v + 5)
        got.append(value)

    engine.spawn(proc(), name="p")
    engine.run()
    assert got == [15]
    assert fabric.value(var) == 15


def test_concurrent_sync_updates_are_atomic():
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=0)[0]
    engine, *_ = make_engine(fabric=fabric)
    seen = []

    def proc():
        value = yield SyncUpdate(var, lambda v: v + 1)
        seen.append(value)

    for i in range(10):
        engine.spawn(proc(), name=f"p{i}")
    engine.run()
    assert sorted(seen) == list(range(1, 11))  # every increment distinct
    assert fabric.value(var) == 10


def test_deadlock_detected_with_reason():
    fabric = BroadcastSyncFabric()
    var = fabric.alloc(1, init=0)[0]
    engine, *_ = make_engine(fabric=fabric)

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1, reason="never-signalled")

    engine.spawn(waiter(), name="stuck")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert "never-signalled" in str(excinfo.value)


def test_cycle_budget_enforced():
    engine, *_ = make_engine(max_cycles=100)

    def spinner():
        while True:
            yield Compute(10)

    engine.spawn(spinner(), name="loop")
    with pytest.raises(SimulationLimitError):
        engine.run()


def test_events_in_the_past_rejected():
    engine, *_ = make_engine()
    engine.now = 10
    with pytest.raises(ValueError):
        engine.schedule(5, lambda: None)


def test_annotation_tag_captured_at_issue_time():
    """The trace must attribute a posted write to the tag current at
    issue, not at commit (regression test)."""
    memory = SharedMemory(MemoryConfig(latency=20))
    engine = Engine(memory, BroadcastSyncFabric())

    def proc():
        yield Tag(("S1", 1))
        yield MemWrite(("A", 0), 1)
        yield Tag(None)
        yield Compute(100)

    engine.spawn(proc(), name="p")
    engine.run()
    writes = [r for r in engine.trace if r.kind == "W"]
    assert writes[0].tag == ("S1", 1)


def test_annotate_events_recorded():
    engine, *_ = make_engine()

    def proc():
        yield Compute(5)
        yield Annotate("phase_done", {"pid": 0, "phase": 1})

    engine.spawn(proc(), name="p")
    engine.run()
    assert engine.events == [(5, "phase_done", {"pid": 0, "phase": 1})]


def test_unknown_operation_rejected():
    engine, *_ = make_engine()

    def proc():
        yield "not-an-op"

    engine.spawn(proc(), name="p")
    with pytest.raises(TypeError):
        engine.run()


def test_deterministic_replay():
    """Two identical simulations produce identical traces and times."""
    def build():
        memory = SharedMemory()
        fabric = BroadcastSyncFabric()
        var = fabric.alloc(1, init=0)[0]
        engine = Engine(memory, fabric)

        def ping():
            yield Compute(3)
            yield SyncWrite(var, 1)
            yield MemWrite(("A", 0), 1)

        def pong():
            yield WaitUntil(var, lambda v: v >= 1)
            value = yield MemRead(("A", 0))
            yield MemWrite(("A", 1), value)

        engine.spawn(ping(), name="ping")
        engine.spawn(pong(), name="pong")
        makespan = engine.run()
        return makespan, [(r.commit, r.kind, r.addr, r.value)
                          for r in engine.trace]

    assert build() == build()


def test_commit_before_same_cycle_resume():
    """A value committed at time t is visible to a read completing at t."""
    memory = SharedMemory(MemoryConfig(latency=0, service_time=1))
    engine = Engine(memory, BroadcastSyncFabric())
    got = []

    def writer():
        yield MemWrite(("B", 0), 123)

    def reader():
        yield Compute(2)  # read completes after the write's commit
        value = yield MemRead(("B", 0))
        got.append(value)

    engine.spawn(writer(), name="w")
    engine.spawn(reader(), name="r")
    engine.run()
    assert got == [123]


def test_store_to_load_forwarding_same_task():
    """A task reading its own uncommitted posted write gets the buffered
    value immediately (store-to-load forwarding), even when writes take
    far longer to commit than reads."""
    memory = SharedMemory(MemoryConfig(latency=2, write_latency=50))
    engine = Engine(memory, BroadcastSyncFabric())
    seen = []

    def proc():
        yield MemWrite(("A", 0), 123)
        value = yield MemRead(("A", 0))   # before the commit at t~50
        seen.append((value, engine.now))

    engine.spawn(proc(), name="p")
    engine.run()
    assert seen[0][0] == 123
    assert seen[0][1] < 10  # forwarded, not stalled until the commit


def test_forwarding_returns_newest_pending_write():
    memory = SharedMemory(MemoryConfig(latency=2, write_latency=50))
    engine = Engine(memory, BroadcastSyncFabric())
    seen = []

    def proc():
        yield MemWrite(("A", 0), 1)
        yield MemWrite(("A", 0), 2)
        value = yield MemRead(("A", 0))
        seen.append(value)

    engine.spawn(proc(), name="p")
    engine.run()
    assert seen == [2]


def test_forwarding_ends_after_commit():
    """Once every pending write committed, reads go to memory again
    (and still see the committed value)."""
    memory = SharedMemory(MemoryConfig(latency=2, write_latency=10))
    engine = Engine(memory, BroadcastSyncFabric())
    seen = []

    def proc():
        yield MemWrite(("A", 0), 7)
        yield Compute(50)            # commit happens meanwhile
        value = yield MemRead(("A", 0))
        seen.append(value)

    engine.spawn(proc(), name="p")
    engine.run()
    assert seen == [7]
    assert memory.reads == 1  # the late read was a real memory read


def test_no_forwarding_across_tasks():
    """Other processors must NOT see a write before it commits."""
    memory = SharedMemory(MemoryConfig(latency=1, write_latency=40))
    engine = Engine(memory, BroadcastSyncFabric())
    seen = []

    def writer():
        yield MemWrite(("A", 0), 9)

    def reader():
        yield Compute(5)             # well before the commit at ~40
        value = yield MemRead(("A", 0))
        seen.append(value)

    engine.spawn(writer(), name="w")
    engine.spawn(reader(), name="r")
    engine.run()
    assert seen == [None]
