"""Coherent-cache sync fabric: hits, invalidations, eviction, semantics."""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import (Compute, Engine, Machine, MachineConfig, SharedMemory,
                       SyncRead, SyncUpdate, SyncWrite, WaitUntil)
from repro.sim.cache_fabric import CachedSyncFabric


def drive(fabric, memory, *procs):
    engine = Engine(memory, fabric)
    for index, gen in enumerate(procs):
        engine.spawn(gen, name=f"cpu{index}")
    return engine.run()


def test_second_read_hits():
    memory = SharedMemory()
    fabric = CachedSyncFabric(memory)
    var = fabric.alloc(1, init=7)[0]

    def reader():
        yield SyncRead(var)
        yield SyncRead(var)
        yield SyncRead(var)

    drive(fabric, memory, reader())
    assert fabric.misses == 1
    assert fabric.hits == 2
    assert fabric.transactions == 1


def test_write_invalidates_other_caches():
    memory = SharedMemory()
    fabric = CachedSyncFabric(memory)
    var = fabric.alloc(1, init=0)[0]
    seen = []

    def reader():
        yield SyncRead(var)          # miss, installs
        yield Compute(50)            # writer updates meanwhile
        value = yield SyncRead(var)  # must MISS again (invalidated)
        seen.append(value)

    def writer():
        yield Compute(10)
        yield SyncWrite(var, 42)

    drive(fabric, memory, reader(), writer())
    assert seen == [42]
    assert fabric.invalidations >= 1
    assert fabric.misses >= 2


def test_spinning_on_unchanged_variable_is_free():
    """Polls after the first are cache hits: no transactions while the
    variable is quiet -- the cache-coherent equivalent of local-image
    spinning."""
    memory = SharedMemory()
    fabric = CachedSyncFabric(memory, poll_interval=2)
    var = fabric.alloc(1, init=0)[0]

    def waiter():
        yield WaitUntil(var, lambda v: v >= 1)

    def setter():
        yield Compute(200)
        yield SyncWrite(var, 1)

    drive(fabric, memory, waiter(), setter())
    # one initial miss + one post-invalidation miss + the write
    assert fabric.transactions <= 4
    assert fabric.hits > 20  # ~100 free polls while quiet


def test_capacity_eviction():
    memory = SharedMemory()
    fabric = CachedSyncFabric(memory, capacity=2)
    a, b, c = fabric.alloc(3, init=0)

    def reader():
        yield SyncRead(a)
        yield SyncRead(b)
        yield SyncRead(c)   # evicts a
        yield SyncRead(a)   # must miss again ("purged out of a cache")

    drive(fabric, memory, reader())
    assert fabric.evictions >= 1
    assert fabric.misses == 4


def test_update_invalidates_everyone():
    memory = SharedMemory()
    fabric = CachedSyncFabric(memory)
    var = fabric.alloc(1, init=0)[0]
    got = []

    def reader():
        yield SyncRead(var)
        yield Compute(30)
        value = yield SyncRead(var)
        got.append(value)

    def updater():
        yield Compute(5)
        value = yield SyncUpdate(var, lambda v: v + 5)
        got.append(value)

    drive(fabric, memory, reader(), updater())
    assert 5 in got and got.count(5) == 2


def test_process_oriented_on_cached_fabric_validates(machine4):
    loop = fig21_loop(n=40)
    scheme = ProcessOrientedScheme(fabric="cached")
    result = scheme.run(loop, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_cached_fabric_costs_more_transactions_than_broadcast():
    """Each counter change costs one miss per watcher instead of one
    broadcast: the reason the paper prefers the dedicated bus."""
    loop = fig21_loop(n=80)
    machine = Machine(MachineConfig(processors=8))
    broadcast = ProcessOrientedScheme(fabric="broadcast").run(
        loop, config=RunConfig(machine=machine))
    cached = ProcessOrientedScheme(fabric="cached").run(
        loop, config=RunConfig(machine=machine))
    assert cached.sync_transactions > broadcast.sync_transactions


def test_invalid_fabric_name_rejected():
    with pytest.raises(ValueError):
        ProcessOrientedScheme(fabric="telepathy")


def test_hit_rate_property():
    memory = SharedMemory()
    fabric = CachedSyncFabric(memory)
    assert fabric.hit_rate == 0.0
    var = fabric.alloc(1, init=0)[0]

    def reader():
        yield SyncRead(var)
        yield SyncRead(var)

    drive(fabric, memory, reader())
    assert fabric.hit_rate == 0.5
