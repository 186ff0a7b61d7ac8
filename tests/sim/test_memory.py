"""Shared-memory model: latency, interleaving, contention, hot spots."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.schemes import RunConfig
from repro.sim.memory import MemoryConfig, SharedMemory


def test_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(latency=-1)
    with pytest.raises(ValueError):
        MemoryConfig(service_time=0)
    with pytest.raises(ValueError):
        MemoryConfig(modules=0)


def test_uncontended_access_time_is_service_plus_latency():
    memory = SharedMemory(MemoryConfig(latency=4, service_time=1))
    assert memory.access_time(("A", 0), now=10) == 10 + 1 - 1 + 4


def test_same_module_requests_serialize():
    memory = SharedMemory(MemoryConfig(latency=0, service_time=3, modules=4))
    first = memory.access_time(("A", 0), now=0)
    second = memory.access_time(("A", 0), now=0)  # same address, same module
    assert second == first + 3


def test_different_modules_do_not_serialize():
    memory = SharedMemory(MemoryConfig(latency=0, service_time=3, modules=4))
    first = memory.access_time(("A", 0), now=0)
    second = memory.access_time(("A", 1), now=0)  # neighbour interleaves away
    assert second == first


def test_module_interleaving_spreads_neighbours():
    memory = SharedMemory(MemoryConfig(modules=8))
    modules = {memory.module_of(("A", i)) for i in range(8)}
    assert len(modules) == 8


def test_module_mapping_is_stable_across_interpreter_runs():
    """The array -> module hash must not be salted (Python's hash(str)
    is), or contention-dependent makespans would differ between
    processes and seeded fault replay would not be byte-for-byte."""
    memory = SharedMemory(MemoryConfig(modules=16))
    assert [memory.module_of(("A", i)) for i in range(4)] \
        == [11, 12, 13, 14]
    assert memory.module_of(("B", 0)) == 1


def test_hot_spot_counter_visible_in_module_traffic():
    memory = SharedMemory(MemoryConfig(modules=8))
    for _ in range(50):
        memory.access_time(("hot", 0), now=0)
    for i in range(8):
        memory.access_time(("cold", i), now=0)
    assert memory.max_module_traffic() >= 50


def test_functional_read_write_and_peek():
    memory = SharedMemory()
    assert memory.read(("A", 1)) is None
    memory.write(("A", 1), 42)
    assert memory.read(("A", 1)) == 42
    assert memory.peek(("A", 1)) == 42
    assert memory.transactions == 3  # peek is free
    assert memory.writes == 1 and memory.reads == 2


def test_preload_is_free():
    memory = SharedMemory()
    memory.preload({("A", 0): 7})
    assert memory.transactions == 0
    assert memory.peek(("A", 0)) == 7


def test_snapshot_is_a_copy():
    memory = SharedMemory()
    memory.write(("A", 0), 1)
    snap = memory.snapshot()
    memory.write(("A", 0), 2)
    assert snap[("A", 0)] == 1


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=60),
       st.integers(min_value=1, max_value=4))
def test_access_times_never_precede_request(indices, service):
    """Completion is never before now + latency (causality per module)."""
    memory = SharedMemory(MemoryConfig(latency=2, service_time=service,
                                       modules=8))
    now = 0
    for index in indices:
        done = memory.access_time(("A", index), now)
        assert done >= now + 2 + service - 1
        now += 1


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                max_size=40))
def test_per_module_completions_strictly_ordered(indices):
    """Requests to one module complete in arrival order, spaced by
    service time."""
    memory = SharedMemory(MemoryConfig(latency=1, service_time=2, modules=2))
    last_done = {}
    for position, index in enumerate(indices):
        module = memory.module_of(("A", index))
        done = memory.access_time(("A", index), now=position)
        if module in last_done:
            assert done >= last_done[module] + 2
        last_done[module] = done


def test_shared_data_bus_serializes_across_modules():
    """With bus_service set, requests to *different* modules still
    serialize on the single data bus (the bus-machine organization)."""
    memory = SharedMemory(MemoryConfig(latency=0, service_time=1,
                                       modules=8, bus_service=5))
    first = memory.access_time(("A", 0), now=0)
    second = memory.access_time(("A", 1), now=0)  # different module
    assert second >= first + 5


def test_no_bus_different_modules_parallel():
    memory = SharedMemory(MemoryConfig(latency=0, service_time=1,
                                       modules=8, bus_service=None))
    first = memory.access_time(("A", 0), now=0)
    second = memory.access_time(("A", 1), now=0)
    assert second == first


def test_bus_service_validation():
    with pytest.raises(ValueError):
        MemoryConfig(bus_service=0)
    MemoryConfig(bus_service=None)  # crossbar organization ok


def test_write_latency_asymmetry():
    memory = SharedMemory(MemoryConfig(latency=2, write_latency=30))
    read_done = memory.access_time(("A", 0), now=0, kind="R")
    memory2 = SharedMemory(MemoryConfig(latency=2, write_latency=30))
    write_done = memory2.access_time(("A", 0), now=0, kind="W")
    assert write_done - read_done == 28


def test_write_latency_defaults_to_latency():
    config = MemoryConfig(latency=7)
    assert config.write_latency == 7
    with pytest.raises(ValueError):
        MemoryConfig(write_latency=-1)


def test_data_bus_saturation_end_to_end():
    """A DOALL on a bus machine stops scaling once the bus is the
    bottleneck; the crossbar machine keeps scaling."""
    from repro.apps.kernels import doall_loop
    from repro.schemes import ProcessOrientedScheme
    from repro.sim import Machine, MachineConfig

    loop = doall_loop(n=96, cost=6)

    def makespan(bus, processors):
        machine = Machine(MachineConfig(
            processors=processors, metrics="counters",
            memory=MemoryConfig(bus_service=bus)))
        return ProcessOrientedScheme(processors=processors).run(
            loop, config=RunConfig(machine=machine, validate=False)).makespan

    crossbar_gain = makespan(None, 4) / makespan(None, 16)
    bus_gain = makespan(2, 4) / makespan(2, 16)
    assert crossbar_gain > 1.5     # crossbar still scales 4 -> 16
    assert bus_gain < 1.2          # the bus machine has flatlined
