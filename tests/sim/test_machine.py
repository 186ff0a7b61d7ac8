"""Machine integration: prologue, scheduling traffic, result assembly."""

from __future__ import annotations

from typing import Any, Dict, Generator, List

import pytest

from repro.sim import (BroadcastSyncFabric, Compute, Machine, MachineConfig,
                       MemWrite, SCHED_COUNTER, SharedMemory,
                       SyncWrite)


class ToyWorkload:
    """N independent processes, each computing then writing one word."""

    def __init__(self, n: int, cost: int = 10, with_prologue: bool = False):
        self.iterations = list(range(1, n + 1))
        self.cost = cost
        self.with_prologue = with_prologue
        self._fabric = None

    def build_fabric(self, memory: SharedMemory) -> BroadcastSyncFabric:
        self._fabric = BroadcastSyncFabric()
        self._fabric.alloc(1, init=0)
        return self._fabric

    def make_process(self, iteration: int) -> Generator:
        yield Compute(self.cost)
        yield MemWrite(("out", iteration), iteration * 2)

    def prologue(self) -> List[Generator]:
        if not self.with_prologue:
            return []

        def setup():
            yield Compute(25)
            yield SyncWrite(0, 1)

        return [setup()]

    def initial_memory(self) -> Dict[Any, Any]:
        return {("seed", 0): 42}

    @property
    def sync_vars(self) -> int:
        return 1


def test_parallel_speedup_of_independent_work():
    serial = Machine(MachineConfig(processors=1)).run(ToyWorkload(16))
    parallel = Machine(MachineConfig(processors=8)).run(ToyWorkload(16))
    assert parallel.makespan < serial.makespan
    assert parallel.makespan <= serial.makespan / 4  # near-linear


def test_all_iterations_executed_once():
    result = Machine(MachineConfig(processors=3)).run(ToyWorkload(10))
    for iteration in range(1, 11):
        assert result.final_memory[("out", iteration)] == iteration * 2


def test_prologue_runs_before_loop_and_counts_as_init():
    result = Machine(MachineConfig(processors=4)).run(
        ToyWorkload(4, with_prologue=True))
    assert result.init_cycles >= 25
    assert result.makespan > result.init_cycles


def test_no_prologue_zero_init():
    result = Machine(MachineConfig(processors=4)).run(ToyWorkload(4))
    assert result.init_cycles == 0


def test_self_scheduling_charges_grab_traffic():
    self_sched = Machine(MachineConfig(processors=2,
                                       schedule="self")).run(ToyWorkload(10))
    static = Machine(MachineConfig(processors=2,
                                   schedule="block")).run(ToyWorkload(10))
    # self-scheduling reads the shared counter once per grab attempt
    grabs = [r for r in self_sched.trace if r.addr == SCHED_COUNTER]
    assert len(grabs) >= 10
    static_grabs = [r for r in static.trace if r.addr == SCHED_COUNTER]
    assert static_grabs == []


def test_initial_memory_preloaded():
    result = Machine(MachineConfig(processors=1)).run(ToyWorkload(2))
    assert result.final_memory[("seed", 0)] == 42


def test_per_processor_stats_reported():
    result = Machine(MachineConfig(processors=3)).run(ToyWorkload(9))
    assert len(result.processors) == 3
    assert result.total_busy == 9 * 10
    assert 0 < result.utilization <= 1


def test_trace_can_be_disabled():
    result = Machine(MachineConfig(processors=2,
                                   metrics="counters")).run(ToyWorkload(4))
    assert result.trace == [] and result.sync_trace == []
    assert result.extra["activity"] == [] and result.extra["events"] == []
    # functional result still correct
    assert result.final_memory[("out", 3)] == 6


def test_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(processors=0)
    with pytest.raises(ValueError):
        MachineConfig(schedule="lottery")


def test_sync_storage_and_vars_in_result():
    result = Machine(MachineConfig(processors=2)).run(ToyWorkload(4))
    assert result.sync_vars == 1
    assert result.sync_storage_words == 1


def test_events_surface_in_extra():
    result = Machine(MachineConfig(processors=2)).run(ToyWorkload(4))
    assert "events" in result.extra
