"""Example 5 (second case): PDE discretization with neighbor sync.

"Another example is the discretization method for solving partial
differential equations [19], in which a process only needs to
synchronize with processes computing its neighboring regions."

A 1-D domain is decomposed into P regions, one per processor; every
sweep updates a region from its own previous state and its neighbours'
boundary values.  Two synchronizations:

* :class:`NeighborPDE` -- the paper's point: after sweep ``t`` each
  region marks its counter and waits only for its left and right
  neighbours to have passed sweep ``t`` (2 waits regardless of P);
* :class:`BarrierPDE` -- a global barrier per sweep: every region waits
  for the globally slowest one, every sweep.

Unlike the FFT (partners change every stage), the PDE's neighbour set is
fixed, so imbalance *accumulates locally*: a slow region delays only the
regions within ``k`` hops after ``k`` sweeps, while a barrier spreads
the delay to everyone immediately.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List

from ..barriers.base import Barrier
from ..core.process_counter import pc_at_least
from ..sim.machine import Machine, MachineConfig, Workload
from ..sim.memory import SharedMemory
from ..sim.metrics import RunResult
from ..sim.ops import (Address, Annotate, Compute, Fence, MemRead, MemWrite,
                       SyncWrite, WaitUntil)
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from ..sim.validate import ValidationError, mix


def region_address(region: int, sweep: int) -> Address:
    """Where a region publishes its state after ``sweep``."""
    return ("pde", sweep * 4096 + region)


def region_value(region: int, sweep: int, left: Any, own: Any,
                 right: Any) -> int:
    """The three-point update a sweep applies to one region."""
    return mix("pde", (region, sweep), [left, own, right])


def reference_solution(n_regions: int, sweeps: int) -> Dict[Address, int]:
    """Sequential sweep-by-sweep evaluation."""
    values: Dict[Address, int] = {}
    for sweep in range(1, sweeps + 1):
        for region in range(n_regions):
            left = (values.get(region_address(region - 1, sweep - 1))
                    if region > 0 else None)
            own = values.get(region_address(region, sweep - 1))
            right = (values.get(region_address(region + 1, sweep - 1))
                     if region < n_regions - 1 else None)
            values[region_address(region, sweep)] = region_value(
                region, sweep, left, own, right)
    return values


def check_solution(n_regions: int, sweeps: int,
                   result: RunResult) -> None:
    """Raise unless every region/sweep state matches the reference."""
    for addr, value in reference_solution(n_regions, sweeps).items():
        got = result.final_memory.get(addr)
        if got != value:
            raise ValidationError(
                f"PDE mismatch at {addr}: got {got}, expected {value}")


def _sweep_ops(region: int, sweep: int, n_regions: int,
               cost: int) -> Generator:
    left = None
    if region > 0:
        left = yield MemRead(region_address(region - 1, sweep - 1))
    own = yield MemRead(region_address(region, sweep - 1))
    right = None
    if region < n_regions - 1:
        right = yield MemRead(region_address(region + 1, sweep - 1))
    yield Compute(cost)
    yield MemWrite(region_address(region, sweep),
                   region_value(region, sweep, left, own, right))
    yield Fence()


class NeighborPDE(Workload):
    """Neighbour-only synchronization with process counters."""

    def __init__(self, n_regions: int, sweeps: int,
                 sweep_cost: Callable[[int, int], int]) -> None:
        if n_regions < 2:
            raise ValueError("need at least two regions")
        self.n_regions = n_regions
        self.n_processors = n_regions
        self.sweeps = sweeps
        self.sweep_cost = sweep_cost
        self.iterations = list(range(n_regions))
        self._pc_vars: List[int] = []

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        self._pc_vars = [fabric.alloc(1, init=(region, 0))[0]
                         for region in range(self.n_regions)]
        return fabric

    def make_process(self, region: int) -> Generator:
        neighbours = [r for r in (region - 1, region + 1)
                      if 0 <= r < self.n_regions]
        for sweep in range(1, self.sweeps + 1):
            # Read the neighbours' sweep-(t-1) state: guaranteed present
            # because we waited for them at the end of the last sweep.
            yield from _sweep_ops(region, sweep, self.n_regions,
                                  self.sweep_cost(region, sweep))
            yield Annotate("sweep_done", {"pid": region, "sweep": sweep})
            yield SyncWrite(self._pc_vars[region], (region, sweep),
                            coverable=True)
            if sweep < self.sweeps:
                for neighbour in neighbours:
                    yield WaitUntil(self._pc_vars[neighbour],
                                    pc_at_least((neighbour, sweep)),
                                    reason=f"pde s{sweep} r{region} "
                                           f"<- r{neighbour}")
            yield Annotate("sweep_exit", {"pid": region, "sweep": sweep})

    @property
    def sync_vars(self) -> int:
        return self.n_regions


class BarrierPDE(Workload):
    """Global barrier per sweep: the baseline Example 5 argues against."""

    def __init__(self, n_regions: int, sweeps: int,
                 sweep_cost: Callable[[int, int], int],
                 barrier: Barrier) -> None:
        if barrier.n_processors != n_regions:
            raise ValueError("barrier width must equal the region count")
        self.n_regions = n_regions
        self.n_processors = n_regions
        self.sweeps = sweeps
        self.sweep_cost = sweep_cost
        self.barrier = barrier
        self.iterations = list(range(n_regions))

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        return self.barrier.build_fabric(memory)

    def make_process(self, region: int) -> Generator:
        for sweep in range(1, self.sweeps + 1):
            yield from _sweep_ops(region, sweep, self.n_regions,
                                  self.sweep_cost(region, sweep))
            yield Annotate("sweep_done", {"pid": region, "sweep": sweep})
            if sweep < self.sweeps:
                yield from self.barrier.arrive(region)
            yield Annotate("sweep_exit", {"pid": region, "sweep": sweep})

    @property
    def sync_vars(self) -> int:
        return self.barrier.sync_vars


def run_pde(workload, validate: bool = True) -> RunResult:
    """Simulate a PDE workload (one pinned processor per region)."""
    machine = Machine(MachineConfig(processors=workload.n_processors,
                                    schedule="block"))
    result = machine.run(workload)
    if validate:
        check_solution(workload.n_regions, workload.sweeps, result)
    return result
