"""Example 5: phases of computation with local communication (FFT).

Data is partitioned into P chunks, one per processor; the butterfly
exchange pattern of an FFT means that in stage ``i`` processor ``pid``
combines its own chunk with the chunk of partner ``pid xor 2^(i-1)``.
"Since communication only takes place between two processors in each
stage, there is no need for a global barrier ... after each processor
completes its computation in BASIC_FFT(), it only waits for another
processor with which it exchanges data."

Two workloads share the computation and differ only in synchronization:

* :class:`PairwiseFFT` -- the paper's ``fft()``: ``mark_PC(i)`` then
  spin on the partner's counter only.
* :class:`BarrierFFT` -- a global barrier after every stage (the [7]
  baseline); with imbalanced stage times everyone waits for the slowest
  processor in every stage.
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


def stages_for(n_processors: int) -> int:
    """log2 P; the partition must match a power-of-two processor count."""
    stages = n_processors.bit_length() - 1
    if 1 << stages != n_processors:
        raise ValueError(f"FFT partitioning needs power-of-two P, "
                         f"got {n_processors}")
    return stages


def chunk_address(pid: int, stage: int) -> Address:
    """Where processor ``pid`` publishes its chunk after ``stage``."""
    return ("fft", stage * 1024 + pid)


def chunk_value(pid: int, stage: int, own: Any, partner: Any) -> int:
    """BASIC_FFT: combine own and partner chunk summaries."""
    return mix("fft", (pid, stage), [own, partner])


def reference_solution(n_processors: int) -> Dict[Address, int]:
    """Stage-by-stage sequential evaluation of the exchange network."""
    stages = stages_for(n_processors)
    values: Dict[Address, int] = {}
    for stage in range(1, stages + 1):
        for pid in range(n_processors):
            partner = pid ^ (1 << (stage - 1))
            own = values.get(chunk_address(pid, stage - 1))
            other = values.get(chunk_address(partner, stage - 1))
            values[chunk_address(pid, stage)] = chunk_value(
                pid, stage, own, other)
    return values


def check_solution(n_processors: int, result: RunResult) -> None:
    """Raise unless every stage chunk matches the reference."""
    for addr, value in reference_solution(n_processors).items():
        got = result.final_memory.get(addr)
        if got != value:
            raise ValidationError(
                f"FFT mismatch at {addr}: got {got}, expected {value}")


def _stage_ops(pid: int, stage: int, cost: int) -> Generator:
    """Read both stage-(i-1) chunks, compute, publish the stage-i chunk."""
    partner = pid ^ (1 << (stage - 1))
    own = yield MemRead(chunk_address(pid, stage - 1))
    other = yield MemRead(chunk_address(partner, stage - 1))
    yield Compute(cost)
    yield MemWrite(chunk_address(pid, stage),
                   chunk_value(pid, stage, own, other))
    yield Fence()


class PairwiseFFT(Workload):
    """The paper's ``fft()``: process counters, partner-only waits.

    After stage ``i``: ``mark_PC(i); while (PC[pid xor 2^(i-1)].step < i)``.
    Pinned processes own their counters permanently (no folding).
    """

    def __init__(self, n_processors: int,
                 stage_cost: Callable[[int, int], int]) -> None:
        self.n_processors = n_processors
        self.stages = stages_for(n_processors)
        self.stage_cost = stage_cost
        self.iterations = list(range(n_processors))
        self._pc_vars: List[int] = []

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        self._pc_vars = [fabric.alloc(1, init=(pid, 0))[0]
                         for pid in range(self.n_processors)]
        return fabric

    def make_process(self, pid: int) -> Generator:
        for stage in range(1, self.stages + 1):
            yield from _stage_ops(pid, stage, self.stage_cost(pid, stage))
            yield Annotate("stage_done", {"pid": pid, "stage": stage})
            # mark_PC(i)
            yield SyncWrite(self._pc_vars[pid], (pid, stage),
                            coverable=True)
            if stage < self.stages:
                # Wait only for the processor whose data the *next* stage
                # reads (the paper's ``while (PC[pid xor 2^i].step < i)``);
                # after the final stage nothing is read, so no wait.
                next_partner = pid ^ (1 << stage)
                yield WaitUntil(self._pc_vars[next_partner],
                                pc_at_least((next_partner, stage)),
                                reason=f"fft s{stage} next-partner (p{pid})")
            yield Annotate("stage_exit", {"pid": pid, "stage": stage})

    @property
    def sync_vars(self) -> int:
        return self.n_processors


class BarrierFFT(Workload):
    """The global-barrier baseline: every stage ends at a full barrier."""

    def __init__(self, n_processors: int,
                 stage_cost: Callable[[int, int], int],
                 barrier: Barrier) -> None:
        self.n_processors = n_processors
        self.stages = stages_for(n_processors)
        self.stage_cost = stage_cost
        self.barrier = barrier
        self.iterations = list(range(n_processors))

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        return self.barrier.build_fabric(memory)

    def make_process(self, pid: int) -> Generator:
        for stage in range(1, self.stages + 1):
            yield from _stage_ops(pid, stage, self.stage_cost(pid, stage))
            yield Annotate("stage_done", {"pid": pid, "stage": stage})
            yield from self.barrier.arrive(pid)
            yield Annotate("stage_exit", {"pid": pid, "stage": stage})

    @property
    def sync_vars(self) -> int:
        return self.barrier.sync_vars


def run_fft(workload, validate: bool = True) -> RunResult:
    """Simulate an FFT workload (pinned, one process per processor)."""
    machine = Machine(MachineConfig(processors=workload.n_processors,
                                    schedule="block"))
    result = machine.run(workload)
    if validate:
        check_solution(workload.n_processors, result)
    return result
