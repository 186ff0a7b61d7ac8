"""Example 1: a DOACROSS loop enclosing a serial loop (Fig. 5.1).

The four-point relaxation ``A[I,J] = A[I-1,J] + A[I,J-1]`` over an N x N
grid, executed three ways:

* :class:`SerialRelaxation` -- one process, the speedup baseline.
* :class:`WavefrontRelaxation` -- the "well known wavefront method":
  anti-diagonals run in parallel with a *barrier between consecutive
  wavefronts*; processors idle both at the barrier and on short
  wavefronts.
* :class:`PipelinedRelaxation` -- the paper's asynchronous pipelining
  (Fig. 5.1(b)/(d)): the outer loop becomes a DOACROSS, the inner loop
  stays serial inside each process, and process ``i`` waits only for
  process ``i-1`` to pass the same column group.  Same number of
  parallel steps, but "the efficiency and the processor utilization is
  much better".
* :class:`StatementPipelinedRelaxation` -- the same pipeline forced
  through statement counters.  Alliant's Advance/Await cannot index a
  synchronization register with a run-time value, so a machine with S
  counters supports at most S sync points per row: the column-group size
  is forced up to ``ceil((N-1)/S)``, and each counter's updates
  serialize across processes.  "N-1 SC's are needed to get the maximum
  parallelism ... the statement-oriented scheme performs poorly when the
  number of SC's is limited."

Grouping G trades synchronization for delay (Fig. 5.1(c)): every process
syncs ``(N-1)/G`` times instead of ``N-1``, at the cost of up to ``G-1``
columns of extra pipeline fill delay.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..barriers.base import Barrier
from ..core.improved import ImprovedPrimitives
from ..core.primitives import wait_pc
from ..core.process_counter import ProcessCounterFile
from ..sim.machine import Machine, MachineConfig, Workload
from ..sim.memory import SharedMemory
from ..sim.metrics import RunResult
from ..sim.ops import (Address, Compute, Fence, MemRead, MemWrite,
                       SyncWrite, Tag, WaitUntil, at_least)
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from ..sim.validate import ValidationError, mix


def point_address(n: int, i: int, j: int) -> Address:
    """Flat address of grid point ``A[i, j]`` on an (N+1)^2 array."""
    return ("A", i * (n + 1) + j)


def point_value(i: int, j: int, north: Any, west: Any) -> int:
    """The value the relaxation stores at (i, j)."""
    return mix("relax", (i, j), [north, west])


def point_ops(n: int, i: int, j: int, cost: int) -> Generator:
    """Simulator ops computing one grid point."""
    yield Tag(("S", (i, j)))
    north = yield MemRead(point_address(n, i - 1, j))
    west = yield MemRead(point_address(n, i, j - 1))
    yield Compute(cost)
    yield MemWrite(point_address(n, i, j), point_value(i, j, north, west))
    yield Tag(None)


def reference_solution(n: int) -> Dict[Address, int]:
    """Sequential result of the relaxation (boundaries read as None)."""
    values: Dict[Address, int] = {}
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            north = values.get(point_address(n, i - 1, j))
            west = values.get(point_address(n, i, j - 1))
            values[point_address(n, i, j)] = point_value(i, j, north, west)
    return values


def check_solution(n: int, result: RunResult) -> None:
    """Raise unless the run left the sequential solution in memory."""
    expected = reference_solution(n)
    for addr, value in expected.items():
        got = result.final_memory.get(addr)
        if got != value:
            raise ValidationError(
                f"relaxation mismatch at {addr}: got {got}, "
                f"expected {value}")


def serial_cycles(n: int, cost: int) -> int:
    """Pure-compute serial time: one processor, no synchronization."""
    return (n - 1) * (n - 1) * cost


def column_groups(n: int, group: int) -> List[Tuple[int, int]]:
    """Split columns 2..N into [start, end] groups of size ``group``."""
    if group < 1:
        raise ValueError("group size must be >= 1")
    return [(k, min(k + group - 1, n)) for k in range(2, n + 1, group)]


class SerialRelaxation(Workload):
    """All points in sequential order on one process."""

    def __init__(self, n: int, cost: int = 10) -> None:
        self.n = n
        self.cost = cost
        self.iterations = [1]

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        return BroadcastSyncFabric()

    def make_process(self, pid: int) -> Generator:
        for i in range(2, self.n + 1):
            for j in range(2, self.n + 1):
                yield from point_ops(self.n, i, j, self.cost)

    @property
    def sync_vars(self) -> int:
        return 0


class WavefrontRelaxation(Workload):
    """Anti-diagonal wavefronts with a barrier between them (Fig. 5.1(c)).

    P pinned processes; wavefront ``w`` holds points ``i + j = w``; each
    process computes its round-robin share, then everyone meets at the
    barrier ("the execution of a barrier requires that processors be
    busy-waiting at the barrier until all of the processors arrive").
    """

    def __init__(self, n: int, barrier: Barrier, cost: int = 10) -> None:
        self.n = n
        self.barrier = barrier
        self.cost = cost
        self.n_processors = barrier.n_processors
        self.iterations = list(range(self.n_processors))

    def wavefronts(self) -> List[List[Tuple[int, int]]]:
        """Points per wavefront, w = 4 .. 2N."""
        fronts: List[List[Tuple[int, int]]] = []
        for w in range(4, 2 * self.n + 1):
            lo = max(2, w - self.n)
            hi = min(self.n, w - 2)
            fronts.append([(i, w - i) for i in range(lo, hi + 1)])
        return fronts

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        return self.barrier.build_fabric(memory)

    def make_process(self, pid: int) -> Generator:
        for front in self.wavefronts():
            mine = front[pid::self.n_processors]
            for i, j in mine:
                yield from point_ops(self.n, i, j, self.cost)
            if mine:
                yield Fence()  # writes visible before releasing the front
            yield from self.barrier.arrive(pid)

    @property
    def sync_vars(self) -> int:
        return self.barrier.sync_vars

    @property
    def parallel_steps(self) -> int:
        return len(self.wavefronts())


class PipelinedRelaxation(Workload):
    """Asynchronous pipelining with process counters (Fig. 5.1(b)/(d)).

    Row ``i`` is process ``pid = i - 1``; before computing column group
    ``g`` it waits for process ``pid - 1`` to have passed group ``g``
    (``wait_PC(1, g)``), and marks ``g`` afterwards.  The last group is
    signalled by ``transfer_PC``.
    """

    def __init__(self, n: int, group: int = 1,
                 n_counters: Optional[int] = None, cost: int = 10) -> None:
        self.n = n
        self.group = group
        self.cost = cost
        self.groups = column_groups(n, group)
        self.counters = ProcessCounterFile(
            n_counters=n_counters or 16, first_pid=1)
        self.iterations = list(range(1, n))  # pids 1..N-1 (rows 2..N)

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        self.counters.allocate(fabric)
        return fabric

    def make_process(self, pid: int) -> Generator:
        i = pid + 1
        primitives = ImprovedPrimitives(self.counters, pid)
        for g, (start, end) in enumerate(self.groups, start=1):
            yield from wait_pc(self.counters, pid, 1, g)
            for j in range(start, end + 1):
                yield from point_ops(self.n, i, j, self.cost)
            yield Fence()
            if g == len(self.groups):
                primitives.last_step = g - 1
                yield from primitives.transfer_pc()
            else:
                yield from primitives.mark_pc(g)

    @property
    def sync_vars(self) -> int:
        return self.counters.n_counters

    @property
    def sync_points_per_row(self) -> int:
        return len(self.groups)

    @property
    def parallel_steps(self) -> int:
        """Pipeline critical path in column-group steps (= wavefronts
        when G = 1)."""
        return (self.n - 1) + len(self.groups) - 1


class StatementPipelinedRelaxation(Workload):
    """The pipeline under Alliant-style statement counters.

    With only S synchronization registers (constant indices!), each row
    can have at most S sync points, so the effective group size is
    ``ceil((N-1)/S)``.  Counter ``g`` is advanced by every process in
    strict iteration order, serializing each column group's completions.
    """

    def __init__(self, n: int, n_counters: int, cost: int = 10) -> None:
        if n_counters < 1:
            raise ValueError("need at least one statement counter")
        self.n = n
        self.cost = cost
        self.n_counters = min(n_counters, n - 1)
        group = -(-(n - 1) // self.n_counters)  # ceil
        self.groups = column_groups(n, group)
        self.group = group
        self.iterations = list(range(1, n))
        self._sc_vars: List[int] = []

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        self._sc_vars = [fabric.alloc(1, init=0)[0]
                         for _ in range(len(self.groups))]
        return fabric

    def make_process(self, pid: int) -> Generator:
        i = pid + 1
        for g, (start, end) in enumerate(self.groups):
            var = self._sc_vars[g]
            if pid > 1:
                # Await(1, g): row i-1 has passed this column group
                yield WaitUntil(var, at_least(pid - 1),
                                reason=f"Await(1,g{g}) p{pid}")
            for j in range(start, end + 1):
                yield from point_ops(self.n, i, j, self.cost)
            yield Fence()
            # Advance(g): strictly ordered across processes
            yield WaitUntil(var, at_least(pid - 1),
                            reason=f"Advance(g{g}) p{pid}")
            yield SyncWrite(var, pid)

    @property
    def sync_vars(self) -> int:
        return len(self.groups)

    @property
    def sync_points_per_row(self) -> int:
        return len(self.groups)


def run_relaxation(workload, processors: int, schedule: str = "self",
                   validate: bool = True) -> RunResult:
    """Simulate a relaxation workload and (optionally) check the result."""
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule))
    result = machine.run(workload)
    if validate:
        check_solution(workload.n, result)
    return result
