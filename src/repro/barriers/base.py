"""Barrier interface and the phased workload used to compare barriers.

Example 4 of the paper implements a butterfly barrier with process
counters and argues it "performs better than a counter-based barrier even
in a small bus-based system" while needing "fewer synchronization
variables and operations than those needed in [Brooks 86]".  The three
implementations (counter, Brooks flags, process-counter butterfly) share
this interface so one bench can sweep them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Generator, List, Tuple

from ..sim.machine import Workload
from ..sim.memory import SharedMemory
from ..sim.metrics import RunResult
from ..sim.ops import Annotate, Compute
from ..sim.sync_bus import SyncFabric


class Barrier(ABC):
    """A reusable P-way barrier over a synchronization fabric."""

    def __init__(self, n_processors: int) -> None:
        if n_processors < 2:
            raise ValueError("a barrier needs at least two processors")
        self.n_processors = n_processors
        self._episode: Dict[int, int] = {}

    def next_episode(self, pid: int) -> int:
        """Per-process episode numbering (1-based), bumped per arrival."""
        episode = self._episode.get(pid, 0) + 1
        self._episode[pid] = episode
        return episode

    @abstractmethod
    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        """Create the fabric this barrier's variables live on."""

    @abstractmethod
    def arrive(self, pid: int) -> Generator:
        """Simulator ops for one barrier episode of process ``pid``."""

    @property
    @abstractmethod
    def sync_vars(self) -> int:
        """Synchronization variables the barrier occupies."""


class PhasedWorkload(Workload):
    """P pinned processes alternating computation and a barrier.

    ``work`` maps ``(pid, phase)`` to compute cycles, so benches can
    inject imbalance ("waiting for the last processor to complete in a
    barrier synchronization").  Run it on a machine with
    ``schedule="block"`` and ``processors == n_processors`` so each
    process owns one processor, as in the paper's Examples 4 and 5.
    """

    def __init__(self, barrier: Barrier, n_phases: int,
                 work: Callable[[int, int], int]) -> None:
        self.barrier = barrier
        self.n_phases = n_phases
        self.work = work
        self.iterations = list(range(barrier.n_processors))

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        return self.barrier.build_fabric(memory)

    def make_process(self, pid: int) -> Generator:
        for phase in range(self.n_phases):
            yield Compute(self.work(pid, phase))
            yield Annotate("phase_done", {"pid": pid, "phase": phase})
            yield from self.barrier.arrive(pid)
            yield Annotate("barrier_exit", {"pid": pid, "phase": phase})

    @property
    def sync_vars(self) -> int:
        return self.barrier.sync_vars


class BarrierViolation(AssertionError):
    """A process left a barrier before every process had arrived."""


def check_barrier_separation(result: RunResult, n_processors: int,
                             n_phases: int) -> None:
    """No exit from episode ``e`` may precede any arrival at episode ``e``.

    Uses the ``phase_done`` / ``barrier_exit`` markers the phased
    workload plants in the engine's event stream.
    """
    events: List[Tuple[int, str, dict]] = result.extra.get("events", [])
    done: Dict[int, List[int]] = {}
    exits: Dict[int, List[int]] = {}
    for time, kind, payload in events:
        if kind == "phase_done":
            done.setdefault(payload["phase"], []).append(time)
        elif kind == "barrier_exit":
            exits.setdefault(payload["phase"], []).append(time)
    for phase in range(n_phases):
        arrivals = done.get(phase, [])
        departures = exits.get(phase, [])
        if len(arrivals) != n_processors or len(departures) != n_processors:
            raise BarrierViolation(
                f"phase {phase}: {len(arrivals)} arrivals / "
                f"{len(departures)} exits, expected {n_processors} each")
        if min(departures) < max(arrivals):
            raise BarrierViolation(
                f"phase {phase}: a process left the barrier at "
                f"{min(departures)} before the last arrival at "
                f"{max(arrivals)}")
