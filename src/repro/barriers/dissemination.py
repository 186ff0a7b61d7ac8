"""Dissemination barriers (Hensgen, Finkel & Manber -- the paper's [11]).

In round ``r`` (of ``ceil(log2 P)``), processor ``i`` signals processor
``(i + 2^(r-1)) mod P`` and waits for the signal from
``(i - 2^(r-1)) mod P``.  After all rounds every processor has
(transitively) heard from every other.  Unlike the butterfly's XOR
pairing, the mod-P shift works for *any* P -- this is the "minor
modification [11]" the paper says makes ``b_barrier()`` work when P is
not a power of two.

Two implementations:

* :class:`DisseminationBarrier` -- HFM's formulation with per-(round,
  processor) flags in shared memory (P * rounds variables, polled).
* :class:`PCDisseminationBarrier` -- the process-counter formulation:
  one counter per processor on the broadcast bus; a round is one
  ``set_PC`` plus one local-image wait, exactly like the paper's
  butterfly but with the shifted partner.  P variables, 2 operations
  per round, any P.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Tuple

from ..core.process_counter import pc_at_least
from ..sim.memory import SharedMemory
from ..sim.ops import SyncWrite, WaitUntil, at_least
from ..sim.sync_bus import BroadcastSyncFabric, MemorySyncFabric, SyncFabric
from .base import Barrier


def rounds_for(n_processors: int) -> int:
    """ceil(log2 P): dissemination needs no power-of-two padding."""
    if n_processors < 2:
        raise ValueError("a barrier needs at least two processors")
    return math.ceil(math.log2(n_processors))


class DisseminationBarrier(Barrier):
    """HFM dissemination with per-(round, pid) episode flags in memory."""

    def __init__(self, n_processors: int, poll_interval: int = 4) -> None:
        super().__init__(n_processors)
        self.rounds = rounds_for(n_processors)
        self.poll_interval = poll_interval
        self._flags: Dict[Tuple[int, int], int] = {}

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = MemorySyncFabric(memory, poll_interval=self.poll_interval,
                                  space="__dissem__")
        for round_index in range(self.rounds):
            for pid in range(self.n_processors):
                self._flags[(round_index, pid)] = fabric.alloc(1, init=0)[0]
        return fabric

    @property
    def sync_vars(self) -> int:
        return self.rounds * self.n_processors

    def arrive(self, pid: int) -> Generator:
        episode = self.next_episode(pid)
        for round_index in range(self.rounds):
            shift = 1 << round_index
            target = (pid + shift) % self.n_processors
            source = (pid - shift) % self.n_processors
            # signal forward: bump the flag the target watches
            yield SyncWrite(self._flags[(round_index, target)], episode)
            # wait backward: our flag for this round reaches the episode
            yield WaitUntil(self._flags[(round_index, pid)],
                            at_least(episode),
                            reason=f"dissem r{round_index} (p{pid} "
                                   f"<- p{source})")


class PCDisseminationBarrier(Barrier):
    """Dissemination over process counters: any P, two ops per round.

    The non-power-of-two generalization of the paper's PC butterfly
    (Fig. 5.4): the same ``set_PC`` / local-image wait pair, with the
    XOR partner replaced by a mod-P shift.
    """

    def __init__(self, n_processors: int) -> None:
        super().__init__(n_processors)
        self.rounds = rounds_for(n_processors)
        self._pc_vars: List[int] = []

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        self._pc_vars = [fabric.alloc(1, init=(pid, 0))[0]
                         for pid in range(self.n_processors)]
        return fabric

    @property
    def sync_vars(self) -> int:
        return self.n_processors

    def arrive(self, pid: int) -> Generator:
        episode = self.next_episode(pid)
        base = (episode - 1) * self.rounds
        for round_index in range(1, self.rounds + 1):
            shift = 1 << (round_index - 1)
            source = (pid - shift) % self.n_processors
            step = base + round_index
            yield SyncWrite(self._pc_vars[pid], (pid, step),
                            coverable=True)
            yield WaitUntil(self._pc_vars[source],
                            pc_at_least((source, step)),
                            reason=f"pc-dissem r{round_index} "
                                   f"(p{pid} <- p{source})")
