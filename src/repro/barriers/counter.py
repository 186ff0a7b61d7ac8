"""Counter-based barrier: the hot-spot baseline.

Every arriving process fetch&adds one shared counter; the last arrival
resets it and bumps a generation word that the other P-1 processes are
polling.  Both words live in shared memory, so the polling converges on
one memory module -- "memory contentions (i.e., the hot-spot effect) and
the inefficiency caused by waiting for the last processor" that the
paper's section 6 summary holds against barrier synchronization.
"""

from __future__ import annotations

from typing import Generator

from ..sim.memory import SharedMemory
from ..sim.ops import (SyncRead, SyncUpdate, SyncWrite, WaitUntil, at_least,
                       increment)
from ..sim.sync_bus import MemorySyncFabric, SyncFabric
from .base import Barrier


class CounterBarrier(Barrier):
    """Central counter + generation word in shared memory (polled).

    ``hardware_fetch_add`` selects how the arrival increment happens:

    * ``False`` (default): the machine has no atomic memory-side
      fetch&add -- the common case for the small bus-based systems the
      comparison targets ("it needs no atomic operation" is Brooks'
      argument *for* the butterfly).  Arrival takes a ticket lock around
      a read-modify-write of the counter: ~4 serialized transactions on
      two hot words.
    * ``True``: a Cedar/Ultracomputer-style combining f&a, one
      transaction.  Used as an ablation.
    """

    def __init__(self, n_processors: int, poll_interval: int = 4,
                 hardware_fetch_add: bool = False) -> None:
        super().__init__(n_processors)
        self.poll_interval = poll_interval
        self.hardware_fetch_add = hardware_fetch_add
        self._count_var = -1
        self._generation_var = -1
        self._ticket_var = -1
        self._serving_var = -1

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = MemorySyncFabric(memory, poll_interval=self.poll_interval,
                                  space="__barrier__")
        self._count_var = fabric.alloc(1, init=0)[0]
        self._generation_var = fabric.alloc(1, init=0)[0]
        if not self.hardware_fetch_add:
            self._ticket_var = fabric.alloc(1, init=0)[0]
            self._serving_var = fabric.alloc(1, init=0)[0]
        return fabric

    @property
    def sync_vars(self) -> int:
        return 2 if self.hardware_fetch_add else 4

    def _locked_increment(self, pid: int) -> Generator:
        """Ticket-locked counter increment; yields ops, returns new count.

        The ticket RMW stands in for the one indivisible test&set a bus
        machine does provide; the counter update itself is an ordinary
        read + write under the lock.
        """
        ticket = yield SyncUpdate(self._ticket_var, increment)
        yield WaitUntil(self._serving_var, at_least(ticket - 1),
                        reason=f"barrier lock ticket {ticket} (p{pid})")
        count = yield SyncRead(self._count_var)
        yield SyncWrite(self._count_var, count + 1)
        yield SyncUpdate(self._serving_var, increment)
        return count + 1

    def arrive(self, pid: int) -> Generator:
        episode = self.next_episode(pid)
        if self.hardware_fetch_add:
            arrived = yield SyncUpdate(self._count_var, increment)
        else:
            arrived = yield from self._locked_increment(pid)
        if arrived == self.n_processors:
            # Last arrival: reset for reuse, then open the gate.  The
            # reset commits before the generation bump (program order
            # through the memory system), so next-episode increments
            # cannot race it.
            yield SyncWrite(self._count_var, 0)
            yield SyncUpdate(self._generation_var, increment)
        else:
            yield WaitUntil(self._generation_var, at_least(episode),
                            reason=f"barrier gen >= {episode} (p{pid})")
