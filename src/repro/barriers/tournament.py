"""Tournament barrier (Hensgen, Finkel & Manber -- the paper's [11]).

Arrival runs up a binary tree: in round ``r`` the processor whose low
bits are ``2^r`` (the *loser*) signals its partner with low bits 0 (the
*winner*) and drops out; the winner advances.  The champion (processor
0) then releases down the same tree in reverse.  All flags are monotone
episode counters, so the usual reuse races cannot occur.

Costs: 2(P-1) flags, each processor writes at most ``O(log P)`` times,
and -- unlike the counter barrier -- no two processors ever write the
same variable, so no atomic operation is needed (the same property the
paper highlights for the butterfly).
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Tuple

from ..sim.memory import SharedMemory
from ..sim.ops import SyncWrite, WaitUntil, at_least
from ..sim.sync_bus import MemorySyncFabric, SyncFabric
from .base import Barrier


class TournamentBarrier(Barrier):
    """HFM tournament barrier over shared-memory episode flags."""

    def __init__(self, n_processors: int, poll_interval: int = 4) -> None:
        super().__init__(n_processors)
        self.rounds = math.ceil(math.log2(n_processors))
        self.poll_interval = poll_interval
        #: arrival[(round, winner pid)] -- set by the loser of the match
        self._arrival: Dict[Tuple[int, int], int] = {}
        #: release[(round, loser pid)] -- set by the winner on the way down
        self._release: Dict[Tuple[int, int], int] = {}

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = MemorySyncFabric(memory, poll_interval=self.poll_interval,
                                  space="__tourn__")
        for round_index in range(self.rounds):
            stride = 1 << round_index
            for winner in range(0, self.n_processors, stride * 2):
                loser = winner + stride
                if loser < self.n_processors:
                    self._arrival[(round_index, winner)] = \
                        fabric.alloc(1, init=0)[0]
                    self._release[(round_index, loser)] = \
                        fabric.alloc(1, init=0)[0]
        return fabric

    @property
    def sync_vars(self) -> int:
        return len(self._arrival) + len(self._release)

    def _matches(self, pid: int) -> Tuple[List[Tuple[int, int]],
                                          List[Tuple[int, int]]]:
        """(rounds won as winner, the round lost) for this processor.

        Returns ``(wins, losses)`` where each entry is
        ``(round_index, partner pid)``; ``losses`` has at most one entry.
        """
        wins: List[Tuple[int, int]] = []
        losses: List[Tuple[int, int]] = []
        for round_index in range(self.rounds):
            stride = 1 << round_index
            if pid % (stride * 2) == 0:
                partner = pid + stride
                if partner < self.n_processors:
                    wins.append((round_index, partner))
            elif pid % (stride * 2) == stride:
                partner = pid - stride
                losses.append((round_index, partner))
                break  # a loser drops out of later rounds
        return wins, losses

    def arrive(self, pid: int) -> Generator:
        episode = self.next_episode(pid)
        wins, losses = self._matches(pid)

        # Going up: collect the subtree, then either signal the winner
        # (and wait for release) or, as champion, start the way down.
        for round_index, _partner in wins:
            yield WaitUntil(self._arrival[(round_index, pid)],
                            at_least(episode),
                            reason=f"tourn arrive r{round_index} (p{pid})")
        if losses:
            round_index, winner = losses[0]
            yield SyncWrite(self._arrival[(round_index, winner)], episode)
            yield WaitUntil(self._release[(round_index, pid)],
                            at_least(episode),
                            reason=f"tourn release r{round_index} (p{pid})")
        # Going down: release every loser we beat, deepest round last
        # (the reverse order of the way up).
        for round_index, partner in reversed(wins):
            yield SyncWrite(self._release[(round_index, partner)], episode)
