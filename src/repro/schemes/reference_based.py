"""The reference-based data-oriented scheme (section 3.1 / Fig. 3.1(a)).

One *key* per array element, held in shared memory next to the datum
(Cedar's key/data scheme).  Every access to the element carries its
sequential *access order* number; the memory-side protocol is

    wait until key >= threshold;  access the datum;  key := key + 1

where the threshold of a write is its access ordinal (every earlier
access must be done) and the threshold of a read is one past the
ordinal of the last preceding write -- which is what lets the reads S2
and S3 of the running example proceed in either order.

Costs the paper attributes to this class, all modelled here:

* one synchronization variable per element ("requires a large number of
  keys"),
* key initialization "can result in significant overhead" -- an explicit
  prologue that zeroes every key through the memory system,
* busy-waiting is *polled through shared memory*: every re-check is a
  memory transaction (keys have no broadcast bus).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..depend.graph import DependenceGraph
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import (Address, Annotate, Compute, Fence, MemRead, MemWrite,
                       SyncUpdate, SyncWrite, WaitUntil, at_least, increment)
from ..sim.sync_bus import MemorySyncFabric, SyncFabric
from ..sim.validate import mix
from .base import InstrumentedLoop, SyncScheme


@dataclass(frozen=True)
class KeyedAccess:
    """One planned access of a statement instance, with its key action."""

    kind: str        # "R" or "W"
    addr: Address
    threshold: int   # wait until key >= threshold
    ordinal: int     # this access's position in the element's sequence


#: shared immutable ops for the compiled streams
_FENCE = Fence()
_CLEAR_TAG = Annotate("tag", {"tag": None})


def plan_accesses(loop: Loop) -> Dict[Tuple[str, int], List[KeyedAccess]]:
    """Assign access ordinals and wait thresholds per statement instance.

    Walks the iteration space in sequential order, numbering the accesses
    of every element; within a statement reads precede writes.  Returns,
    for each tag ``(sid, lpid)``, the instance's accesses in execution
    order (reads in declaration order, then writes).
    """
    ordinals: Dict[Address, int] = defaultdict(int)
    last_write_ordinal: Dict[Address, int] = {}
    plan: Dict[Tuple[str, int], List[KeyedAccess]] = {}
    for index in loop.iteration_space():
        lpid = loop.lpid(index)
        for stmt in loop.body:
            if not stmt.executes_at(index):
                continue
            accesses: List[KeyedAccess] = []
            for ref in stmt.reads:
                addr = loop.address_of(ref, index)
                ordinal = ordinals[addr]
                previous_write = last_write_ordinal.get(addr)
                threshold = 0 if previous_write is None else previous_write + 1
                accesses.append(KeyedAccess("R", addr, threshold, ordinal))
                ordinals[addr] = ordinal + 1
            for ref in stmt.writes:
                addr = loop.address_of(ref, index)
                ordinal = ordinals[addr]
                accesses.append(KeyedAccess("W", addr, ordinal, ordinal))
                ordinals[addr] = ordinal + 1
                last_write_ordinal[addr] = ordinal
            plan[(stmt.sid, lpid)] = accesses
    return plan


class ReferenceBasedLoop(InstrumentedLoop):
    """A loop synchronized with per-element access-order keys."""

    def __init__(self, loop: Loop, graph: DependenceGraph,
                 poll_interval: int, init_workers: int,
                 charge_init: bool) -> None:
        super().__init__(loop, graph)
        self.poll_interval = poll_interval
        self.init_workers = init_workers
        self.charge_init = charge_init
        self.plan = plan_accesses(loop)
        self.elements: List[Address] = sorted(
            {access.addr for accesses in self.plan.values()
             for access in accesses})
        #: keys are allocated in ``elements`` order on a fresh fabric,
        #: so their variable ids are known at instrument time (asserted
        #: in build_fabric); the op stream compiles here once.
        self._key_of: Dict[Address, int] = {
            addr: key for key, addr in enumerate(self.elements)}
        self._programs: Dict[int, list] = {}
        self.recompile()

    def recompile(self) -> None:
        """Rebuild the per-iteration op streams (after plan mutation)."""
        self._programs = {pid: self._compile(pid)
                          for pid in self.iterations}

    def _compile(self, pid: int) -> list:
        """Compile ``pid``'s op stream, walked by :meth:`_body`.

        One entry per executed statement: ``(tag_op, reads, compute_op,
        sid, writes)`` with per-access ``(wait, read, update)`` /
        ``(wait, addr, update)`` triples.
        """
        index = self.loop.index_of_lpid(pid)
        program = []
        for stmt in self.loop.body:
            if not stmt.executes_at(index):
                continue
            reads = []
            writes = []
            for access in self.plan[(stmt.sid, pid)]:
                key = self._key_of[access.addr]
                wait_op = WaitUntil(key, at_least(access.threshold),
                                    reason=f"key {access.addr} >= "
                                           f"{access.threshold}")
                update_op = SyncUpdate(key, increment)
                if access.kind == "R":
                    reads.append((wait_op, MemRead(access.addr),
                                  update_op))
                else:
                    writes.append((wait_op, access.addr, update_op))
            program.append((Annotate("tag", {"tag": (stmt.sid, pid)}),
                            tuple(reads),
                            Compute(stmt.cost_at(index)),
                            stmt.sid,
                            tuple(writes)))
        return program

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = MemorySyncFabric(memory, poll_interval=self.poll_interval)
        for addr in self.elements:
            key = fabric.alloc(1, init=0)[0]
            assert key == self._key_of[addr], "fabric allocation drifted"
        return fabric

    def prologue(self) -> List[Generator]:
        """Zero every key through the memory system, split over workers."""
        if not self.charge_init:
            return []

        def init(worker: int) -> Generator:
            for position, addr in enumerate(self.elements):
                if position % self.init_workers == worker:
                    yield SyncWrite(self._key_of[addr], 0)

        return [init(worker) for worker in range(
            min(self.init_workers, max(1, len(self.elements))))]

    @property
    def sync_vars(self) -> int:
        return len(self.elements)

    def make_process(self, pid: int) -> Generator:
        return self._body(pid)

    def make_replay_process(self, iteration: int,
                            checkpoint: Optional[dict] = None) -> Generator:
        """Resume an iteration from its last journalled key increment.

        The checkpoint names the executed-statement index, the number of
        keyed accesses whose increments landed, and the read values seen
        so far.  Accesses before that point are skipped (their
        non-idempotent key increments must not re-issue); journalled
        read values are substituted so the re-computed mix matches.
        """
        if checkpoint is None:
            return self._body(iteration)
        return self._body(iteration, skip_stmt=checkpoint["stmt"],
                          skip_acc=checkpoint["acc"],
                          journaled=checkpoint["values"])

    def _body(self, pid: int, skip_stmt: int = 0, skip_acc: int = 0,
              journaled: Sequence[Any] = ()) -> Generator:
        """Walk ``pid``'s compiled program from statement ``skip_stmt``,
        whose first ``skip_acc`` accesses already signalled; with
        checkpoints on, every key increment journals that progress."""
        checkpoints = self.checkpoints_enabled
        for stmt_pos, (tag_op, reads, compute_op, sid,
                       writes) in enumerate(self._programs[pid]):
            if stmt_pos < skip_stmt:
                continue
            acc_done = skip_acc if stmt_pos == skip_stmt else 0
            accesses = len(reads) + len(writes)
            if accesses and acc_done >= accesses:
                continue  # statement fully signalled before the crash
            yield tag_op
            # Reads whose increments already landed reuse the journalled
            # value instead of re-reading + re-incrementing.
            values: List[Any] = list(journaled[:acc_done])
            for position, (wait_op, read_op, update_op) in enumerate(
                    reads[acc_done:], acc_done):
                yield wait_op
                value = yield read_op
                values.append(value)
                yield (replace(update_op, checkpoint={
                    "iter": pid, "stmt": stmt_pos, "acc": position + 1,
                    "values": list(values)})
                    if checkpoints else update_op)
            yield compute_op
            result = mix(sid, pid, values)
            # writes before acc_done: write + increment already landed
            first_write = max(acc_done - len(reads), 0)
            for position, (wait_op, addr, update_op) in enumerate(
                    writes[first_write:], len(reads) + first_write):
                yield wait_op
                yield MemWrite(addr, result)
                yield _FENCE  # visible before the key admits successors
                yield (replace(update_op, checkpoint={
                    "iter": pid, "stmt": stmt_pos, "acc": position + 1,
                    "values": list(values)})
                    if checkpoints else update_op)
            yield _CLEAR_TAG


class ReferenceBasedScheme(SyncScheme):
    """Factory for Cedar-style key/data synchronization."""

    name = "reference-based"
    supports_variable_index = True

    def __init__(self, poll_interval: int = 4, init_workers: int = 8,
                 charge_init: bool = True) -> None:
        self.poll_interval = poll_interval
        self.init_workers = init_workers
        self.charge_init = charge_init

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None
                   ) -> ReferenceBasedLoop:
        graph = graph or DependenceGraph(loop)
        return ReferenceBasedLoop(loop, graph,
                                  poll_interval=self.poll_interval,
                                  init_workers=self.init_workers,
                                  charge_init=self.charge_init)
