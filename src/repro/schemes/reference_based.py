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
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..depend.graph import DependenceGraph
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import (Address, MemWrite, SyncUpdate, SyncWrite, WaitUntil,
                       at_least, increment)
from ..sim.sync_bus import MemorySyncFabric, SyncFabric
from ..sim.validate import mix
from .base import (_CLEAR_TAG, _FENCE, InstrumentedLoop, SyncScheme,
                   shared_ops, split_init, statement_instances)


@dataclass(frozen=True, slots=True)
class KeyedAccess:
    """One planned access of a statement instance, with its key action."""

    kind: str        # "R" or "W"
    addr: Address
    threshold: int   # wait until key >= threshold
    ordinal: int     # this access's position in the element's sequence


def plan_accesses(loop: Loop) -> Dict[Tuple[str, int], List[KeyedAccess]]:
    """Assign access ordinals and wait thresholds per statement instance.

    Walks the iteration space in sequential order, numbering the accesses
    of every element; within a statement reads precede writes.  Returns,
    for each tag ``(sid, lpid)``, the instance's accesses in execution
    order (reads in declaration order, then writes).  Tags and
    addresses are the lowering's own objects.
    """
    ordinals: Dict[Address, int] = defaultdict(int)
    last_write_ordinal: Dict[Address, int] = {}
    plan: Dict[Tuple[str, int], List[KeyedAccess]] = {}
    for row in loop.lowered():
        for stmt in row.statements:
            if stmt is None:
                continue
            accesses: List[KeyedAccess] = []
            for addr in stmt.reads:
                ordinal = ordinals[addr]
                previous_write = last_write_ordinal.get(addr)
                threshold = 0 if previous_write is None else previous_write + 1
                accesses.append(KeyedAccess("R", addr, threshold, ordinal))
                ordinals[addr] = ordinal + 1
            for addr in stmt.writes:
                ordinal = ordinals[addr]
                accesses.append(KeyedAccess("W", addr, ordinal, ordinal))
                ordinals[addr] = ordinal + 1
                last_write_ordinal[addr] = ordinal
            plan[stmt.tag] = accesses
    return plan


class ReferenceBasedLoop(InstrumentedLoop):
    """A loop synchronized with per-element access-order keys."""

    def __init__(self, scheme: ReferenceBasedScheme, loop: Loop,
                 graph: DependenceGraph) -> None:
        super().__init__(scheme, loop, graph)
        self.plan = plan_accesses(loop)
        self.elements: List[Address] = sorted(
            {access.addr for accesses in self.plan.values()
             for access in accesses})
        #: keys are allocated in ``elements`` order on a fresh fabric,
        #: so their variable ids are known at instrument time (asserted
        #: in build_fabric); the op stream compiles here once.
        self._key_of: Dict[Address, int] = {
            addr: key for key, addr in enumerate(self.elements)}
        self.recompile()

    def _compile(self, pid: int) -> list:
        """Compile ``pid``'s op stream, walked by :meth:`_body`.

        One entry per executed statement: ``(compiled, reads, writes)``
        with the statement instance's compiled stream and per-access
        ``(wait, read, update)`` / ``(wait, addr, update)`` triples.
        """
        update_op = shared_ops(self.loop, "_key_updates", _key_update)
        program = []
        for compiled in statement_instances(self.loop, pid).values():
            if compiled is None:
                continue
            reads = []
            writes = []
            read_ops = iter(compiled.read_ops)  # the plan's reads, in order
            for access in self.plan[compiled.tag_op.tag]:
                key = self._key_of[access.addr]
                wait_op = WaitUntil(key, at_least(access.threshold),
                                    reason=f"key {access.addr} >= "
                                           f"{access.threshold}")
                if access.kind == "R":
                    reads.append((wait_op, next(read_ops), update_op(key)))
                else:
                    writes.append((wait_op, access.addr, update_op(key)))
            program.append((compiled, tuple(reads), tuple(writes)))
        return program

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = MemorySyncFabric(memory)
        for addr in self.elements:
            key = fabric.alloc(1, init=0)[0]
            assert key == self._key_of[addr], "fabric allocation drifted"
        return fabric

    def prologue(self) -> List[Generator]:
        """Zero every key through the memory system, split over workers."""
        if not self.scheme.charge_init:
            return []
        return split_init(self.elements,
                          lambda addr: (SyncWrite(self._key_of[addr], 0),))

    @property
    def sync_vars(self) -> int:
        return len(self.elements)

    def _body(self, pid: int,
              checkpoint: Optional[dict] = None) -> Generator:
        """Walk ``pid``'s compiled program; with checkpoints on, every
        key increment journals its progress.

        A checkpoint names the executed-statement index, the number of
        keyed accesses whose increments landed, and the read values seen
        so far.  A replay skips the accesses before that point (their
        non-idempotent key increments must not re-issue) and substitutes
        the journalled read values so the re-computed mix matches.
        """
        skip_stmt, skip_acc, journaled = (
            (0, 0, ()) if checkpoint is None
            else (checkpoint["stmt"], checkpoint["acc"],
                  checkpoint["values"]))
        checkpoints = self.checkpoints_enabled
        for stmt_pos, (compiled, reads,
                       writes) in enumerate(self._programs[pid]):
            if stmt_pos < skip_stmt:
                continue
            acc_done = skip_acc if stmt_pos == skip_stmt else 0
            accesses = len(reads) + len(writes)
            if accesses and acc_done >= accesses:
                continue  # statement fully signalled before the crash
            yield compiled.tag_op
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
            yield compiled.compute_op
            result = mix(compiled.sid, pid, values)
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


def _key_update(key: int) -> SyncUpdate:
    return SyncUpdate(key, increment)


class ReferenceBasedScheme(SyncScheme):
    """Factory for Cedar-style key/data synchronization."""

    name = "reference-based"
    supports_variable_index = True

    def __init__(self, charge_init: bool = True) -> None:
        self.charge_init = charge_init

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None
                   ) -> ReferenceBasedLoop:
        graph = graph or DependenceGraph(loop)
        return ReferenceBasedLoop(self, loop, graph)
