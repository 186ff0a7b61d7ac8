"""The instance-based data-oriented scheme (section 3.1 / Fig. 3.1(b)).

Compile-time renaming gives every *updated value* its own memory location
and full/empty bit, as on the Denelcor HEP: the program becomes
single-assignment, so anti- and output dependences vanish and only flow
dependences synchronize.  "Multiple copies of an updated value are also
needed if there are multiple reads for the updated value" -- HEP reads
*consume* (empty) the bit, so each reader gets a private copy.

The price, which this model charges explicitly:

* storage: one location + one full/empty bit per (instance, reader copy),
* writers store every copy and set every bit,
* initialization: values live before the loop must be materialized as
  full version-0 instances,
* busy-waits poll through shared memory (data-oriented storage).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..depend.graph import DependenceGraph
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import (Address, Compute, MemRead, MemWrite, SyncWrite, Tag,
                       WaitUntil)
from ..sim.sync_bus import MemorySyncFabric, SyncFabric
from ..sim.validate import mix
from .base import (_CLEAR_TAG, _FENCE, InstrumentedLoop, SyncScheme,
                   shared_ops, split_init)

#: renamed instances live in this pseudo-array
INSTANCE_SPACE = "__inst__"


@dataclass(slots=True)
class Instance:
    """One single-assignment value instance (element version)."""

    base_addr: Address
    version: int
    #: copy addresses, one per reader (at least one)
    copies: List[Address] = field(default_factory=list)
    #: full/empty bit per copy (fabric var ids, filled at build time)
    bits: List[int] = field(default_factory=list)
    #: reader tags in sequential order (copy i -> reader i)
    readers: List[Tuple[str, int]] = field(default_factory=list)
    #: None for pre-loop (initial) versions
    writer: Optional[Tuple[str, int]] = None


@dataclass(frozen=True, slots=True)
class ReadBinding:
    """Where one read of a statement instance finds its operand."""

    instance_id: int
    copy_index: int


def rename(loop: Loop) -> Tuple[List[Instance],
                                Dict[Tuple[str, int], List[ReadBinding]],
                                Dict[Tuple[str, int], List[int]]]:
    """Single-assignment renaming of the loop's accesses.

    Returns ``(instances, reads_of, writes_of)`` where ``reads_of[tag]``
    binds each read of the instance (declaration order) to an
    (instance, copy) and ``writes_of[tag]`` lists instance ids the
    statement instance must produce.  Tags and base addresses are the
    lowering's own objects.
    """
    instances: List[Instance] = []
    current_version: Dict[Address, int] = {}  # addr -> instance id
    reads_of: Dict[Tuple[str, int], List[ReadBinding]] = {}
    writes_of: Dict[Tuple[str, int], List[int]] = {}

    def instance_for(addr: Address) -> int:
        """Current instance of an element, creating version 0 if needed."""
        if addr not in current_version:
            instance = Instance(base_addr=addr, version=0, writer=None)
            instances.append(instance)
            current_version[addr] = len(instances) - 1
        return current_version[addr]

    for row in loop.lowered():
        for stmt in row.statements:
            if stmt is None:
                continue
            tag = stmt.tag
            reads = reads_of[tag] = []
            writes = writes_of[tag] = []
            for addr in stmt.reads:
                instance_id = instance_for(addr)
                instance = instances[instance_id]
                copy_index = len(instance.readers)
                instance.readers.append(tag)
                reads.append(ReadBinding(instance_id, copy_index))
            for addr in stmt.writes:
                previous = current_version.get(addr)
                version = (0 if previous is None
                           else instances[previous].version + 1)
                instance = Instance(base_addr=addr, version=version,
                                    writer=tag)
                instances.append(instance)
                current_version[addr] = len(instances) - 1
                writes.append(len(instances) - 1)

    # assign flat copy addresses: one per reader, at least one per instance
    cursor = 0
    for instance in instances:
        n_copies = max(1, len(instance.readers))
        instance.copies = [(INSTANCE_SPACE, cursor + c)
                           for c in range(n_copies)]
        cursor += n_copies
    return instances, reads_of, writes_of


class InstanceBasedLoop(InstrumentedLoop):
    """A loop synchronized with full/empty bits over renamed storage."""

    renames_storage = True

    def __init__(self, scheme: InstanceBasedScheme, loop: Loop,
                 graph: DependenceGraph) -> None:
        super().__init__(scheme, loop, graph)
        self.instances, self.reads_of, self.writes_of = rename(loop)
        self.initial_instances = [i for i in self.instances
                                  if i.writer is None]
        #: bits are allocated in instance order on a fresh fabric, so
        #: their variable ids are known at instrument time (asserted in
        #: build_fabric); the op stream compiles here once.
        cursor = 0
        for instance in self.instances:
            n_bits = len(instance.copies)
            instance.bits = list(range(cursor, cursor + n_bits))
            cursor += n_bits
        self.recompile()

    def _compile(self, pid: int) -> list:
        """Compile ``pid``'s op stream, walked by :meth:`_body`.

        One entry per executed statement: ``(tag_op, compute_op, reads,
        writes)``, with ``reads`` holding ``(wait, read, consume)``
        triples on the renamed copies and ``writes`` holding
        ``(copy_addrs, bit_ops)`` pairs.  The statement's own addresses
        are never read, so no op is built for them.
        """
        consume = self.scheme.consume
        compute_op = shared_ops(self.loop, "_compute_ops", Compute)
        program = []
        for lowered in self.loop.lowered()[pid - 1].statements:
            if lowered is None:
                continue
            tag = lowered.tag
            reads = []
            for binding in self.reads_of.get(tag, ()):
                instance = self.instances[binding.instance_id]
                bit = instance.bits[binding.copy_index]
                reads.append((
                    WaitUntil(bit, _full,
                              reason=f"full {instance.base_addr}"
                                     f"v{instance.version}"),
                    MemRead(instance.copies[binding.copy_index]),
                    SyncWrite(bit, 0) if consume else None))
            writes = []
            for instance_id in self.writes_of.get(tag, ()):
                instance = self.instances[instance_id]
                writes.append((tuple(instance.copies),
                               tuple(SyncWrite(bit, 1)
                                     for bit in instance.bits)))
            program.append((Tag(tag), compute_op(lowered.cost),
                            tuple(reads), tuple(writes)))
        return program

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = MemorySyncFabric(memory, space="__fe__")
        for instance in self.instances:
            # empty unless the instance pre-exists the loop
            initial = 1 if instance.writer is None else 0
            allocated = list(fabric.alloc(len(instance.copies),
                                          init=initial))
            assert allocated == instance.bits, \
                "fabric allocation drifted from the compiled bit ops"
        return fabric

    def prologue(self) -> List[Generator]:
        """Materialize pre-loop values as full version-0 instances."""
        if not self.scheme.charge_init:
            return []
        initial_values = self.initial_memory()

        def materialize(instance: Instance) -> Generator:
            value = initial_values.get(instance.base_addr)
            for copy_addr, bit in zip(instance.copies, instance.bits):
                if value is not None:
                    yield MemWrite(copy_addr, value)
                yield SyncWrite(bit, 1)

        return split_init(self.initial_instances, materialize)

    @property
    def sync_vars(self) -> int:
        """Total full/empty bits (one per copy)."""
        return sum(len(instance.copies) for instance in self.instances)

    def extract_final_state(self, result) -> "Dict[Address, Any]":
        """Copy renamed storage back to program arrays (single-assignment
        copy-out): each element's value is its latest instance's."""
        latest: Dict[Address, "Instance"] = {}
        for instance in self.instances:
            current = latest.get(instance.base_addr)
            if current is None or instance.version > current.version:
                latest[instance.base_addr] = instance
        state: Dict[Address, Any] = {}
        for base_addr, instance in latest.items():
            if instance.writer is None:
                value = self.initial_memory().get(base_addr)
            else:
                value = result.final_memory.get(instance.copies[0])
            if value is not None:
                state[base_addr] = value
        return state

    @property
    def data_copy_words(self) -> int:
        """Words of renamed data storage (the renaming overhead)."""
        return sum(len(instance.copies) for instance in self.instances)

    def _body(self, pid: int,
              checkpoint: Optional[dict] = None) -> Generator:
        """Walk ``pid``'s compiled program; with checkpoints on, every
        consume and each statement's last publish journal the progress.

        Consuming reads are the scheme's non-idempotent signals, so a
        replay from ``checkpoint`` substitutes journalled values for the
        reads already consumed.  Publishes re-execute in full --
        single-assignment makes rewriting copies and re-filling bits
        idempotent (each copy has exactly one reader, which already got
        its value if the bit was consumed).
        """
        skip_stmt, skip_acc, journaled = (
            (0, 0, ()) if checkpoint is None
            else (checkpoint["stmt"], checkpoint["acc"],
                  checkpoint["values"]))
        checkpoints = self.checkpoints_enabled
        for stmt_pos, (tag_op, compute_op, reads,
                       writes) in enumerate(self._programs[pid]):
            if stmt_pos < skip_stmt:
                continue
            acc_done = skip_acc if stmt_pos == skip_stmt else 0
            yield tag_op
            # Reads whose consuming SyncWrite already landed find the
            # bit empty, so they reuse the journalled value.
            values: List[Any] = list(journaled[:acc_done])
            for read_pos, (wait_op, read_op, consume_op) in enumerate(
                    reads[acc_done:], acc_done):
                yield wait_op
                value = yield read_op
                values.append(value)
                if consume_op is not None:
                    # HEP read empties the bit (non-idempotent signal)
                    yield (replace(consume_op, checkpoint={
                        "iter": pid, "stmt": stmt_pos, "acc": read_pos + 1,
                        "values": list(values)})
                        if checkpoints else consume_op)
            yield compute_op
            result = mix(tag_op.tag[0], pid, values)
            # the statement's last publish advances the journal to the
            # next statement boundary
            boundary = writes[-1][1][-1] if checkpoints and writes else None
            for copy_addrs, bit_ops in writes:
                for addr in copy_addrs:
                    yield MemWrite(addr, result)
                yield _FENCE  # copies visible before bits flip
                for op in bit_ops:
                    yield (op if op is not boundary else replace(
                        op, checkpoint={"iter": pid, "stmt": stmt_pos + 1,
                                        "acc": 0, "values": []}))
            yield _CLEAR_TAG


def _full(value: int) -> bool:
    return value >= 1


class InstanceBasedScheme(SyncScheme):
    """Factory for HEP-style full/empty synchronization with renaming."""

    name = "instance-based"
    supports_variable_index = True

    def __init__(self, consume: bool = True,
                 charge_init: bool = True) -> None:
        self.consume = consume
        self.charge_init = charge_init

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None
                   ) -> InstanceBasedLoop:
        graph = graph or DependenceGraph(loop)
        return InstanceBasedLoop(self, loop, graph)
