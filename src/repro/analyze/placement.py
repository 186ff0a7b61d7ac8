"""Dry-run extraction of a scheme's static sync placement.

The analyzer never re-implements a scheme's planner: it obtains the
*authoritative* placement by dry-running each iteration's process
generator and recording the ops it yields, exactly as the engine would
see them.  This makes the static model correct by construction -- any
wrapper (bounded waits, a mutation) is analyzed through the same code
path that executes.

Generators are driven engine-free: data reads are answered with a dummy
value (data values never steer control flow in any scheme), and sync
reads are answered by a *policy*.  The only scheme whose control flow
depends on a sync read is the improved process-oriented style, whose
``mark_PC`` skips its counter update when ownership has not arrived:

``optimistic``
    answers as if ownership has arrived, so every mark appears in the
    stream.  This is the stream the happens-before graph is built from;
    non-guaranteed marks are then classified as MAY events (see below).
``pessimistic``
    answers as if ownership never arrives, so conditional marks vanish
    and the final transfer emits its ownership wait.  Used only to
    decide which ops are unconditionally present at run time (mutation
    eligibility).

For the improved style the optimistic stream is post-processed:

* a counter write handing the slot to a later owner (``release_PC``) is
  a MUST event, and gets a *synthetic* ownership wait inserted before it
  (``transfer_PC`` blocks until the slot is owned -- in the optimistic
  stream that wait is hidden because a preceding mark already acquired
  ownership);
* a counter write by the slot's initial owner is a MUST event (ownership
  holds from loop entry, the mark's check cannot fail);
* any other same-owner counter write is a MAY event (the mark may skip),
  with an *ownership edge* from the release that hands it the slot: if
  the mark fires at run time, that release had already committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core.process_counter import pc_at_least
from ..schemes.base import InstrumentedLoop
from ..sim.memory import MemoryConfig, SharedMemory
from ..sim.ops import (MemRead, MemWrite, SyncRead, SyncUpdate, SyncWrite,
                       Tag, WaitUntil)

#: runaway guard for the per-task dry run
_MAX_OPS_PER_TASK = 200_000


class AnalysisError(Exception):
    """The placement violates an assumption the static model relies on."""


@dataclass
class Node:
    """One op instance in the unrolled placement."""

    nid: int
    task: int                    # lpid of the issuing iteration
    op: Any
    tag: Any                     # active (sid, lpid) statement tag
    #: False for MAY events (may not fire at run time: improved marks)
    guaranteed: bool = True
    #: inserted by the analyzer, not present in the run-time stream
    synthetic: bool = False
    #: extra happens-before predecessors (ownership edges), by node id
    extra_preds: List[int] = field(default_factory=list)

    def describe(self) -> str:
        op = self.op
        if isinstance(op, WaitUntil):
            what = op.reason or f"wait on var {op.var}"
            if self.synthetic:
                what += " [ownership, synthetic]"
        elif isinstance(op, SyncWrite):
            what = f"sync write var {op.var} <- {op.value!r}"
        elif isinstance(op, SyncUpdate):
            what = f"sync update var {op.var}"
        elif isinstance(op, MemRead):
            what = f"read {op.addr}"
        elif isinstance(op, MemWrite):
            what = f"write {op.addr}"
        else:
            what = type(op).__name__
        return f"p{self.task}: {what}"


@dataclass
class StaticPlacement:
    """The unrolled placement over a window of iterations."""

    pids: List[int]
    nodes: List[Node]
    #: pid -> node ids in program order
    tasks: Dict[int, List[int]]
    #: fabric variable -> initial committed value (from allocation)
    initial_values: Dict[int, Any]
    #: var -> SyncWrite node ids (commit-publishing events)
    write_nodes: Dict[int, List[int]]
    #: var -> SyncUpdate node ids (counting semantics)
    update_nodes: Dict[int, List[int]]
    #: all WaitUntil node ids (synthetic included)
    wait_nodes: List[int]
    #: (tag, kind, addr) -> node ids of matching data accesses
    access_index: Dict[Tuple[Any, str, Any], List[int]]
    #: vars with both SyncWrite and SyncUpdate writers (rejected)
    fold_factor: int = 1


def _optimistic_sync_read(op: SyncRead, pid: int, initial: Any) -> Any:
    if isinstance(initial, tuple) and len(initial) == 2:
        # A process-counter <owner, step> pair: answer as if ownership
        # has arrived, so conditional marks appear in the stream.
        return (pid, 0)
    return initial


def _pessimistic_sync_read(op: SyncRead, pid: int, initial: Any) -> Any:
    if isinstance(initial, tuple) and len(initial) == 2:
        # Answer as if ownership never arrives: marks skip.
        return (-(10 ** 9), 0)
    return initial


def dry_run_task(gen: Generator, pid: int,
                 initial_values: Dict[int, Any],
                 sync_read: Callable[[SyncRead, int, Any], Any]
                 ) -> List[Tuple[Any, Any]]:
    """Drive one process generator engine-free; return [(op, tag)]."""
    ops: List[Tuple[Any, Any]] = []
    tag: Any = None
    send: Any = None
    while True:
        try:
            op = gen.send(send)
        except StopIteration:
            return ops
        send = None
        if isinstance(op, Tag):
            tag = op.tag
        elif isinstance(op, MemRead):
            send = 0
        elif isinstance(op, SyncRead):
            send = sync_read(op, pid, initial_values.get(op.var))
        elif isinstance(op, SyncUpdate):
            send = 0
        ops.append((op, tag))
        if len(ops) > _MAX_OPS_PER_TASK:
            raise AnalysisError(
                f"dry run of iteration {pid} exceeded "
                f"{_MAX_OPS_PER_TASK} ops; non-terminating placement?")


def snapshot_fabric(instrumented: InstrumentedLoop) -> Dict[int, Any]:
    """Build the scheme's fabric and capture initial committed values.

    Allocation installs initial values engine-free.  The run-time
    prologue is deliberately *not* modeled: for every shipped scheme the
    prologue rewrites exactly the values allocation already installed
    (counter registers reset, keys zeroed, pre-loop instances full), so
    the snapshot equals the state a loop iteration can first observe.
    """
    fabric = instrumented.build_fabric(SharedMemory(MemoryConfig()))
    return {var: fabric.value(var)
            for var in range(fabric.storage_words_allocated())}


def _improved_pc_context(instrumented: InstrumentedLoop):
    """(counter file, pc var set) when the improved PC model applies.

    Duck-typed on purpose: mutation wrappers delegate attributes to the
    loop they wrap without being ``ProcessOrientedLoop`` instances.
    """
    counters = getattr(instrumented, "counters", None)
    if (getattr(instrumented.scheme, "style", None) == "improved"
            and counters is not None and counters._vars is not None):
        return counters, set(counters._vars)
    return None, set()


def extract(instrumented: InstrumentedLoop,
            pids: List[int]) -> StaticPlacement:
    """Unroll the placement over ``pids`` (optimistic streams)."""
    initial_values = snapshot_fabric(instrumented)
    counters, pc_vars = _improved_pc_context(instrumented)

    nodes: List[Node] = []
    tasks: Dict[int, List[int]] = {}
    #: (var, owner) -> node id of the counter write handing ``owner``
    #: the slot, for ownership edges
    release_by_owner: Dict[Tuple[int, int], int] = {}

    for pid in pids:
        stream = dry_run_task(instrumented.make_process(pid), pid,
                              initial_values, _optimistic_sync_read)
        task_ids: List[int] = []
        for op, tag in stream:
            if (counters is not None and isinstance(op, SyncWrite)
                    and op.var in pc_vars
                    and isinstance(op.value, tuple)):
                owner = op.value[0]
                if owner > pid:
                    # release_PC: hand the slot forward.  transfer_PC
                    # blocks until the slot is owned; the optimistic
                    # stream hides that wait behind a mark, so restore
                    # it as a synthetic guaranteed wait.
                    wait = Node(
                        nid=len(nodes), task=pid,
                        op=WaitUntil(op.var, pc_at_least((pid, 0)),
                                     reason=f"own slot before release "
                                            f"by p{pid}"),
                        tag=None, guaranteed=True, synthetic=True)
                    nodes.append(wait)
                    task_ids.append(wait.nid)
                    node = Node(nid=len(nodes), task=pid, op=op, tag=tag)
                    release_by_owner[(op.var, owner)] = node.nid
                elif owner == pid:
                    slot = counters.slot(pid)
                    if counters.initial_owner(slot) == pid:
                        # Ownership holds from loop entry: the mark's
                        # check cannot fail.
                        node = Node(nid=len(nodes), task=pid, op=op,
                                    tag=tag)
                    else:
                        # mark_PC may skip: MAY event, ordered after
                        # the release that hands this pid the slot.
                        node = Node(nid=len(nodes), task=pid, op=op,
                                    tag=tag, guaranteed=False)
                        handoff = release_by_owner.get((op.var, pid))
                        if handoff is not None:
                            node.extra_preds.append(handoff)
                else:
                    node = Node(nid=len(nodes), task=pid, op=op, tag=tag,
                                guaranteed=False)
            else:
                node = Node(nid=len(nodes), task=pid, op=op, tag=tag)
            nodes.append(node)
            task_ids.append(node.nid)
        tasks[pid] = task_ids

    write_nodes: Dict[int, List[int]] = {}
    update_nodes: Dict[int, List[int]] = {}
    wait_nodes: List[int] = []
    access_index: Dict[Tuple[Any, str, Any], List[int]] = {}
    for node in nodes:
        op = node.op
        if isinstance(op, SyncWrite):
            write_nodes.setdefault(op.var, []).append(node.nid)
        elif isinstance(op, SyncUpdate):
            update_nodes.setdefault(op.var, []).append(node.nid)
        elif isinstance(op, WaitUntil):
            wait_nodes.append(node.nid)
        elif isinstance(op, MemRead) and node.tag is not None:
            access_index.setdefault(
                (node.tag, "R", op.addr), []).append(node.nid)
        elif isinstance(op, MemWrite) and node.tag is not None:
            access_index.setdefault(
                (node.tag, "W", op.addr), []).append(node.nid)

    mixed = set(write_nodes) & set(update_nodes)
    if mixed:
        raise AnalysisError(
            f"variables {sorted(mixed)} are written by both SyncWrite "
            f"and SyncUpdate; the static model cannot type them")

    fold = getattr(getattr(instrumented, "counters", None),
                   "n_counters", 1)
    return StaticPlacement(
        pids=list(pids), nodes=nodes, tasks=tasks,
        initial_values=initial_values, write_nodes=write_nodes,
        update_nodes=update_nodes, wait_nodes=wait_nodes,
        access_index=access_index, fold_factor=fold or 1)


# ----------------------------------------------------------------------
# mutation eligibility: ops unconditionally present at run time
# ----------------------------------------------------------------------

def _signatures(stream: List[Tuple[Any, Any]]) -> Dict[Tuple, int]:
    """Count structural signatures of mutable ops in one task stream."""
    counts: Dict[Tuple, int] = {}

    def bump(sig: Tuple) -> None:
        counts[sig] = counts.get(sig, 0) + 1

    for op, _tag in stream:
        if isinstance(op, SyncWrite):
            bump(("W", op.var, op.value, op.coverable))
        elif isinstance(op, SyncUpdate):
            bump(("U", op.var))
        elif isinstance(op, WaitUntil):
            bump(("wait", op.var))
    return counts


def stable_signatures(instrumented: InstrumentedLoop,
                      pid: int,
                      initial_values: Optional[Dict[int, Any]] = None
                      ) -> Dict[Tuple, int]:
    """Signatures present identically under both sync-read policies.

    An op whose occurrence count differs between the optimistic and the
    pessimistic stream is run-time conditional (improved-style marks,
    the transfer's hidden ownership wait): a mutation targeting it could
    hit a different op at run time, so it is excluded.
    """
    if initial_values is None:
        initial_values = snapshot_fabric(instrumented)
    optimistic = _signatures(dry_run_task(
        instrumented.make_process(pid), pid, initial_values,
        _optimistic_sync_read))
    pessimistic = _signatures(dry_run_task(
        instrumented.make_process(pid), pid, initial_values,
        _pessimistic_sync_read))
    return {sig: count for sig, count in optimistic.items()
            if pessimistic.get(sig) == count}
