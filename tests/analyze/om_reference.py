"""DePa-style graph-fiber order maintenance: the sanitizer's test reference.

The vector-clock sanitizer (:func:`repro.analyze.check_trace`) carries a
per-task dict of per-task ticks and joins whole dicts at every
synchronization edge.  This module is an independent second race
checker over the same event stream, kept in the test suite as the
differential reference the sanitizer is compared against.  It uses the
order-maintenance representation of Westrick, Wang & Acar's *DePa*
(PAPERS.md): each task's execution is a sequence of **fibers**, a fiber
being a maximal run of events with no *incoming* synchronization edge
at its interior.  A fiber **splits** at every knowledge-adding join (an
acquire imports new knowledge); DePa's split-at-fork is subsumed by the
packed positional watermarks -- a release publishes the releaser's
*position*, and later same-fiber events compare above it, so the
published prefix closes without a split.  Every event is named by
exactly **two machine words** -- ``(fiber, offset)`` -- and
:meth:`OrderMaintenance.precedes` answers any happens-before query
between two recorded events in **O(1)**:

* same task: fibers of one task are created in program order, so the
  packed ``(fiber_index, offset)`` positions compare directly;
* different tasks: a fiber's interior receives no edges, so the
  knowledge any event in fiber *f* has of task *u* is frozen at *f*'s
  creation -- one watermark lookup in *f*'s frontier snapshot.

Frontiers are flat integer lists indexed by interned task id; a
watermark is a single packed integer, exploiting that observing one
event of a task implies observing its whole program-order prefix.
Joins (the only O(#tasks) operation) happen solely at sync edges;
every data event costs O(1) appends and compares, which is what makes a
whole fig3.x trace checkable in seconds.

The streaming race check itself lives in :func:`check_stream`: one pass
over a merged ``(seq, kind, where, task)`` event stream, FastTrack-style
last-write epochs and read maps per location, every membership test a
single integer compare against a frontier watermark.  Verdict semantics
deliberately mirror the vector-clock oracle in
:mod:`repro.analyze.sanitizer` event for event (including the prologue
"boot" rule), so the two oracles can be diffed on identical streams.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analyze.sanitizer import RaceEvent, event_stream

__all__ = ["OrderMaintenance", "check_stream", "check_result"]

#: bits reserved for the within-fiber offset in a packed position; a
#: single fiber would need 2^40 events to overflow (never: fibers are
#: bounded by the trace length, and Python ints do not wrap anyway)
_OFFSET_BITS = 40

#: "no knowledge" watermark (below every real packed position)
_NONE = -1


class OrderMaintenance:
    """Order-maintenance index over a streamed fork/join/sync trace.

    Feed events in observation order (any linearization consistent with
    program order and with every release-before-matching-acquire);
    query :meth:`precedes` on any two labels returned so far.
    """

    __slots__ = ("names", "_ids", "_fiber", "_fiber_task", "_fiber_index",
                 "_fiber_frontier", "_next_index", "_offset",
                 "_var_frontier", "_booted", "_boot")

    def __init__(self) -> None:
        #: interned task names, index == task id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: per task: current fiber id
        self._fiber: List[int] = []
        #: per task: next fiber index within the task
        self._next_index: List[int] = []
        #: per task: offset of the last event inside the current fiber
        self._offset: List[int] = []
        #: per fiber: owning task id
        self._fiber_task: List[int] = []
        #: per fiber: index within its task (program order of fibers)
        self._fiber_index: List[int] = []
        #: per fiber: frontier snapshot at fiber start -- packed
        #: watermarks per task id, frozen for the fiber's lifetime
        #: (each acquire-split builds the new fiber's merged list)
        self._fiber_frontier: List[List[int]] = []
        #: per sync variable: accumulated released frontier
        self._var_frontier: Dict[Any, List[int]] = {}
        self._booted = False
        self._boot: List[int] = []

    # -- task interning and the prologue boot rule ----------------------

    def task(self, name: str) -> int:
        """Intern ``name``; replicate the sanitizer's prologue rule.

        The machine runs every ``init*`` prologue task to completion
        before the loop starts, so the first non-``init`` task marks the
        boot point: everything any existing task has done is joined into
        a boot frontier that every later task starts from.
        """
        tid = self._ids.get(name)
        if tid is not None:
            return tid
        if not self._booted and not name.startswith("init"):
            self._booted = True
            boot: List[int] = [_NONE] * len(self.names)
            for u in range(len(self.names)):
                frontier = self._fiber_frontier[self._fiber[u]]
                for v, mark in enumerate(frontier):
                    if mark > boot[v]:
                        boot[v] = mark
                own = self._position(u)
                if own > boot[u]:
                    boot[u] = own
            self._boot = boot
        tid = len(self.names)
        self._ids[name] = tid
        self.names.append(name)
        start = list(self._boot) if self._booted else []
        fid = self._new_fiber(tid, 0, start)
        self._fiber.append(fid)
        self._next_index.append(1)
        self._offset.append(0)
        return tid

    def _new_fiber(self, tid: int, index: int,
                   frontier: List[int]) -> int:
        fid = len(self._fiber_task)
        self._fiber_task.append(tid)
        self._fiber_index.append(index)
        self._fiber_frontier.append(frontier)
        return fid

    def _position(self, tid: int) -> int:
        """Packed (fiber index, offset) of the task's latest event."""
        return ((self._fiber_index[self._fiber[tid]] << _OFFSET_BITS)
                | self._offset[tid])

    def _split(self, tid: int, frontier: List[int]) -> None:
        """End the task's current fiber; start the next one."""
        index = self._next_index[tid]
        self._next_index[tid] = index + 1
        self._fiber[tid] = self._new_fiber(tid, index, frontier)
        self._offset[tid] = 0

    # -- streamed events ------------------------------------------------

    def step(self, tid: int) -> int:
        """Record one event of task ``tid``; return its packed position.

        The event's two-word label is :meth:`label_of` the returned
        position (the packed form is what the race check stores).
        """
        offset = self._offset[tid] + 1
        self._offset[tid] = offset
        return ((self._fiber_index[self._fiber[tid]] << _OFFSET_BITS)
                | offset)

    def label(self, tid: int) -> Tuple[int, int]:
        """Two-machine-word label of the task's latest event."""
        return (self._fiber[tid], self._offset[tid])

    def release(self, tid: int, var: Any) -> None:
        """Fork edge: publish the task's prefix on ``var``.

        Joins the releaser's frontier *and its own position* into the
        variable's accumulated frontier (releases accumulate, matching
        the vector-clock ``rel`` rule).  No fiber split is needed: the
        published watermark is a packed *position*, so the releaser's
        later events in the same fiber compare above it and are
        correctly not implied by observing this release -- DePa's
        split-at-fork falls out of the ``<=`` on packed positions.
        """
        frontier = self._fiber_frontier[self._fiber[tid]]
        target = self._var_frontier.get(var)
        if target is None:
            target = self._var_frontier[var] = [_NONE] * len(self.names)
        elif len(target) < len(self.names):
            target.extend([_NONE] * (len(self.names) - len(target)))
        for v, mark in enumerate(frontier):
            if mark > target[v]:
                target[v] = mark
        own = self._position(tid)
        if own > target[tid]:
            target[tid] = own

    def acquire(self, tid: int, var: Any) -> None:
        """Join edge: import the variable's released frontier.

        A no-op when the variable was never released or adds nothing
        (the FastTrack same-epoch shortcut); otherwise the fiber splits
        and the new fiber snapshots the merged frontier.
        """
        source = self._var_frontier.get(var)
        if source is None:
            return
        frontier = self._fiber_frontier[self._fiber[tid]]
        merged: Optional[List[int]] = None
        if len(source) > len(frontier):
            merged = frontier + [_NONE] * (len(source) - len(frontier))
        for v, mark in enumerate(source):
            if merged is None:
                if mark > frontier[v]:
                    merged = list(frontier)
                    merged[v] = mark
            elif mark > merged[v]:
                merged[v] = mark
        if merged is None:
            return
        self._split(tid, merged)

    def update(self, tid: int, var: Any) -> None:
        """Atomic read-modify-write: an acquire, the event, a release."""
        self.acquire(tid, var)
        self.step(tid)
        self.release(tid, var)

    # -- queries --------------------------------------------------------

    def ordered(self, position: int, owner: int, tid: int) -> bool:
        """Does ``owner``'s event at packed ``position`` happen-before
        the latest event of ``tid``?  O(1): one watermark compare."""
        if owner == tid:
            return True
        frontier = self._fiber_frontier[self._fiber[tid]]
        if owner >= len(frontier):
            return False
        return position <= frontier[owner]

    def precedes(self, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """Happens-before (reflexive) between two event labels, O(1).

        ``a`` and ``b`` are ``(fiber, offset)`` labels of recorded
        events.  Same task: packed program-order positions compare
        directly.  Different tasks: ``b``'s fiber received no edges
        after it started, so its creation-time frontier snapshot is
        exactly what any event inside it knows.
        """
        fiber_a, offset_a = a
        fiber_b, offset_b = b
        task_a = self._fiber_task[fiber_a]
        position_a = (self._fiber_index[fiber_a] << _OFFSET_BITS) | offset_a
        if task_a == self._fiber_task[fiber_b]:
            position_b = ((self._fiber_index[fiber_b] << _OFFSET_BITS)
                          | offset_b)
            return position_a <= position_b
        frontier = self._fiber_frontier[fiber_b]
        if task_a >= len(frontier):
            return False
        return position_a <= frontier[task_a]


def check_stream(events: Iterable[Tuple[int, str, Any, str]],
                 ) -> List[Tuple[Any, str, str, int, str, str, int]]:
    """One-pass race check over a merged event stream.

    ``events`` yields ``(seq, kind, where, task)`` with kind ``"R"`` /
    ``"W"`` (data access at address ``where``) or ``"rel"`` / ``"acq"``
    / ``"upd"`` (sync op on variable ``where``), already ordered
    consistently with program order and release-before-acquire (harness
    addresses filtered out).  Returns race tuples ``(addr, first_task,
    first_kind, first_seq, second_task, second_kind, second_seq)`` --
    the same pairs, in the same order, as the vector-clock oracle.
    """
    om = OrderMaintenance()
    task = om.task            # hoisted bound methods: the hot loop
    step = om.step            # runs once per trace event
    fibers = om._fiber
    frontiers = om._fiber_frontier
    races: List[Tuple[Any, str, str, int, str, str, int]] = []
    #: addr -> (tid, packed position, seq, name) of the last write
    last_write: Dict[Any, Tuple[int, int, int, str]] = {}
    #: addr -> {tid: (packed position, seq, name)} reads since the write
    reads: Dict[Any, Dict[int, Tuple[int, int, str]]] = {}

    # The pass allocates millions of small, acyclic, long-lived objects
    # (fiber records, read maps, race tuples); with the generational
    # collector on, full collections re-scan that growing heap and turn
    # a linear pass superlinear.  Nothing here can form a cycle, so
    # pause collection for the duration of the sweep.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _run_check(events, task, step, fibers, frontiers, om,
                   races, last_write, reads)
    finally:
        if was_enabled:
            gc.enable()
    return races


def _run_check(events, task, step, fibers, frontiers, om,
               races, last_write, reads) -> None:
    for seq, kind, where, name in events:
        tid = task(name)
        if kind == "R":
            position = step(tid)
            writer = last_write.get(where)
            if writer is not None and writer[0] != tid:
                frontier = frontiers[fibers[tid]]
                if (writer[0] >= len(frontier)
                        or writer[1] > frontier[writer[0]]):
                    races.append((where, writer[3], "W", writer[2],
                                  name, "R", seq))
            readers = reads.get(where)
            if readers is None:
                readers = reads[where] = {}
            readers[tid] = (position, seq, name)
        elif kind == "W":
            position = step(tid)
            frontier = frontiers[fibers[tid]]
            writer = last_write.get(where)
            if writer is not None and writer[0] != tid:
                if (writer[0] >= len(frontier)
                        or writer[1] > frontier[writer[0]]):
                    races.append((where, writer[3], "W", writer[2],
                                  name, "W", seq))
            readers = reads.get(where)
            if readers:
                for rtid, (rpos, rseq, rname) in readers.items():
                    if rtid != tid and (rtid >= len(frontier)
                                        or rpos > frontier[rtid]):
                        races.append((where, rname, "R", rseq,
                                      name, "W", seq))
            last_write[where] = (tid, position, seq, name)
            reads[where] = {}  # this write orders all earlier reads
        elif kind == "acq":
            om.acquire(tid, where)
            step(tid)
        elif kind == "rel":
            step(tid)
            om.release(tid, where)
        else:  # "upd"
            om.update(tid, where)


def check_result(result: Any) -> List[RaceEvent]:
    """:func:`check_stream` over the stream ``check_trace`` reads, as
    :class:`RaceEvent`\\ s, so the two checkers' outputs compare with
    ``==``."""
    return [RaceEvent(*race) for race in check_stream(event_stream(result))]
