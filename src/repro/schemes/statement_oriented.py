"""The statement-oriented scheme (section 3.2): Alliant Advance/Await.

Each source statement ``Sa`` gets one *statement counter* ``SC[a]``
shared by every iteration.  After process ``i`` executes ``Sa`` it
performs ``Advance(a)``: wait until ``SC[a] = i-1``, then set it to
``i``.  "Hence, when sc=i, all of the process j, j<i, must have
completed the execution of Sa" -- the update order is strictly
sequential, which is exactly the *horizontal sharing* the paper
criticizes: one slow iteration stalls the Advance chain of every later
iteration, even when the data dependences themselves would allow
progress.

Before a sink statement ``Sb`` with source distance D, process ``i``
performs ``Await(D, a)``: wait until ``SC[a] >= i - D``.

Counters live on the broadcast synchronization bus (the Alliant
concurrency control bus): local-image waits are free, Advances cost one
broadcast.  Because Advance serializes each statement's completions, the
stronger *monotonic* coverage pruning is sound here (a later iteration's
Advance implies all earlier iterations are done).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Generator, List, Optional

from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import MemWrite, SyncWrite, WaitUntil, at_least
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from ..sim.validate import mix
from .base import (_CLEAR_TAG, _FENCE, InstrumentedLoop, SyncScheme,
                   loop_memo, statement_instances)


class StatementOrientedLoop(InstrumentedLoop):
    """A loop synchronized with per-statement counters."""

    def __init__(self, scheme: StatementOrientedScheme, loop: Loop,
                 graph: DependenceGraph, arcs: List[SyncArc]) -> None:
        super().__init__(scheme, loop, graph)
        self.arcs = arcs
        self.source_sids: List[str] = graph.sources(arcs)
        #: statement counters are allocated first on a fresh fabric, so
        #: their variable ids are known at instrument time (asserted in
        #: build_fabric); that lets the whole op stream be compiled
        #: here, once, instead of per run.
        self._sc_vars: Dict[str, int] = {
            sid: var for var, sid in enumerate(self.source_sids)}
        self._first_pid = 1
        self.recompile()

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        initial = self._first_pid - 1  # "sc is set to k-1 if the first
        for sid in self.source_sids:   # iteration is k"
            var = fabric.alloc(1, init=initial)[0]
            assert var == self._sc_vars[sid], "fabric allocation drifted"
        return fabric

    def prologue(self) -> List[Generator]:
        if not self.scheme.charge_init or not self.source_sids:
            return []

        def init() -> Generator:
            for sid in self.source_sids:
                yield SyncWrite(self._sc_vars[sid], self._first_pid - 1)

        return [init()]

    @property
    def sync_vars(self) -> int:
        return len(self.source_sids)

    # ------------------------------------------------------------------

    def recompile(self) -> None:
        #: each body statement's incoming arcs, in arc order: one scan
        #: of the arcs per placement, rebuilt with the programs
        self._incoming = {
            stmt.sid: tuple(self.graph.incoming(stmt.sid, self.arcs))
            for stmt in self.loop.body}
        super().recompile()

    def _compile(self, pid: int) -> list:
        """Compile ``pid``'s op stream (see ``_sc_vars`` note).

        One entry per body statement: ``(awaits, compiled, advance)``
        where ``awaits`` is the tuple of Await ops, ``compiled`` the
        statement instance's compiled stream (None when the guard skips
        it) and ``advance`` the ``(wait, write)`` Advance pair (None for
        non-sources).  :meth:`_body` walks it.  Placements of one loop
        share their ops: Awaits are memoized on the loop by ``(var, pid,
        distance, src)`` and Advance pairs by ``(var, pid, sid)``, the
        counter variable included because a placement whose arcs drop
        a source numbers the remaining counters differently.
        """
        awaits_memo = loop_memo(self.loop, "_await_ops")
        advance_memo = loop_memo(self.loop, "_advance_ops")
        instances = statement_instances(self.loop, pid)
        sc_vars = self._sc_vars
        floor = self._first_pid
        program = []
        for stmt in self.loop.body:
            awaits = []
            for arc in self._incoming[stmt.sid]:
                if pid - arc.distance < floor:
                    continue
                var = sc_vars[arc.src]
                key = (var, pid, arc.distance, arc.src)
                op = awaits_memo.get(key)
                if op is None:
                    op = awaits_memo[key] = WaitUntil(
                        var, at_least(pid - arc.distance),
                        reason=f"Await({arc.distance},{arc.src}) "
                               f"by p{pid}")
                awaits.append(op)
            advance = None
            var = sc_vars.get(stmt.sid)
            if var is not None:
                key = (var, pid, stmt.sid)
                advance = advance_memo.get(key)
                if advance is None:
                    advance = advance_memo[key] = (
                        WaitUntil(var, at_least(pid - 1),
                                  reason=f"Advance({stmt.sid}) by p{pid}"),
                        SyncWrite(var, pid, coverable=False))
            program.append((tuple(awaits), instances[stmt.sid], advance))
        return program

    def _body(self, pid: int,
              checkpoint: Optional[dict] = None) -> Generator:
        """Walk ``pid``'s compiled program; with checkpoints on, every
        Advance journals the next body position.

        An Advance is the scheme's non-idempotent signal (it transfers
        the counter from ``pid-1`` to ``pid`` exactly once in the
        chain), so a replay from ``checkpoint`` skips every position
        before the journalled one entirely; the rest re-execute, which
        is safe because an un-Advanced statement's successors are still
        blocked on the counter.

        The statement body inlines ``CompiledStatement.stream`` (same op
        sequence) to spare the ``yield from`` frame hop per op.
        """
        skip_stmt = 0 if checkpoint is None else checkpoint["stmt"]
        checkpoints = self.checkpoints_enabled
        for stmt_pos, (awaits, compiled,
                       advance) in enumerate(self._programs[pid]):
            if stmt_pos < skip_stmt:
                continue  # Advance already landed for this position
            # sink first: Await every incoming arc
            for op in awaits:
                yield op
            if compiled is not None:
                yield compiled.tag_op
                values: List[Any] = []
                for read_op in compiled.read_ops:
                    value = yield read_op
                    values.append(value)
                yield compiled.compute_op
                result = mix(compiled.sid, compiled.lpid, values)
                for addr in compiled.write_addrs:
                    yield MemWrite(addr, result)
                yield _CLEAR_TAG
            if advance is not None:
                # Fence even when the guard skipped the statement: arc
                # pruning treats Advance as proof that everything
                # program-order-before it in this process is complete
                # AND visible, so earlier statements' posted writes must
                # drain before the counter moves.  (A fence with no
                # outstanding writes is free.)
                yield _FENCE
                # Advance runs on every path (Example 3's rule), or sinks
                # of skipped sources would deadlock the Advance chain:
                # wait until SC[sid] = pid-1, then set it to pid.
                wait_op, write_op = advance
                yield wait_op
                yield (replace(write_op, checkpoint={
                    "iter": pid, "stmt": stmt_pos + 1})
                    if checkpoints else write_op)


class StatementOrientedScheme(SyncScheme):
    """Factory for statement-counter synchronization.

    ``prune`` defaults to ``"monotonic"``, which is sound for this scheme
    (see module docstring); pass ``"exact"`` or ``"none"`` for ablations.
    """

    name = "statement-oriented"
    supports_variable_index = False

    def __init__(self, prune: str = "monotonic",
                 charge_init: bool = True) -> None:
        self.prune = prune
        self.charge_init = charge_init

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None,
                   arcs: Optional[List[SyncArc]] = None
                   ) -> StatementOrientedLoop:
        graph = graph or DependenceGraph(loop)
        if arcs is None:
            arcs = graph.pruned_sync_arcs(mode=self.prune)
        return StatementOrientedLoop(self, loop, graph, arcs)
