"""The process-oriented scheme (section 4) as a pluggable SyncScheme.

One process counter per iteration, folded onto X hardware counters on the
broadcast synchronization bus.  Two primitive styles:

``"basic"``  (Fig. 4.2)
    ``get_PC`` before the first counter update, ``set_PC`` after each
    non-final source statement, ``release_PC`` after the last.
``"improved"``  (Fig. 4.3)
    ``load_index`` at loop entry, ``mark_PC`` (skips when ownership has
    not arrived) after non-final sources, ``transfer_PC`` at the end --
    ownership is only ever *waited for* at the final transfer.

Branches follow Example 3: source *positions* advance the step cursor
whether or not the statement executed, and (eagerly, by default) the
cursor is published so sinks of skipped sources proceed as soon as
possible.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..core.branches import StepCursor
from ..core.codegen import SyncPlan, build_sync_plan
from ..core.folding import choose_counters
from ..core.improved import ImprovedPrimitives
from ..core.primitives import get_pc, release_pc, set_pc
from ..core.process_counter import ProcessCounterFile, pc_at_least
from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import MemWrite, SyncWrite, WaitUntil
from ..sim.cache_fabric import CachedSyncFabric
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from ..sim.validate import mix
from .base import (_CLEAR_TAG, _FENCE, InstrumentedLoop, SyncScheme,
                   statement_instances)


def fold_waits(loop: Loop, n_counters: int,
               first_pid: int) -> Dict[Tuple[int, int, int], WaitUntil]:
    """The loop's ``WaitUntil`` memo for one fold, keyed ``(pid, dist, step)``.

    A wait op depends on its key and on the fold (which counter slot
    the source iteration's PC lives in), so the memo holds one fold's
    ops only: asking for another fold replaces the table.  A search
    that walks the folds one after another then keeps one fold's ops
    alive, not every fold's.
    """
    fold = (n_counters, first_pid)
    held = loop.__dict__.get("_fold_waits")
    if held is None or held[0] != fold:
        held = loop.__dict__["_fold_waits"] = (fold, {})
    return held[1]


class ProcessOrientedLoop(InstrumentedLoop):
    """A loop synchronized with process counters."""

    def __init__(self, scheme: ProcessOrientedScheme, loop: Loop,
                 graph: DependenceGraph, plan: SyncPlan) -> None:
        super().__init__(scheme, loop, graph)
        self.plan = plan
        self.counters = ProcessCounterFile(
            n_counters=scheme.n_counters, first_pid=1,
            split_fields=scheme.split_fields,
            split_order=scheme.split_order)
        #: the counters are allocated first on a fresh fabric, so their
        #: variable ids (slot order from 0) are known here (asserted in
        #: build_fabric) and every static piece of the op stream -- wait
        #: ops, guard outcomes, statement instances -- compiles once at
        #: instrument time.
        self.recompile()

    @property
    def arcs(self) -> List[SyncArc]:
        """The arcs the sync plan was compiled from."""
        return self.plan.arcs

    def _compile(self, pid: int) -> list:
        """``(waits, compiled, stmt_plan)`` per plan statement.

        ``compiled`` is None where the guard skips the statement.  Wait
        ops come from the loop's memo for this fold (see
        :func:`fold_waits`), so placements of one loop that share a
        fold share their ``WaitUntil`` objects.
        """
        first_pid = self.counters.first_pid
        n = self.counters.n_counters
        memo = fold_waits(self.loop, n, first_pid)
        instances = statement_instances(self.loop, pid)
        program = []
        for stmt_plan in self.plan.statements:
            waits = []
            for wait in stmt_plan.waits:
                source = pid - wait.dist
                if source < first_pid:
                    # loop-boundary sink: no source iteration, no wait
                    continue
                key = (pid, wait.dist, wait.step)
                op = memo.get(key)
                if op is None:
                    op = memo[key] = WaitUntil(
                        (source - first_pid) % n,
                        pc_at_least((source, wait.step)),
                        reason=f"wait_PC({wait.dist},{wait.step}) by p{pid}")
                waits.append(op)
            program.append((tuple(waits), instances[stmt_plan.sid],
                            stmt_plan))
        return program

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        scheme = self.scheme
        if scheme.fabric == "cached":
            # section 6's coherent-cache option: PCs as cacheable
            # memory words with write-invalidate coherence
            fabric: SyncFabric = CachedSyncFabric(memory,
                                                  **scheme.fabric_kwargs)
        else:
            fabric = BroadcastSyncFabric(coverage=scheme.coverage,
                                         **scheme.fabric_kwargs)
        self.counters.allocate(fabric)
        assert self.counters._vars == range(0, self.counters.n_counters), \
            "fabric allocation drifted from the compiled wait ops"
        return fabric

    @property
    def needs_counters(self) -> bool:
        """A DOALL plan emits no waits or marks: no counters needed."""
        return self.plan.n_sources > 0

    def prologue(self) -> List[Generator]:
        """Counter initialization: X broadcast writes, if charged.

        The paper's point is that initializing X registers is negligible
        next to initializing one key per array element; charging it makes
        the comparison honest.  A DOALL needs no counters at all.
        """
        if not self.scheme.charge_init or not self.needs_counters:
            return []

        def init() -> Generator:
            for slot in range(self.counters.n_counters):
                pid = self.counters.initial_owner(slot)
                yield SyncWrite(self.counters.var_of(pid), (pid, 0))

        return [init()]

    @property
    def sync_vars(self) -> int:
        return self.counters.n_counters if self.needs_counters else 0

    # ------------------------------------------------------------------
    # emission, one generator per iteration
    # ------------------------------------------------------------------

    def _body(self, pid: int,
              checkpoint: Optional[dict] = None) -> Generator:
        """One iteration's op stream in either primitive style.

        Waits, data ops, fences and the step cursor are the same for
        both styles; ``style`` picks only how a source signals.

        A replay resumes past the iteration's already-published PC
        updates: each counter write carries a checkpoint naming the next
        plan position plus the ownership state (``acquired``/``owned``,
        ``last_step``).  Replay walks the plan from the top so the step
        cursor is recomputed deterministically, but emits nothing for
        positions before the journalled one: their data ops committed
        before the journalled signal (program order), and un-published
        marks there are signed off by the journalled (higher) step or by
        the final transfer, exactly as in lazy-mark mode.
        """
        basic = self.scheme.style == "basic"
        checkpoints = self.checkpoints_enabled
        cursor = StepCursor(self.plan.n_sources,
                            eager=self.scheme.eager_branch_marks)
        # basic: whether get_PC has run.  improved: load_index -- myPC
        # and the owned flag live in processor registers.
        acquired = False
        primitives = ImprovedPrimitives(self.counters, pid)
        skip_stmt = 0
        if checkpoint:
            skip_stmt = checkpoint["stmt"]
            acquired = bool(checkpoint.get("acquired"))
            primitives.owned = bool(checkpoint.get("owned"))
            primitives.last_step = checkpoint.get("last_step", 0)
        for stmt_pos, (waits, compiled,
                       stmt_plan) in enumerate(self._programs[pid]):
            replay_skip = stmt_pos < skip_stmt
            if not replay_skip:
                for op in waits:
                    yield op
                if compiled is not None:
                    # inlined CompiledStatement.stream (same op sequence)
                    yield compiled.tag_op
                    values = []
                    for read_op in compiled.read_ops:
                        value = yield read_op
                        values.append(value)
                    yield compiled.compute_op
                    result = mix(compiled.sid, compiled.lpid, values)
                    for addr in compiled.write_addrs:
                        yield MemWrite(addr, result)
                    yield _CLEAR_TAG
            if stmt_plan.source_step is None:
                continue
            # Requirement (1) of section 2.2: the source's effect must be
            # globally visible before its completion is signalled.  The
            # fence runs even when a guard skipped this source: arc
            # pruning lets sinks infer *earlier* statements' completion
            # from this step, so their posted writes must drain before
            # the step is published.  (No outstanding writes: free.)
            if not replay_skip:
                yield _FENCE
            step = cursor.advance(compiled is not None)
            if replay_skip:
                continue  # signal landed pre-crash; cursor stays in sync
            last = stmt_plan.is_last_source
            if last:
                step = cursor.published
            elif step is None:
                continue
            payload = None
            if checkpoints:
                payload = {"iter": pid, "stmt": stmt_pos + 1}
                if basic:
                    payload["acquired"] = True
                else:
                    payload["owned"] = True
                    payload["last_step"] = step
            if basic:
                if not acquired:
                    yield from get_pc(self.counters, pid)
                    acquired = True
                if last:
                    yield from release_pc(self.counters, pid,
                                          current_step=step,
                                          checkpoint=payload)
                else:
                    yield from set_pc(self.counters, pid, step,
                                      checkpoint=payload)
            elif last:
                primitives.last_step = step
                yield from primitives.transfer_pc(checkpoint=payload)
            else:
                yield from primitives.mark_pc(step, checkpoint=payload)


class ProcessOrientedScheme(SyncScheme):
    """Factory for process-counter synchronization.

    Parameters
    ----------
    n_counters:
        X, the number of hardware process counters; default: the paper's
        sizing rule (power of two, ``2 * processors``).
    style:
        ``"basic"`` (Fig. 4.2) or ``"improved"`` (Fig. 4.3).
    split_fields / split_order:
        Model the two PC fields as separate bus writes (section 6).
    eager_branch_marks:
        Publish steps for skipped sources immediately (Example 3's
        "inform the sinks to proceed as soon as possible").
    coverage:
        Enable the bus write-coverage optimization.
    fabric:
        Where the counters live: ``"broadcast"`` (dedicated bus with
        local register images, the Alliant-style default) or
        ``"cached"`` (section 6's coherent-cache option:
        :class:`~repro.sim.cache_fabric.CachedSyncFabric`).
    fabric_kwargs:
        Extra fabric timing parameters (``bus_service``, ``propagation``,
        ``issue_cost`` for broadcast; ``poll_interval``, ``capacity`` for
        cached) for hardware ablations.
    prune:
        Dependence-coverage pruning mode: "exact" (default) or "none".
    charge_init:
        Whether to simulate the X-register initialization prologue.
    """

    name = "process-oriented"
    supports_variable_index = True

    def __init__(self, n_counters: Optional[int] = None,
                 style: str = "improved",
                 processors: int = 8,
                 split_fields: bool = False,
                 split_order: str = "step_first",
                 eager_branch_marks: bool = True,
                 coverage: bool = True,
                 prune: str = "exact",
                 charge_init: bool = True,
                 fabric_kwargs: Optional[dict] = None,
                 fabric: str = "broadcast") -> None:
        if style not in ("basic", "improved"):
            raise ValueError(f"unknown primitive style {style!r}")
        if fabric not in ("broadcast", "cached"):
            raise ValueError(f"unknown fabric {fabric!r}")
        self.fabric = fabric
        self.n_counters = n_counters or choose_counters(processors)
        self.style = style
        self.split_fields = split_fields
        self.split_order = split_order
        self.eager_branch_marks = eager_branch_marks
        self.coverage = coverage
        self.prune = prune
        self.charge_init = charge_init
        self.fabric_kwargs = dict(fabric_kwargs or {})

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None,
                   arcs: Optional[List[SyncArc]] = None
                   ) -> ProcessOrientedLoop:
        graph = graph or DependenceGraph(loop)
        plan = build_sync_plan(loop, graph, prune=self.prune, arcs=arcs)
        return ProcessOrientedLoop(self, loop, graph, plan)
