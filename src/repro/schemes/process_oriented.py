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

from typing import Generator, List, Optional

from ..core.branches import StepCursor
from ..core.codegen import SyncPlan, build_sync_plan
from ..core.folding import choose_counters
from ..core.improved import ImprovedPrimitives
from ..core.primitives import get_pc, release_pc, set_pc
from ..core.process_counter import ProcessCounterFile, pc_at_least
from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import Fence, MemWrite, SyncWrite, WaitUntil
from ..sim.cache_fabric import CachedSyncFabric
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from ..sim.validate import mix
from .base import (_CLEAR_TAG, InstrumentedLoop, SyncScheme,
                   compile_statement)

_FENCE = Fence()


class ProcessOrientedLoop(InstrumentedLoop):
    """A loop synchronized with process counters."""

    def __init__(self, loop: Loop, graph: DependenceGraph, plan: SyncPlan,
                 n_counters: int, style: str, split_fields: bool,
                 split_order: str, eager_branch_marks: bool,
                 coverage: bool, charge_init: bool,
                 fabric_kwargs: Optional[dict] = None,
                 fabric: str = "broadcast") -> None:
        super().__init__(loop, graph)
        self.plan = plan
        self.style = style
        self.eager_branch_marks = eager_branch_marks
        self.coverage = coverage
        self.charge_init = charge_init
        self.fabric_kwargs = dict(fabric_kwargs or {})
        if fabric not in ("broadcast", "cached"):
            raise ValueError(f"unknown fabric {fabric!r}")
        self.fabric_kind = fabric
        self.counters = ProcessCounterFile(
            n_counters=n_counters, first_pid=1,
            split_fields=split_fields, split_order=split_order)
        self._fabric: Optional[SyncFabric] = None
        #: per-pid compiled frames: the counters are allocated first on
        #: a fresh fabric, so their variable ids (slot order from 0) are
        #: known here (asserted in build_fabric) and every static piece
        #: of the op stream -- wait ops, guard outcomes, statement
        #: instances -- compiles once at instrument time.
        self._frames: dict = {}
        self.recompile()

    def recompile(self) -> None:
        """Rebuild the per-iteration frames (after plan mutation)."""
        self._frames = {pid: self._compile_frames(pid)
                        for pid in self.iterations}

    def _compile_frames(self, pid: int) -> list:
        """``(waits, executed, compiled, stmt_plan)`` per plan statement."""
        index = self.loop.index_of_lpid(pid)
        first_pid = self.counters.first_pid
        n = self.counters.n_counters
        frames = []
        for stmt_plan in self.plan.statements:
            stmt = self.loop.statement(stmt_plan.sid)
            waits = []
            for wait in stmt_plan.waits:
                source = pid - wait.dist
                if source < first_pid:
                    # loop-boundary sink: no source iteration, no wait
                    continue
                waits.append(WaitUntil(
                    (source - first_pid) % n,
                    pc_at_least((source, wait.step)),
                    reason=f"wait_PC({wait.dist},{wait.step}) by p{pid}"))
            executed = stmt.executes_at(index)
            compiled = (compile_statement(self.loop, stmt, index, pid)
                        if executed else None)
            frames.append((tuple(waits), executed, compiled, stmt_plan))
        return frames

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        if self.fabric_kind == "cached":
            # section 6's coherent-cache option: PCs as cacheable
            # memory words with write-invalidate coherence
            fabric: SyncFabric = CachedSyncFabric(memory,
                                                  **self.fabric_kwargs)
        else:
            fabric = BroadcastSyncFabric(coverage=self.coverage,
                                         **self.fabric_kwargs)
        self.counters.allocate(fabric)
        assert self.counters._vars == range(0, self.counters.n_counters), \
            "fabric allocation drifted from the compiled wait ops"
        self._fabric = fabric
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
        if not self.charge_init or not self.needs_counters:
            return []

        def init() -> Generator:
            for slot in range(self.counters.n_counters):
                pid = self.counters.initial_owner(slot)
                yield SyncWrite(self.counters.var_of(pid), (pid, 0))

        return [init()]

    @property
    def sync_vars(self) -> int:
        return self.counters.n_counters if self.needs_counters else 0

    def make_process(self, iteration: int) -> Generator:
        return self._body(iteration)

    def make_replay_process(self, iteration: int,
                            checkpoint: Optional[dict] = None) -> Generator:
        """Resume an iteration past its already-published PC updates.

        Each counter write carries a checkpoint naming the next plan
        position plus the ownership state (``acquired``/``owned``,
        ``last_step``).  Replay walks the plan from the top so the step
        cursor is recomputed deterministically, but emits nothing for
        positions before the journalled one: their data ops committed
        before the journalled signal (program order), and un-published
        marks there are signed off by the journalled (higher) step or by
        the final transfer, exactly as in lazy-mark mode.
        """
        return self._body(iteration, restore=checkpoint)

    # ------------------------------------------------------------------
    # emission, one generator per iteration
    # ------------------------------------------------------------------

    def _body(self, pid: int, restore: Optional[dict] = None) -> Generator:
        """One iteration's op stream in either primitive style.

        Waits, data ops, fences and the step cursor are the same for
        both styles; ``style`` picks only how a source signals.
        """
        basic = self.style == "basic"
        checkpoints = self.checkpoints_enabled
        cursor = StepCursor(self.plan.n_sources,
                            eager=self.eager_branch_marks)
        # basic: whether get_PC has run.  improved: load_index -- myPC
        # and the owned flag live in processor registers.
        acquired = False
        primitives = ImprovedPrimitives(self.counters, pid)
        skip_stmt = 0
        if restore:
            skip_stmt = restore["stmt"]
            acquired = bool(restore.get("acquired"))
            primitives.owned = bool(restore.get("owned"))
            primitives.last_step = restore.get("last_step", 0)
        for stmt_pos, (waits, executed, compiled,
                       stmt_plan) in enumerate(self._frames[pid]):
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
            step = cursor.advance(executed)
            if replay_skip:
                continue  # signal landed pre-crash; cursor stays in sync
            last = stmt_plan.is_last_source
            if last:
                step = cursor.published
            elif step is None:
                continue
            checkpoint = None
            if checkpoints:
                checkpoint = {"iter": pid, "stmt": stmt_pos + 1}
                if basic:
                    checkpoint["acquired"] = True
                else:
                    checkpoint["owned"] = True
                    checkpoint["last_step"] = step
            if basic:
                if not acquired:
                    yield from get_pc(self.counters, pid)
                    acquired = True
                if last:
                    yield from release_pc(self.counters, pid,
                                          current_step=step,
                                          checkpoint=checkpoint)
                else:
                    yield from set_pc(self.counters, pid, step,
                                      checkpoint=checkpoint)
            elif last:
                primitives.last_step = step
                yield from primitives.transfer_pc(checkpoint=checkpoint)
            else:
                yield from primitives.mark_pc(step, checkpoint=checkpoint)


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
        return ProcessOrientedLoop(
            loop, graph, plan,
            n_counters=self.n_counters, style=self.style,
            split_fields=self.split_fields, split_order=self.split_order,
            eager_branch_marks=self.eager_branch_marks,
            coverage=self.coverage, charge_init=self.charge_init,
            fabric_kwargs=self.fabric_kwargs, fabric=self.fabric)
