"""Synchronization planning: loop + dependence graph -> Fig. 4.2(b).

Given a DOACROSS loop and its (pruned) synchronization arcs, this module
computes *where* the process-oriented primitives go:

* source statements are numbered 1..K in textual order; completing source
  ``k`` publishes step ``k`` (``set_PC(k)`` / ``mark_PC(k)``),
* the *last* source publishes by releasing the counter instead
  (``release_PC`` / ``transfer_PC``), whose value ``<pid+X, 0>`` exceeds
  every ``<pid, step>``,
* before each sink statement, one ``wait_PC(dist, step_of(source))`` per
  incoming arc,
* a statement that is both source and sink behaves as a sink first.

The plan is pure data; :mod:`repro.schemes.process_oriented` turns it
into executable instrumented processes.  For the paper's running example
the plan reproduces Fig. 4.2(b) exactly (see the unit tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop


@dataclass(frozen=True)
class PlannedWait:
    """One ``wait_PC(dist, step)`` to execute before a sink statement."""

    dist: int
    step: int
    #: source statement, for readable plans and traces
    src: str

    def __str__(self) -> str:
        return f"wait_PC({self.dist},{self.step})  /* {self.src} */"


@dataclass(frozen=True)
class StatementPlan:
    """Synchronization actions wrapped around one statement."""

    sid: str
    waits: Tuple[PlannedWait, ...]
    #: step to publish after this statement (None: not a source)
    source_step: Optional[int]
    #: True when publication is by releasing/transferring the counter
    is_last_source: bool


@dataclass
class SyncPlan:
    """Complete synchronization plan for one DOACROSS loop."""

    loop: Loop
    arcs: List[SyncArc]
    statements: List[StatementPlan]
    step_of: Dict[str, int]
    n_sources: int

    @property
    def last_source(self) -> Optional[str]:
        for plan in self.statements:
            if plan.is_last_source:
                return plan.sid
        return None

    @property
    def max_wait_distance(self) -> int:
        """The farthest-back process any sink waits on (bounds X)."""
        return max((w.dist for plan in self.statements for w in plan.waits),
                   default=0)

    def pseudocode(self) -> str:
        """Render the plan the way Fig. 4.2(b) prints the loop body."""
        lines = [f"doacross i = {self.loop.bounds[0][0]}, "
                 f"{self.loop.bounds[0][1]}"]
        for plan in self.statements:
            for wait in plan.waits:
                lines.append(f"  wait_PC({wait.dist}, {wait.step});"
                             f"  /* until i-{wait.dist} completes "
                             f"{wait.src} */")
            lines.append(f"  {plan.sid}(i);")
            if plan.source_step is not None:
                if plan.is_last_source:
                    lines.append("  release_PC();  /* last source */")
                else:
                    lines.append(f"  set_PC({plan.source_step});")
        lines.append("end doacross")
        return "\n".join(lines)


def build_sync_plan(loop: Loop,
                    graph: Optional[DependenceGraph] = None,
                    prune: str = "exact",
                    arcs: Optional[List[SyncArc]] = None) -> SyncPlan:
    """Compute the process-oriented synchronization plan for ``loop``.

    ``prune`` selects the coverage-pruning mode (see
    :meth:`repro.depend.graph.DependenceGraph.pruned_sync_arcs`); pass
    ``prune="none"`` to enforce every arc (used by ablation benches).
    An explicit ``arcs`` list overrides pruning entirely -- the
    redundant-sync eliminator uses it to plan from a reduced arc set.
    """
    graph = graph or DependenceGraph(loop)
    if arcs is None:
        arcs = graph.pruned_sync_arcs(mode=prune)

    source_sids = graph.sources(arcs)
    step_of = {sid: number for number, sid in enumerate(source_sids, start=1)}
    n_sources = len(source_sids)
    last_source = source_sids[-1] if source_sids else None

    statements: List[StatementPlan] = []
    for stmt in loop.body:
        waits = tuple(sorted(
            (PlannedWait(dist=arc.distance, step=step_of[arc.src],
                         src=arc.src)
             for arc in graph.incoming(stmt.sid, arcs)),
            key=lambda w: (w.step, w.dist)))
        statements.append(StatementPlan(
            sid=stmt.sid,
            waits=waits,
            source_step=step_of.get(stmt.sid),
            is_last_source=(stmt.sid == last_source)))
    return SyncPlan(loop=loop, arcs=list(arcs), statements=statements,
                    step_of=step_of, n_sources=n_sources)
