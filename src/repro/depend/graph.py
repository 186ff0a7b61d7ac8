"""Dependence graphs, linearized distances, and coverage pruning.

The paper (section 2.1) observes that enforcing S1->S3 and S3->S4 in
Fig. 2.1 *covers* the output dependence S1->S4: its synchronization is
redundant and can be pruned.  This module builds the dependence graph,
linearizes distance vectors for coalesced nests (Example 2), and prunes
covered arcs.

Two pruning modes are offered, because soundness depends on the scheme:

``"exact"`` (default)
    Arc ``(a, b, d)`` is pruned only if some other path from ``a`` to
    ``b`` -- through enforced sync arcs plus free intra-iteration textual
    edges -- has distances summing to exactly ``d``.  Sound for every
    scheme, including the process-oriented one, where waits name a
    *specific* source iteration.
``"monotonic"``
    Paths summing to *at most* ``d`` also prune.  Sound only when every
    source statement's completions are serialized across iterations (the
    statement-oriented scheme, where ``Advance`` publishes "all
    iterations <= i done"), because then a later instance's completion
    implies every earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .analysis import Dependence, analyze
from .model import Loop
from ..sim.validate import DependenceInstance


def linear_distance(loop: Loop, distance: Tuple[int, ...]) -> int:
    """Distance in linearized process ids (Example 2's coalescing).

    For a nest with extents ``(N, M)`` a distance vector ``(di, dj)``
    becomes ``di * M + dj`` linear processes apart.
    """
    strides: List[int] = []
    stride = 1
    for extent in reversed(loop.extents):
        strides.append(stride)
        stride *= extent
    strides.reverse()
    return sum(d * s for d, s in zip(distance, strides))


@dataclass(frozen=True)
class SyncArc:
    """One synchronization requirement after linearization and dedup.

    ``distance`` is in linearized process ids; dependences of different
    types between the same statements at the same distance collapse into
    one arc ("there is no need to differentiate them when we are just
    trying to enforce the access order").
    """

    src: str
    dst: str
    distance: int
    #: the dependences this arc enforces (for reporting/validation)
    deps: Tuple[Dependence, ...] = ()

    def __str__(self) -> str:
        return f"{self.src}->{self.dst} (d={self.distance})"


class DependenceGraph:
    """Statement-level dependence graph of one loop nest."""

    def __init__(self, loop: Loop,
                 dependences: Optional[Sequence[Dependence]] = None) -> None:
        self.loop = loop
        #: a tuple, so the cached dependence instances cannot go stale
        self.dependences: Tuple[Dependence, ...] = tuple(
            dependences if dependences is not None else analyze(loop))
        self._instances: Optional[Tuple[DependenceInstance, ...]] = None

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------

    @property
    def has_unknown_distance(self) -> bool:
        """True when some dependence's distance could not be computed."""
        return any(dep.distance is None for dep in self.dependences)

    @property
    def loop_carried(self) -> List[Dependence]:
        """Dependences that cross iterations."""
        return [dep for dep in self.dependences if dep.loop_carried]

    # ------------------------------------------------------------------
    # synchronization arcs
    # ------------------------------------------------------------------

    def sync_arcs(self) -> List[SyncArc]:
        """Loop-carried dependences as deduplicated linear-distance arcs."""
        grouped: Dict[Tuple[str, str, int], List[Dependence]] = {}
        for dep in self.dependences:
            if dep.distance is None:
                raise ValueError(
                    f"cannot synchronize unknown-distance dependence {dep}")
            distance = linear_distance(self.loop, dep.distance)
            if distance == 0:
                continue  # enforced by sequential execution in-process
            if distance < 0:
                raise ValueError(
                    f"dependence {dep} has negative linearized distance "
                    f"{distance}; inner extents too small to coalesce")
            grouped.setdefault((dep.src, dep.dst, distance), []).append(dep)
        return [SyncArc(src, dst, distance, tuple(deps))
                for (src, dst, distance), deps in sorted(
                    grouped.items(),
                    key=lambda item: (self.loop.position(item[0][0]),
                                      self.loop.position(item[0][1]),
                                      item[0][2]))]

    def pruned_sync_arcs(self, mode: str = "exact") -> List[SyncArc]:
        """Sync arcs with covered (redundant) arcs removed.

        ``mode="none"`` removes nothing: every arc is enforced.
        """
        if mode not in ("exact", "monotonic", "none"):
            raise ValueError(f"unknown pruning mode {mode!r}")
        arcs = self.sync_arcs()
        if mode == "none":
            return arcs
        kept: List[SyncArc] = list(arcs)
        # Greedy elimination, largest distance first: long arcs are the
        # ones composable from short ones (S1->S4 = S1->S3 + S3->S4).
        for arc in sorted(arcs, key=lambda a: (-a.distance, a.src, a.dst)):
            others = [a for a in kept if a is not arc]
            if self._covered(arc, others, mode):
                kept = others
        kept.sort(key=lambda a: (self.loop.position(a.src),
                                 self.loop.position(a.dst), a.distance))
        return kept

    def _covered(self, arc: SyncArc, others: Sequence[SyncArc],
                 mode: str) -> bool:
        """Is ``arc`` enforced by a path through ``others`` + free edges?

        Free edges run between statements of the same iteration in
        textual order at distance 0.  The search explores states
        ``(statement, remaining distance)``.
        """
        position = {stmt.sid: index
                    for index, stmt in enumerate(self.loop.body)}
        by_src: Dict[str, List[SyncArc]] = {}
        for other in others:
            by_src.setdefault(other.src, []).append(other)

        target = arc.dst
        start = (arc.src, arc.distance, False)
        stack = [start]
        seen: Set[Tuple[str, int, bool]] = {start}
        while stack:
            node, remaining, used_sync = stack.pop()
            if node == target and used_sync:
                if remaining == 0 or (mode == "monotonic" and remaining >= 0):
                    return True
            # sync arcs out of `node`
            for other in by_src.get(node, ()):
                rest = remaining - other.distance
                if rest < 0:
                    continue
                state = (other.dst, rest, True)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
            # free textual edges to any later statement, same iteration
            for stmt in self.loop.body:
                if position[stmt.sid] > position[node]:
                    state = (stmt.sid, remaining, used_sync)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return False

    # ------------------------------------------------------------------
    # source/sink structure (for scheme code generation)
    # ------------------------------------------------------------------

    def sources(self, arcs: Optional[Sequence[SyncArc]] = None) -> List[str]:
        """Statements that are the source of >= 1 sync arc, textual order."""
        arcs = self.sync_arcs() if arcs is None else arcs
        source_sids = {arc.src for arc in arcs}
        return [stmt.sid for stmt in self.loop.body
                if stmt.sid in source_sids]

    def sinks(self, arcs: Optional[Sequence[SyncArc]] = None) -> List[str]:
        """Statements that are the sink of >= 1 sync arc, textual order."""
        arcs = self.sync_arcs() if arcs is None else arcs
        sink_sids = {arc.dst for arc in arcs}
        return [stmt.sid for stmt in self.loop.body if stmt.sid in sink_sids]

    def incoming(self, sid: str,
                 arcs: Optional[Sequence[SyncArc]] = None) -> List[SyncArc]:
        """Sync arcs whose sink is ``sid``."""
        arcs = self.sync_arcs() if arcs is None else arcs
        return [arc for arc in arcs if arc.dst == sid]

    # ------------------------------------------------------------------
    # validator support
    # ------------------------------------------------------------------

    def dependence_instances(self) -> Tuple[DependenceInstance, ...]:
        """Concrete (source tag, sink tag, address) ordering obligations.

        Tags are ``(sid, lpid)``.  Guarded statements contribute only the
        instances where both endpoints actually execute.  Enumerated on
        the first call and cached: the optimizer's every trial and the
        run's validation read the same tuple.
        """
        if self._instances is None:
            self._instances = tuple(self._enumerate_instances())
        return self._instances

    def _enumerate_instances(self) -> List[DependenceInstance]:
        kinds = {"flow": ("W", "R"), "anti": ("R", "W"),
                 "output": ("W", "W")}
        fields = {"R": "reads", "W": "writes"}
        rows = self.loop.lowered()
        row_at = {row.index: row for row in rows}
        instances: List[DependenceInstance] = []
        for dep in self.dependences:
            if dep.distance is None:
                continue
            src_kind, dst_kind = kinds[dep.dep_type]
            src_field, dst_field = fields[src_kind], fields[dst_kind]
            # an endpoint's address is its ref's slot in the lowered
            # statement's read or write tuple
            src_pos = self.loop.position(dep.src)
            dst_pos = self.loop.position(dep.dst)
            src_slot = getattr(self.loop.body[src_pos],
                               src_field).index(dep.src_ref)
            dst_slot = getattr(self.loop.body[dst_pos],
                               dst_field).index(dep.dst_ref)
            for row in rows:
                sink = row.statements[dst_pos]
                source_row = row_at.get(
                    tuple(i - d for i, d in zip(row.index, dep.distance)))
                source = source_row and source_row.statements[src_pos]
                if sink is None or source is None:
                    continue  # a guard skips an endpoint, or no source row
                addr = getattr(sink, dst_field)[dst_slot]
                if addr != getattr(source, src_field)[src_slot]:
                    continue  # distinct elements (defensive; cannot happen)
                instances.append((source.tag, sink.tag, addr, src_kind,
                                  dst_kind))
        return instances
