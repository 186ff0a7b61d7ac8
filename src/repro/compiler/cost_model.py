"""Analytic per-scheme cost estimation.

Estimates, without simulating, the resources each synchronization scheme
would spend on a loop: synchronization variables, storage words,
initialization writes, and synchronization operations per iteration.
These are the quantities the paper uses to compare the schemes in
sections 3 and 6; the estimator lets the compile pipeline
(:mod:`repro.compiler.pipeline`) choose a scheme before any simulation,
and the tests check the estimates against simulated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.folding import choose_counters
from ..depend.graph import DependenceGraph
from ..depend.model import Loop
from ..schemes.instance_based import rename
from ..schemes.reference_based import plan_accesses


@dataclass(frozen=True)
class CostEstimate:
    """Predicted static costs of one scheme on one loop."""

    scheme: str
    sync_vars: int
    storage_words: int
    init_writes: int
    #: synchronization operations over the whole loop (waits + updates)
    sync_ops: int
    #: True when busy-waiting is free local spinning (register fabric)
    free_spinning: bool
    #: True when one iteration's delay stalls all later iterations
    serializes_statements: bool

    def ops_per_iteration(self, n_iterations: int) -> float:
        return self.sync_ops / n_iterations if n_iterations else 0.0


def estimate_reference_based(loop: Loop,
                             graph: DependenceGraph) -> CostEstimate:
    """A key per touched element; every access waits and increments."""
    plan = plan_accesses(loop)
    elements = {access.addr for accesses in plan.values()
                for access in accesses}
    total_accesses = sum(len(accesses) for accesses in plan.values())
    return CostEstimate(
        scheme="reference-based",
        sync_vars=len(elements),
        storage_words=len(elements),
        init_writes=len(elements),
        sync_ops=2 * total_accesses,   # wait + increment per access
        free_spinning=False,
        serializes_statements=False)


def estimate_instance_based(loop: Loop,
                            graph: DependenceGraph) -> CostEstimate:
    """A full/empty bit (and a storage word) per instance copy."""
    instances, reads_of, writes_of = rename(loop)
    copies = sum(max(1, len(instance.readers)) for instance in instances)
    initial = sum(max(1, len(instance.readers)) for instance in instances
                  if instance.writer is None)
    n_reads = sum(len(bindings) for bindings in reads_of.values())
    n_write_copies = sum(
        len(instances[iid].copies) or max(1, len(instances[iid].readers))
        for ids in writes_of.values() for iid in ids)
    return CostEstimate(
        scheme="instance-based",
        sync_vars=copies,
        storage_words=copies,
        init_writes=initial,
        sync_ops=2 * n_reads + n_write_copies,  # wait+consume, bit sets
        free_spinning=False,
        serializes_statements=False)


def estimate_statement_oriented(loop: Loop,
                                graph: DependenceGraph,
                                arcs=None) -> CostEstimate:
    """One SC per source; Advance (wait+write) and Await per instance.

    An explicit ``arcs`` list (from the redundant-sync eliminator)
    overrides the scheme's own pruning.
    """
    if arcs is None:
        arcs = graph.pruned_sync_arcs(mode="monotonic")
    sources = {arc.src for arc in arcs}
    n = loop.n_iterations
    advances = 2 * len(sources) * n           # wait-for-turn + write
    awaits = sum(max(0, n - arc.distance) for arc in arcs)
    return CostEstimate(
        scheme="statement-oriented",
        sync_vars=len(sources),
        storage_words=len(sources),
        init_writes=len(sources),
        sync_ops=advances + awaits,
        free_spinning=True,
        serializes_statements=True)


def estimate_process_oriented(loop: Loop, graph: DependenceGraph,
                              processors: int = 8,
                              n_counters: Optional[int] = None,
                              arcs=None) -> CostEstimate:
    """X counters; per iteration: marks, one transfer, and the waits.

    An explicit ``arcs`` list (from the redundant-sync eliminator)
    overrides the scheme's own pruning.
    """
    if arcs is None:
        arcs = graph.pruned_sync_arcs(mode="exact")
    sources = {arc.src for arc in arcs}
    x = n_counters or choose_counters(processors)
    n = loop.n_iterations
    marks = max(0, len(sources) - 1) * n      # non-final sources
    transfers = n if sources else 0
    waits = sum(max(0, n - arc.distance) for arc in arcs)
    return CostEstimate(
        scheme="process-oriented",
        sync_vars=x,
        storage_words=x,
        init_writes=x,
        sync_ops=marks + transfers + waits,
        free_spinning=True,
        serializes_statements=False)


def estimate_all(loop: Loop, graph: Optional[DependenceGraph] = None,
                 processors: int = 8) -> Dict[str, CostEstimate]:
    """Estimates for every scheme, keyed by registry name."""
    graph = graph or DependenceGraph(loop)
    return {
        "reference-based": estimate_reference_based(loop, graph),
        "instance-based": estimate_instance_based(loop, graph),
        "statement-oriented": estimate_statement_oriented(loop, graph),
        "process-oriented": estimate_process_oriented(
            loop, graph, processors=processors),
    }
