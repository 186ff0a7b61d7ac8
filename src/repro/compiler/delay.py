"""Analytic DOACROSS delay model (Cytron, ICPP 1986 -- the paper's [8]).

"Depending on the amount of time a processor has to wait for another
processor to satisfy the data dependence, it may not be desirable to run
a loop concurrently.  A compiler is required to perform thorough data
dependence analysis on the loop to determine which loop should be a
Doacross loop."

This module is that analysis: it computes the *doacross delay* -- the
minimum stagger ``Delta`` between the starts of consecutive iterations
that satisfies every synchronization arc -- and from it a predicted
parallel execution time, which the tests cross-check against the
simulator.

Model: statements execute sequentially inside an iteration; statement
``s`` starts at offset ``t_start(s)`` and finishes at ``t_end(s)``
(prefix sums of costs).  An arc ``a -> b`` with linear distance ``d``
requires ``i*Delta + t_start(b) >= (i-d)*Delta + t_end(a)``, i.e.::

    Delta >= (t_end(a) - t_start(b)) / d

The loop's delay is the maximum over all enforced arcs (at least 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop


@dataclass(frozen=True)
class DelayReport:
    """Result of the doacross-delay analysis for one loop."""

    #: minimum start-to-start stagger between consecutive iterations
    delay: float
    #: cycles of one full iteration (sum of statement costs)
    iteration_time: int
    #: the arc that determines the delay (None for a DOALL)
    critical_arc: Optional[str]
    #: number of enforced arcs considered
    n_arcs: int

    @property
    def parallelism_bound(self) -> float:
        """Max useful processors: iterations in flight at saturation."""
        if self.delay == 0:
            return math.inf
        return self.iteration_time / self.delay

    def predicted_makespan(self, n_iterations: int,
                           processors: int) -> float:
        """Predicted parallel time on ``processors`` CPUs.

        The loop is limited either by the dependence pipeline
        (``(n-1) * delay + iteration_time``) or by throughput
        (``ceil(n / P) * iteration_time``), whichever is larger.
        """
        pipeline = (n_iterations - 1) * self.delay + self.iteration_time
        throughput = math.ceil(n_iterations / processors) * \
            self.iteration_time
        return max(pipeline, throughput)

    def predicted_speedup(self, n_iterations: int,
                          processors: int) -> float:
        serial = n_iterations * self.iteration_time
        return serial / self.predicted_makespan(n_iterations, processors)


def statement_offsets(loop: Loop) -> Dict[str, Tuple[int, int]]:
    """(start, end) offsets of each statement inside one iteration.

    Uses the statement's cost at the loop's first iteration; guarded and
    data-dependent costs make the analysis approximate, as it is in a
    real compiler.
    """
    first = loop.index_of_lpid(1)
    offsets: Dict[str, Tuple[int, int]] = {}
    clock = 0
    for stmt in loop.body:
        cost = stmt.cost_at(first)
        offsets[stmt.sid] = (clock, clock + cost)
        clock += cost
    return offsets


def doacross_delay(loop: Loop,
                   graph: Optional[DependenceGraph] = None,
                   arcs: Optional[Sequence[SyncArc]] = None) -> DelayReport:
    """Compute the loop's doacross delay and the critical arc."""
    graph = graph or DependenceGraph(loop)
    if arcs is None:
        arcs = graph.pruned_sync_arcs()
    offsets = statement_offsets(loop)
    iteration_time = max((end for _start, end in offsets.values()),
                         default=0)

    delay = 0.0
    critical = None
    for arc in arcs:
        _src_start, src_end = offsets[arc.src]
        dst_start, _dst_end = offsets[arc.dst]
        required = (src_end - dst_start) / arc.distance
        if required > delay:
            delay = required
            critical = str(arc)
    return DelayReport(delay=delay, iteration_time=iteration_time,
                       critical_arc=critical, n_arcs=len(arcs))


def worth_doacross(loop: Loop, processors: int,
                   graph: Optional[DependenceGraph] = None,
                   threshold: float = 1.2) -> bool:
    """Should this loop run concurrently at all?

    A DOACROSS is worthwhile when its predicted speedup over serial
    execution exceeds ``threshold``; otherwise the compiler should leave
    the loop serial ("it may not be desirable to run a loop
    concurrently").
    """
    report = doacross_delay(loop, graph)
    return report.predicted_speedup(loop.n_iterations,
                                    processors) >= threshold
