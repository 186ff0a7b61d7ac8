"""The concurrentizing-compiler pipeline.

"First, it can be incorporated into a concurrentizing compiler using
algorithms similar to [Midkiff & Padua]."  (section 5)

:func:`compile_loop` chains the repository's pieces the way such a
compiler would:

1. dependence analysis and classification (DOALL / DOACROSS / serial),
2. doacross-delay analysis -- is concurrent execution worthwhile at all?
3. per-scheme cost estimation,
4. scheme selection under an objective ("time", "storage", "traffic"),
5. instrumentation of the loop with the chosen scheme.

The result carries everything a caller needs to simulate or inspect the
decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..depend.classify import Classification, DOACROSS, DOALL, SERIAL, classify
from ..depend.graph import DependenceGraph
from ..depend.model import Loop
from ..schemes.base import InstrumentedLoop
from ..schemes.registry import make_scheme, scheme_names
from .cost_model import CostEstimate, estimate_all
from .delay import DelayReport, doacross_delay

#: selection objectives and the estimate field they minimize
_OBJECTIVES = ("time", "storage", "traffic")

#: with ``serialize_unprofitable``, DOACROSS loops whose predicted
#: speedup falls below this run serially
PROFITABILITY_THRESHOLD = 1.2


class CompileError(ValueError):
    """The loop cannot be compiled as requested."""


@dataclass
class CompileResult:
    """Everything the pipeline decided about one loop."""

    loop: Loop
    graph: DependenceGraph
    classification: Classification
    delay: Optional[DelayReport]
    estimates: Dict[str, CostEstimate]
    chosen_scheme: str
    instrumented: Optional[InstrumentedLoop]
    #: why the scheme was chosen, for the report
    rationale: str

    @property
    def runs_parallel(self) -> bool:
        return self.classification.label != SERIAL

    def explain(self) -> str:
        """Human-readable compilation report."""
        lines = [f"loop {self.loop.name!r}: "
                 f"{self.classification.label} "
                 f"({self.classification.reason})"]
        if self.delay is not None:
            lines.append(
                f"doacross delay {self.delay.delay:.1f} cycles / "
                f"iteration {self.delay.iteration_time}; parallelism "
                f"bound {self.delay.parallelism_bound:.1f} "
                f"(critical arc: {self.delay.critical_arc})")
        for name, estimate in self.estimates.items():
            marker = " <== chosen" if name == self.chosen_scheme else ""
            lines.append(
                f"  {name:20s} vars={estimate.sync_vars:<6d} "
                f"ops={estimate.sync_ops:<8d} "
                f"init={estimate.init_writes:<6d}"
                f"{marker}")
        lines.append(f"rationale: {self.rationale}")
        return "\n".join(lines)


def _score(estimate: CostEstimate, objective: str,
           n_iterations: int) -> tuple:
    """Lower is better.  Ties break toward fewer variables."""
    if objective == "storage":
        return (estimate.storage_words + estimate.init_writes,
                estimate.sync_ops)
    if objective == "traffic":
        return (estimate.sync_ops + estimate.init_writes,
                estimate.storage_words)
    # "time": free spinning dominates, then per-iteration operations,
    # then the serialization hazard, then initialization.
    return (0 if estimate.free_spinning else 1,
            1 if estimate.serializes_statements else 0,
            estimate.ops_per_iteration(n_iterations),
            estimate.init_writes)


def compile_loop(loop: Loop, processors: int = 8,
                 objective: str = "time",
                 candidates: Optional[Sequence[str]] = None,
                 force_scheme: Optional[str] = None,
                 serialize_unprofitable: bool = False) -> CompileResult:
    """Classify, analyze, choose a scheme, and instrument ``loop``.

    With ``serialize_unprofitable`` the pipeline also refuses DOACROSS
    execution whose *predicted* speedup falls below
    :data:`PROFITABILITY_THRESHOLD` -- the paper's "it may not be desirable
    to run a loop concurrently" decision, driven by the delay model.
    """
    if objective not in _OBJECTIVES:
        raise CompileError(f"unknown objective {objective!r}; "
                           f"choose from {_OBJECTIVES}")
    graph = DependenceGraph(loop)
    classification = classify(loop, graph)

    if classification.label == SERIAL:
        return CompileResult(
            loop=loop, graph=graph, classification=classification,
            delay=None, estimates={}, chosen_scheme="serial",
            instrumented=None,
            rationale="unknown dependence distance: run serially")

    delay = doacross_delay(loop, graph)
    if (serialize_unprofitable and classification.label == DOACROSS
            and force_scheme is None
            and delay.predicted_speedup(loop.n_iterations, processors)
            < PROFITABILITY_THRESHOLD):
        return CompileResult(
            loop=loop, graph=graph, classification=classification,
            delay=delay, estimates={}, chosen_scheme="serial",
            instrumented=None,
            rationale=(f"predicted speedup "
                       f"{delay.predicted_speedup(loop.n_iterations, processors):.2f}"
                       f" < {PROFITABILITY_THRESHOLD}: concurrent "
                       f"execution not worthwhile"))
    estimates = estimate_all(loop, graph, processors=processors)

    names = list(candidates) if candidates else scheme_names()
    unknown = set(names) - set(estimates)
    if unknown:
        raise CompileError(f"unknown candidate scheme(s): {sorted(unknown)}")

    if force_scheme is not None:
        if force_scheme not in estimates:
            raise CompileError(f"unknown scheme {force_scheme!r}")
        chosen = force_scheme
        rationale = "forced by caller"
    elif classification.label == DOALL:
        # No sync arcs: the process-oriented instrumentation degenerates
        # to the bare loop, so it is the free choice.
        chosen = "process-oriented"
        rationale = "DOALL: no synchronization emitted"
    else:
        ranked = sorted(names,
                        key=lambda name: _score(estimates[name], objective,
                                                loop.n_iterations))
        chosen = ranked[0]
        rationale = (f"minimizes {objective} among {names}: "
                     f"score {_score(estimates[chosen], objective, loop.n_iterations)}")

    scheme = make_scheme(chosen) if chosen != "process-oriented" else \
        make_scheme(chosen, processors=processors)
    instrumented = scheme.instrument(loop, graph)
    return CompileResult(
        loop=loop, graph=graph, classification=classification,
        delay=delay, estimates=estimates, chosen_scheme=chosen,
        instrumented=instrumented, rationale=rationale)
