"""Cost-model-guided synchronization placement optimizer.

Liao-style compiler-directed synchronization optimization (PAPERS.md)
with the verifier as the judge: an arc is redundant iff the placement
built *without* it still proves every dependence instance covered
(Midkiff/Padua-style transitive reduction, but program order, the
remaining arcs and scheme structure such as counter folding's ownership
chain all count, because the verifier reasons about the compiled
placement rather than the arc set).  The optimizer applies to the two
arc-driven schemes (statement-oriented and process-oriented) and
searches over **(scheme configuration, fold factor X, eliminated-arc
subset)** per loop, scoring every candidate with the analytic
:mod:`repro.compiler.cost_model` estimates and admitting only
candidates the static verifier proves clean (:func:`arc_gate`), with
the vector-clock sanitizer as the dynamic admission gate on each
surviving configuration.  Alongside, it runs the single greedy
farthest-first pass over the input configuration as the baseline the
search has to beat.

Why cost-guided beats farthest-first: a statement-oriented Await on an
arc of distance ``d`` executes ``n - d`` times, so dropping a *short*
redundant arc saves more dynamic sync ops than dropping a long one --
the opposite of the farthest-first order.  And for the process-oriented
scheme the fold factor is itself a lever: a smaller X costs fewer
counters and initialization writes, and changes which arcs the fold's
ownership chain covers (the paper's fold-chain loop drops its d=5 arc
at X=4 but not at X=16).

The result is a schema-versioned :class:`OptimizationReport`: the
chosen placement, sync-op and predicted-cycle deltas against both the
unoptimized placement and the farthest-first baseline, and a
per-candidate audit trail of every trial the search scored.  Winners
are validated by :func:`validate_optimization`: byte-identical
simulator replay (both placements must validate against the sequential
semantics and produce identical final array state) plus a sweep-cell
style comparison of the two runs' headline metrics.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..compiler.cost_model import (estimate_process_oriented,
                                   estimate_statement_oriented)
from ..compiler.delay import doacross_delay
from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..schemes.base import InstrumentedLoop, SyncScheme
from ..schemes.registry import make_scheme
from ..sim.machine import Machine, MachineConfig
from .findings import AnalysisReport, RedundantArc
from .verifier import AnalysisError, verify_instrumented

__all__ = ["ARC_SCHEMES", "OPTIMIZE_SCHEMA_VERSION", "CandidateTrial",
           "OptimizationReport", "estimate_cost",
           "arc_gate", "optimize", "validate_optimization"]

#: schemes whose placement is driven by an explicit arc list
ARC_SCHEMES = ("statement-oriented", "process-oriented")

#: bump when the OptimizationReport layout changes shape
OPTIMIZE_SCHEMA_VERSION = 1

#: analytic cycle charge per dynamic sync op / per initialization write
#: in the predicted-cycle objective (a register-fabric op is roughly a
#: couple of cycles; exact weights only break ties between placements
#: whose pipeline makespans already agree)
_SYNC_OP_CYCLES = 2.0
_INIT_WRITE_CYCLES = 2.0

#: fold factors the process-oriented search tries (the scheme's own
#: configured X is always included as well)
_FOLD_CANDIDATES = (2, 4, 8, 16)


def _arc_key(arc: SyncArc) -> str:
    return f"{arc.src}->{arc.dst} (d={arc.distance})"


def estimate_cost(scheme: SyncScheme, loop: Loop, graph: DependenceGraph,
                  arcs: List[SyncArc]):
    """Cost-model estimate of ``scheme`` compiled from ``arcs``."""
    if scheme.name == "statement-oriented":
        return estimate_statement_oriented(loop, graph, arcs=arcs)
    return estimate_process_oriented(
        loop, graph, n_counters=scheme.n_counters, arcs=arcs)


def _verdict(instrumented: InstrumentedLoop, *, window: Optional[int],
             app: str) -> Optional[AnalysisReport]:
    """The verifier's report on a placement, or ``None`` when it is not
    even analyzable (which every caller treats as "keep the arc")."""
    try:
        return verify_instrumented(instrumented, window=window, app=app,
                                   scheme_name=instrumented.scheme.name)
    except AnalysisError:
        return None


def arc_gate(loop: Loop, scheme: SyncScheme, graph: DependenceGraph,
             arcs: List[SyncArc], *, window: Optional[int],
             app: str) -> Optional[AnalysisReport]:
    """Re-instrument from ``arcs`` and statically verify the placement.

    Returns the verifier's report, or ``None`` when the reduced plan is
    not even analyzable.  The trial placement is dropped as soon as its
    verdict is in: only the verdict outlives the call.
    """
    return _verdict(scheme.instrument(loop, graph, arcs=arcs),
                    window=window, app=app)


def _fold(scheme: SyncScheme) -> Optional[int]:
    """The configuration's fold factor X (process-oriented only)."""
    return (scheme.n_counters if scheme.name == "process-oriented"
            else None)


def _gate_key(scheme: SyncScheme, arcs: List[SyncArc]) -> tuple:
    return (scheme.name, _fold(scheme),
            tuple((arc.src, arc.dst, arc.distance) for arc in arcs))


def _cached_gate(verdicts: Dict[tuple, Optional[AnalysisReport]],
                 loop: Loop, scheme: SyncScheme, graph: DependenceGraph,
                 arcs: List[SyncArc], *, window: Optional[int],
                 app: str) -> Optional[AnalysisReport]:
    """:func:`arc_gate`, computed once per arc subset of one search.

    ``verdicts`` lives for one :func:`optimize` call, where the loop,
    graph, window and app are fixed and each (scheme, fold) names one
    configuration.  Every trial list is an order-preserving subsequence
    of the instrumented arcs, so the ordered arc tuple is an exact key.
    ``None`` (unanalyzable) verdicts are cached too.
    """
    key = _gate_key(scheme, arcs)
    if key not in verdicts:
        verdicts[key] = arc_gate(loop, scheme, graph, arcs,
                                 window=window, app=app)
    return verdicts[key]


@dataclass(frozen=True)
class CandidateTrial:
    """One scored candidate in the search's audit trail."""

    scheme: str
    fold: Optional[int]            # n_counters (process-oriented only)
    action: str                    # "baseline" | "drop-arc" | "dynamic"
    arc: Optional[str]             # the arc a drop-arc trial removed
    sync_ops: int                  # cost-model estimate after the action
    predicted_cycles: float        # full objective after the action
    verdict: str                   # "accepted" | "rejected:<reason>"
    detail: str = ""


@dataclass
class OptimizationReport:
    """The optimizer's verdict for one (app, scheme) placement."""

    app: str
    scheme: str                    # input scheme name
    objective: str
    #: chosen configuration
    chosen_scheme: str
    chosen_fold: Optional[int]
    kept: List[str] = field(default_factory=list)
    dropped: List[RedundantArc] = field(default_factory=list)
    #: cost-model totals: unoptimized placement vs chosen placement
    sync_ops_before: int = 0
    sync_ops_after: int = 0
    predicted_cycles_before: float = 0.0
    predicted_cycles_after: float = 0.0
    #: the farthest-first eliminator's result on the same input, for
    #: the "does the search beat the greedy pass" comparison
    baseline: Dict[str, Any] = field(default_factory=dict)
    #: every candidate the search scored, in trial order
    audit: List[CandidateTrial] = field(default_factory=list)
    #: replay validation payload (populated by validate_optimization)
    validation: Dict[str, Any] = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        """Strictly better than the unoptimized placement."""
        return (self.sync_ops_after < self.sync_ops_before
                or self.predicted_cycles_after
                < self.predicted_cycles_before)

    @property
    def beats_baseline(self) -> bool:
        """Strictly better than farthest-first elimination."""
        base_ops = self.baseline.get("sync_ops_after")
        base_cycles = self.baseline.get("predicted_cycles_after")
        if base_ops is None:
            return False
        return (self.sync_ops_after < base_ops
                or (self.sync_ops_after == base_ops
                    and base_cycles is not None
                    and self.predicted_cycles_after < base_cycles))

    def summary(self) -> str:
        chosen = self.chosen_scheme
        if self.chosen_fold is not None:
            chosen += f"(X={self.chosen_fold})"
        return (f"{self.app} x {self.scheme}: chose {chosen}, "
                f"{len(self.dropped)} arc(s) dropped, sync ops "
                f"{self.sync_ops_before} -> {self.sync_ops_after}, "
                f"predicted cycles {self.predicted_cycles_before:.0f} "
                f"-> {self.predicted_cycles_after:.0f} "
                f"({len(self.audit)} candidates tried)")

    # -- JSON round-trip ------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema_version": OPTIMIZE_SCHEMA_VERSION,
            "app": self.app,
            "scheme": self.scheme,
            "objective": self.objective,
            "chosen_scheme": self.chosen_scheme,
            "chosen_fold": self.chosen_fold,
            "kept": list(self.kept),
            "dropped": [asdict(arc) for arc in self.dropped],
            "sync_ops_before": self.sync_ops_before,
            "sync_ops_after": self.sync_ops_after,
            "predicted_cycles_before": self.predicted_cycles_before,
            "predicted_cycles_after": self.predicted_cycles_after,
            "improved": self.improved,
            "beats_baseline": self.beats_baseline,
            "baseline": dict(self.baseline),
            "audit": [asdict(trial) for trial in self.audit],
            "validation": dict(self.validation),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "OptimizationReport":
        version = payload.get("schema_version")
        if version != OPTIMIZE_SCHEMA_VERSION:
            raise ValueError(
                f"stale optimization report: schema_version={version!r}, "
                f"expected {OPTIMIZE_SCHEMA_VERSION}")
        return cls(
            app=payload["app"],
            scheme=payload["scheme"],
            objective=payload["objective"],
            chosen_scheme=payload["chosen_scheme"],
            chosen_fold=payload["chosen_fold"],
            kept=list(payload.get("kept", [])),
            dropped=[RedundantArc(**arc)
                     for arc in payload.get("dropped", [])],
            sync_ops_before=payload["sync_ops_before"],
            sync_ops_after=payload["sync_ops_after"],
            predicted_cycles_before=payload["predicted_cycles_before"],
            predicted_cycles_after=payload["predicted_cycles_after"],
            baseline=dict(payload.get("baseline", {})),
            audit=[CandidateTrial(**trial)
                   for trial in payload.get("audit", [])],
            validation=dict(payload.get("validation", {})),
        )

    def write_json(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps(self.to_json(), sort_keys=True,
                                   indent=1, ensure_ascii=True) + "\n")

    @classmethod
    def read_json(cls, path: pathlib.Path) -> "OptimizationReport":
        return cls.from_json(json.loads(path.read_text()))


def _objective(loop: Loop, graph: DependenceGraph, scheme: SyncScheme,
               arcs: List[SyncArc], processors: int) -> tuple:
    """(sync_ops, predicted_cycles) -- lexicographic, lower is better.

    Predicted cycles are the Cytron doacross-pipeline makespan over the
    kept arcs plus analytic charges for the dynamic sync ops and the
    configuration's initialization writes, so a fold factor that keeps
    sync ops equal but halves the counters still wins its tie.
    """
    estimate = estimate_cost(scheme, loop, graph, arcs)
    makespan = doacross_delay(loop, graph, arcs=arcs).predicted_makespan(
        loop.n_iterations, processors)
    cycles = (makespan + _SYNC_OP_CYCLES * estimate.sync_ops
              + _INIT_WRITE_CYCLES * estimate.init_writes)
    return (estimate.sync_ops, cycles)


def _configurations(scheme: SyncScheme) -> List[SyncScheme]:
    """The scheme configurations the search explores."""
    if scheme.name != "process-oriented":
        return [scheme]
    folds: List[int] = []
    for x in (scheme.n_counters,) + _FOLD_CANDIDATES:
        if x >= 2 and x not in folds:
            folds.append(x)
    return [scheme if x == scheme.n_counters
            else make_scheme("process-oriented", n_counters=x)
            for x in sorted(folds)]


def _search_config(loop: Loop, graph: DependenceGraph,
                   scheme: SyncScheme, full: InstrumentedLoop, *,
                   app: str, window: Optional[int], processors: int,
                   audit: List[CandidateTrial],
                   verdicts: Dict[tuple, Optional[AnalysisReport]],
                   ) -> Optional[dict]:
    """Best-improvement greedy arc elimination for one configuration.

    ``full`` is the configuration's full placement; its verdict seeds
    ``verdicts`` under its own arcs, which re-instrument to the same
    plan.  Every round scores each single-arc removal with the cost
    model and tries them best-predicted-savings first; the first
    removal the static verifier admits is taken and the round restarts.
    Returns None when the full placement is not clean.
    """
    fold = _fold(scheme)
    arcs = list(full.arcs)
    report = verdicts[_gate_key(scheme, arcs)] = _verdict(
        full, window=window, app=app)
    score = _objective(loop, graph, scheme, arcs, processors)
    if report is None or not report.clean:
        audit.append(CandidateTrial(
            scheme=scheme.name, fold=fold, action="baseline", arc=None,
            sync_ops=score[0], predicted_cycles=score[1],
            verdict="rejected:not-clean",
            detail="" if report is None else report.summary()))
        return None
    audit.append(CandidateTrial(
        scheme=scheme.name, fold=fold, action="baseline", arc=None,
        sync_ops=score[0], predicted_cycles=score[1],
        verdict="accepted"))

    kept = list(arcs)
    dropped: List[RedundantArc] = []
    improved = True
    while improved and kept:
        improved = False
        # Score every single-arc removal; try the biggest predicted
        # saving first (for Awaits that is the *shortest* arc: it fires
        # n - d times).
        scored = sorted(
            ((_objective(loop, graph, scheme,
                         [a for a in kept if a is not arc], processors),
              arc) for arc in kept),
            key=lambda pair: (pair[0], pair[1].src, pair[1].dst))
        for trial_score, arc in scored:
            if trial_score >= score:
                break  # no removal predicts an improvement any more
            trial = [a for a in kept if a is not arc]
            trial_report = _cached_gate(verdicts, loop, scheme, graph,
                                        trial, window=window, app=app)
            if trial_report is None:
                audit.append(CandidateTrial(
                    scheme=scheme.name, fold=fold, action="drop-arc",
                    arc=_arc_key(arc), sync_ops=trial_score[0],
                    predicted_cycles=trial_score[1],
                    verdict="rejected:unanalyzable"))
                continue
            if not trial_report.clean:
                audit.append(CandidateTrial(
                    scheme=scheme.name, fold=fold, action="drop-arc",
                    arc=_arc_key(arc), sync_ops=trial_score[0],
                    predicted_cycles=trial_score[1],
                    verdict="rejected:not-clean",
                    detail=trial_report.summary()))
                continue
            audit.append(CandidateTrial(
                scheme=scheme.name, fold=fold, action="drop-arc",
                arc=_arc_key(arc), sync_ops=trial_score[0],
                predicted_cycles=trial_score[1], verdict="accepted"))
            kept = trial
            score = trial_score
            dropped.append(RedundantArc(
                src_sid=arc.src, dst_sid=arc.dst,
                distance=arc.distance,
                detail="cost-guided: placement verifies clean without "
                       "this arc"))
            improved = True
            break
    return {"scheme": scheme, "fold": fold, "kept": kept,
            "dropped": dropped, "score": score}


def _farthest_first(loop: Loop, scheme: SyncScheme, graph: DependenceGraph,
                    instrumented: Any, *, window: Optional[int], app: str,
                    verdicts: Dict[tuple, Optional[AnalysisReport]],
                    ) -> Tuple[List[SyncArc], List[SyncArc]]:
    """(kept, dropped) arcs of one greedy farthest-first pass.

    Farthest-reaching arcs go first: they are the ones transitivity
    through shorter arcs (or the fold's ownership chain) can cover.  An
    arc stays dropped only if the placement still verifies clean
    without it; a placement that is not clean to begin with keeps all.
    """
    kept = list(instrumented.arcs)
    dropped: List[SyncArc] = []
    # The search verified this very placement and memoized its verdict
    # under its own arcs; an unanalyzable one is verified again to
    # raise the verifier's own error.
    report = _cached_gate(verdicts, loop, scheme, graph, kept,
                          window=window, app=app)
    if report is None:
        report = verify_instrumented(instrumented, window=window, app=app,
                                     scheme_name=scheme.name)
    if not report.clean:
        return kept, dropped
    for arc in sorted(kept, key=lambda a: (-a.distance, a.src, a.dst)):
        trial = [other for other in kept if other is not arc]
        report = _cached_gate(verdicts, loop, scheme, graph, trial,
                              window=window, app=app)
        if report is not None and report.clean:
            kept = trial
            dropped.append(arc)
    return kept, dropped


def optimize(loop: Loop, scheme: SyncScheme, *,
             graph: Optional[DependenceGraph] = None,
             instrumented: Optional[InstrumentedLoop] = None,
             app: str = "?",
             window: Optional[int] = None,
             processors: int = 8) -> OptimizationReport:
    """Search (configuration, fold, arc subset) for the best placement.

    The unoptimized input placement is always a member of the search
    space, so the chosen placement is never worse than it under the
    objective; ``baseline`` records what farthest-first elimination
    would have done instead.  The winning configuration must also
    survive a sanitized maximally-parallel run before it is admitted.

    ``instrumented`` is the input placement, ``scheme``'s full
    instrumentation of ``loop``, when the caller has already built it
    (a sweep cell runs it afterwards); it is only read, and the search
    uses its graph.
    """
    if scheme.name not in ARC_SCHEMES:
        raise AnalysisError(
            f"scheme {scheme.name!r} is not arc-driven; optimization "
            f"applies to {ARC_SCHEMES}")
    if instrumented is None:
        instrumented = scheme.instrument(loop, graph)
    graph = instrumented.graph
    audit: List[CandidateTrial] = []
    verdicts: Dict[tuple, Optional[AnalysisReport]] = {}

    candidates = []
    for config in _configurations(scheme):
        # a configuration's full placement lives for its search only
        found = _search_config(
            loop, graph, config,
            instrumented if config is scheme
            else config.instrument(loop, graph),
            app=app, window=window, processors=processors,
            audit=audit, verdicts=verdicts)
        if found is not None:
            candidates.append(found)
    if not candidates:
        raise AnalysisError(
            f"{app} x {scheme.name}: no configuration verifies clean; "
            f"nothing to optimize")
    candidates.sort(key=lambda c: c["score"])

    from .sanitizer import dynamic_check
    winner = None
    for candidate in candidates:
        config = candidate["scheme"]
        verdict = dynamic_check(config.instrument(loop, graph,
                                                  arcs=candidate["kept"]))
        trial = CandidateTrial(
            scheme=config.name, fold=candidate["fold"],
            action="dynamic", arc=None,
            sync_ops=candidate["score"][0],
            predicted_cycles=candidate["score"][1],
            verdict=("accepted" if not verdict.killed
                     else f"rejected:{verdict.verdict}"),
            detail=verdict.detail[:200])
        audit.append(trial)
        if not verdict.killed:
            winner = candidate
            break
    if winner is None:
        raise AnalysisError(
            f"{app} x {scheme.name}: every statically-clean "
            f"candidate was killed by the dynamic oracle")

    # Deltas against the *unoptimized* input placement.
    input_arcs = list(instrumented.arcs)
    ops_before, cycles_before = _objective(loop, graph, scheme,
                                           input_arcs, processors)

    # Farthest-first baseline on the same input, summarized with its
    # own objective value so beats_baseline is apples to apples.
    kept, dropped = _farthest_first(loop, scheme, graph, instrumented,
                                    window=window, app=app,
                                    verdicts=verdicts)
    base_ops, base_cycles = _objective(loop, graph, scheme, kept,
                                       processors)
    baseline = {"sync_arcs": len(input_arcs), "sync_arcs_after": len(kept),
                "sync_ops_before": ops_before, "sync_ops_after": base_ops,
                "dropped": [_arc_key(arc) for arc in dropped],
                "predicted_cycles_after": base_cycles}

    return OptimizationReport(
        app=app, scheme=scheme.name, objective="(sync_ops, cycles)",
        chosen_scheme=winner["scheme"].name, chosen_fold=winner["fold"],
        kept=[_arc_key(arc) for arc in winner["kept"]],
        dropped=winner["dropped"],
        sync_ops_before=ops_before,
        sync_ops_after=winner["score"][0],
        predicted_cycles_before=cycles_before,
        predicted_cycles_after=winner["score"][1],
        baseline=baseline, audit=audit)


def _rebuild(loop: Loop, graph: DependenceGraph, scheme: SyncScheme,
             report: OptimizationReport):
    """Re-instrument the report's chosen placement."""
    if report.chosen_scheme == scheme.name and (
            report.chosen_fold is None
            or report.chosen_fold == getattr(scheme, "n_counters", None)):
        chosen = scheme
    else:
        kwargs = ({"n_counters": report.chosen_fold}
                  if report.chosen_fold is not None else {})
        chosen = make_scheme(report.chosen_scheme, **kwargs)
    instrumented = chosen.instrument(loop, graph)
    arcs = [arc for arc in instrumented.arcs
            if _arc_key(arc) in set(report.kept)]
    return chosen.instrument(loop, graph, arcs=arcs)


def validate_optimization(loop: Loop, scheme: SyncScheme,
                          report: OptimizationReport, *,
                          processors: int = 8,
                          schedule: str = "self") -> Dict[str, Any]:
    """Replay both placements; byte-identical state or it does not ship.

    Runs the unoptimized input placement and the report's chosen
    placement on identical machines.  Both must validate against the
    sequential semantics and produce identical final array state
    (:class:`AnalysisError` otherwise).  Returns a sweep-cell style
    comparison of the two runs' headline metrics and stores it on
    ``report.validation``.
    """
    graph = DependenceGraph(loop)
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule))
    before = scheme.instrument(loop, graph)
    run_before = machine.run(before)
    before.validate(run_before)

    after = _rebuild(loop, graph, scheme, report)
    run_after = machine.run(after)
    after.validate(run_after)

    state_before = before.extract_final_state(run_before)
    state_after = after.extract_final_state(run_after)
    if state_before != state_after:
        raise AnalysisError(
            "optimized placement produced different final state")
    payload = {
        "final_state_identical": True,
        "makespan_before": run_before.makespan,
        "makespan_after": run_after.makespan,
        "sync_ops_before": run_before.total_sync_ops,
        "sync_ops_after": run_after.total_sync_ops,
        "cell_before": run_before.summary(),
        "cell_after": run_after.summary(),
    }
    report.validation = payload
    return payload
