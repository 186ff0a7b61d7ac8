"""Static race/deadlock verification and redundant-sync elimination.

The paper's claim is that each scheme's sync-op placement enforces every
cross-iteration dependence.  This package proves it *statically*: the
placement is dry-run into a per-iteration op stream, unrolled over a
bounded iteration window into a happens-before graph, and every arc of
:class:`repro.depend.graph.DependenceGraph` is checked for coverage.
Uncovered arcs become :class:`RaceFinding`\\ s with concrete witness
iterations, unsatisfiable waits become :class:`DeadlockFinding`\\ s.  A
dynamic vector-clock sanitizer (:mod:`repro.analyze.sanitizer`)
cross-checks the static verdict on real engine traces.  On top of both,
:mod:`repro.analyze.optimize` drops sync arcs already implied by the
rest: it searches (scheme configuration, fold factor, arc subset) with
cost-model scoring, the verifier as admission gate and the sanitizer as
dynamic gate, reports a farthest-first greedy pass as its baseline, and
emits schema-versioned :class:`OptimizationReport`\\ s.
"""

from .findings import (ANALYZE_SCHEMA_VERSION, AnalysisReport,
                       DeadlockFinding, RaceFinding, RedundantArc)
from .verifier import AnalysisError, verify, verify_instrumented
from .mutate import Mutant, apply_mutant, enumerate_mutants, kill_mutant
from .sanitizer import (DynamicVerdict, check_trace, dynamic_check,
                        event_stream)
from .optimize import (OPTIMIZE_SCHEMA_VERSION, OptimizationReport,
                       arc_gate, estimate_cost, optimize, placement_arcs,
                       validate_optimization)
from .gate import GateResult, gate

__all__ = [
    "ANALYZE_SCHEMA_VERSION", "AnalysisReport", "RaceFinding",
    "DeadlockFinding", "RedundantArc", "AnalysisError", "verify",
    "verify_instrumented", "arc_gate", "estimate_cost", "placement_arcs",
    "Mutant", "apply_mutant", "enumerate_mutants", "kill_mutant",
    "DynamicVerdict", "check_trace", "dynamic_check", "event_stream",
    "OPTIMIZE_SCHEMA_VERSION", "OptimizationReport", "optimize",
    "validate_optimization", "GateResult", "gate",
]
