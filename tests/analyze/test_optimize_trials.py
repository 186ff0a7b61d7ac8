"""Every trial placement the optimizer builds is a fresh instrument.

The search instruments many arc subsets of one loop, and the schemes
share what those subsets have in common (compiled statements, wait
ops, Advance pairs) through value memos on the loop.  This differential
test pins that the sharing is invisible: for every placement
``optimize`` verifies or replays, on every shipped arc pair, each
pid's op stream equals the one a fresh ``instrument(arcs=trial)`` on a
freshly built loop emits, op for op.

Ops are compared by their observable fields (the replay-contract
comparer) plus each wait predicate's threshold, read from the
predicate's closure or default arguments.
"""

from __future__ import annotations

import importlib
from typing import Any, List

import pytest

from repro.analyze.placement import dry_run_task, snapshot_fabric
from repro.analyze.verifier import AnalysisError
from repro.depend.graph import DependenceGraph
from repro.lab.apps import build_app
from repro.schemes.base import InstrumentedLoop

from .test_optimize_golden import PAIRS
from ..schemes.test_replay_contract import _answer_initial, _observable

optimize_module = importlib.import_module("repro.analyze.optimize")
sanitizer_module = importlib.import_module("repro.analyze.sanitizer")


def _threshold(predicate: Any) -> Any:
    if predicate is None:
        return None
    cells = tuple(cell.cell_contents
                  for cell in predicate.__closure__ or ())
    return predicate.__defaults__, cells


def op_streams(instrumented: InstrumentedLoop) -> List[list]:
    """Every pid's engine-free op stream, in comparable form."""
    initial = snapshot_fabric(instrumented)
    streams = []
    for pid in instrumented.iterations:
        stream = dry_run_task(instrumented.make_process(pid), pid,
                              initial, _answer_initial)
        streams.append([
            (seen, _threshold(getattr(op, "predicate", None)))
            for seen, (op, _tag) in zip(_observable(stream), stream)])
    return streams


def fresh_streams(app: str, instrumented: InstrumentedLoop) -> List[list]:
    """The same placement instrumented from scratch: new loop, new graph."""
    loop = build_app(app, {})
    fresh = instrumented.scheme.instrument(
        loop, DependenceGraph(loop), arcs=list(instrumented.arcs))
    return op_streams(fresh)


@pytest.mark.parametrize("app,scheme_name", PAIRS)
def test_every_trial_equals_a_fresh_instrument(monkeypatch, app,
                                               scheme_name):
    from repro.schemes.registry import make_scheme

    checked = []

    def check(instrumented: InstrumentedLoop) -> None:
        assert op_streams(instrumented) == fresh_streams(app, instrumented), \
            (app, scheme_name, [str(arc) for arc in instrumented.arcs])
        checked.append(instrumented)

    real_verify = optimize_module.verify_instrumented
    real_dynamic = sanitizer_module.dynamic_check

    def checked_verify(instrumented, **kwargs):
        check(instrumented)
        return real_verify(instrumented, **kwargs)

    def checked_dynamic(instrumented, **kwargs):
        check(instrumented)
        return real_dynamic(instrumented, **kwargs)

    monkeypatch.setattr(optimize_module, "verify_instrumented",
                        checked_verify)
    monkeypatch.setattr(sanitizer_module, "dynamic_check", checked_dynamic)
    try:
        optimize_module.optimize(build_app(app, {}),
                                 make_scheme(scheme_name), app=app)
    except AnalysisError:
        pass  # the golden pins the message; the trials were checked
    assert checked, "the search verified no placement"


def _reachable(root: Any, kind: type) -> List[Any]:
    """Objects of ``kind`` reachable from ``root`` through references."""
    import gc

    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, kind):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                stack.append(ref)
    return found


def test_search_keeps_one_folds_wait_ops_and_no_trial_placement():
    """The search walks every fold; afterwards the loop's wait memo
    holds the ops of one fold only, and the report holds no placement."""
    from repro.schemes.registry import make_scheme

    loop = build_app("fold-chain", {})
    report = optimize_module.optimize(
        loop, make_scheme("process-oriented"), app="fold-chain")
    assert len({trial.fold for trial in report.audit}) > 1
    (n_counters, first_pid), memo = loop.__dict__["_fold_waits"]
    assert memo
    for (pid, dist, _step), op in memo.items():
        assert op.var == (pid - dist - first_pid) % n_counters, (pid, dist)
    assert not _reachable(report, InstrumentedLoop)
