"""Cost-model-guided optimizer: beats farthest-first, replay-validated.

The acceptance bar: on at least three standing loops the search finds a
placement with strictly fewer sync ops (or equal ops and lower
predicted cycles) than the greedy farthest-first baseline, and every
winner survives byte-identical simulator replay.  The baseline itself
(``report.baseline``) is verifier-judged too: the ``test_baseline_*``
tests pin what farthest-first drops.
"""

from __future__ import annotations

import pytest

from repro.analyze import AnalysisError, dynamic_check
from repro.analyze.gate import GATE_PARAMS
from repro.analyze.optimize import (OPTIMIZE_SCHEMA_VERSION,
                                    OptimizationReport, optimize,
                                    placement_arcs, validate_optimization)
from repro.depend.graph import DependenceGraph
from repro.lab.apps import build_app
from repro.schemes.registry import make_scheme

#: (app, scheme) pairs where the search strictly beats farthest-first
#: in raw sync-op count (pinned: a regression here is a lost win)
STRICT_WINS = [
    ("fig2.1", "statement-oriented"),
    ("example3", "process-oriented"),
    ("fold-chain", "process-oriented"),
]


def _optimize(app, scheme_name):
    loop = build_app(app, GATE_PARAMS[app])
    scheme = make_scheme(scheme_name)
    return loop, scheme, optimize(loop, scheme, app=app)


@pytest.mark.parametrize("app,scheme_name", STRICT_WINS)
def test_search_strictly_beats_farthest_first(app, scheme_name):
    _loop, _scheme, report = _optimize(app, scheme_name)
    assert report.beats_baseline, report.summary()
    assert report.sync_ops_after < report.baseline["sync_ops_after"], (
        f"{app}/{scheme_name}: search {report.sync_ops_after} ops vs "
        f"farthest-first {report.baseline['sync_ops_after']}")
    assert report.improved
    assert report.sync_ops_after < report.sync_ops_before


@pytest.mark.parametrize("app,scheme_name", STRICT_WINS)
def test_every_winner_validates_by_identical_replay(app, scheme_name):
    loop, scheme, report = _optimize(app, scheme_name)
    payload = validate_optimization(loop, scheme, report)
    assert payload["final_state_identical"] is True
    assert payload["sync_ops_after"] < payload["sync_ops_before"]
    assert report.validation is payload  # stored on the report


def test_search_never_loses_to_farthest_first():
    """On every searchable pair the objective is at least as good."""
    for app in ("fig2.1-delay", "hydro", "tridiag"):
        for scheme_name in ("statement-oriented", "process-oriented"):
            _loop, _scheme, report = _optimize(app, scheme_name)
            base_ops = report.baseline["sync_ops_after"]
            assert report.sync_ops_after <= base_ops, (
                f"{app}/{scheme_name}: {report.sync_ops_after} vs "
                f"farthest-first {base_ops}")


def test_audit_trail_records_the_search():
    _loop, _scheme, report = _optimize("fig2.1", "statement-oriented")
    actions = {trial.action for trial in report.audit}
    assert "baseline" in actions and "drop-arc" in actions
    verdicts = {trial.verdict for trial in report.audit}
    assert "accepted" in verdicts
    # the chosen config's kept + dropped partition the arc set
    assert len(report.kept) + len(report.dropped) >= len(report.kept) > 0


def test_report_json_roundtrip(tmp_path):
    _loop, _scheme, report = _optimize("fold-chain", "process-oriented")
    path = tmp_path / "opt.json"
    report.write_json(path)
    loaded = OptimizationReport.read_json(path)
    assert loaded.to_json() == report.to_json()
    assert loaded.chosen_fold == report.chosen_fold
    assert loaded.beats_baseline == report.beats_baseline


def test_report_schema_version_rejected(tmp_path):
    _loop, _scheme, report = _optimize("fold-chain", "process-oriented")
    payload = report.to_json()
    payload["schema_version"] = OPTIMIZE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        OptimizationReport.from_json(payload)


def test_non_arc_scheme_is_rejected():
    loop = build_app("fig2.1", GATE_PARAMS["fig2.1"])
    with pytest.raises(AnalysisError, match="not arc-driven"):
        optimize(loop, make_scheme("reference-based"), app="fig2.1")


def test_baseline_non_arc_scheme_is_rejected():
    """No baseline exists for a scheme without dependence arcs: every
    non-arc scheme is refused before any elimination is tried."""
    loop = build_app("fig2.1", {"n": 12})
    for name in ("reference-based", "instance-based"):
        with pytest.raises(AnalysisError, match="not arc-driven"):
            optimize(loop, make_scheme(name), app="fig2.1")


def _arc_key(arc):
    return f"{arc.src}->{arc.dst} (d={arc.distance})"


def test_baseline_fold_chain_drops_the_folded_arc():
    """With 4 counters, the d=5 arc rides the fold's ownership chain
    (5 = 1 mod 4): the d=1 arc plus counter-slot reuse already order
    S1(i-5) before S3(i), so the verifier proves the arc redundant."""
    loop = build_app("fold-chain", {"n": 40})
    scheme = make_scheme("process-oriented", n_counters=4)
    baseline = optimize(loop, scheme, app="fold-chain").baseline
    assert baseline["dropped"] == ["S1->S3 (d=5)"]
    assert baseline["sync_arcs"] == 2 and baseline["sync_arcs_after"] == 1
    assert baseline["sync_ops_after"] < baseline["sync_ops_before"]


def test_baseline_fold_chain_keeps_the_arc_at_wide_fold():
    """With 16 counters the slot is not reused inside the window: the
    chain argument disappears and the arc must stay."""
    loop = build_app("fold-chain", {"n": 40})
    scheme = make_scheme("process-oriented", n_counters=16)
    baseline = optimize(loop, scheme, app="fold-chain").baseline
    assert baseline["dropped"] == []
    assert baseline["sync_ops_after"] == baseline["sync_ops_before"]


def test_baseline_fig21_drops_a_real_dependence_arc():
    """Cross-pair transitivity on the paper's Fig 2.1 loop: at least
    one arc is implied by the remaining placement, and every dropped
    arc is a real dependence arc of the loop."""
    loop = build_app("fig2.1", {"n": 24})
    scheme = make_scheme("statement-oriented")
    baseline = optimize(loop, scheme, app="fig2.1").baseline
    assert baseline["dropped"], "expected at least one redundant arc"
    assert baseline["sync_ops_after"] < baseline["sync_ops_before"]
    arcs = {_arc_key(arc) for arc in DependenceGraph(loop).sync_arcs()}
    assert set(baseline["dropped"]) <= arcs


def test_baseline_kept_plus_dropped_partition_the_arcs():
    loop = build_app("fig2.1", {"n": 24})
    scheme = make_scheme("statement-oriented")
    arcs = [_arc_key(arc) for arc in scheme.instrument(loop).arcs]
    baseline = optimize(loop, scheme, app="fig2.1").baseline
    assert baseline["sync_arcs"] == len(arcs)
    assert (baseline["sync_arcs_after"] + len(baseline["dropped"])
            == len(arcs))
    assert set(baseline["dropped"]) <= set(arcs)


def test_baseline_slim_placement_is_dynamically_race_free():
    """The farthest-first placement also passes the dynamic sanitizer."""
    loop = build_app("fig2.1", {"n": 16})
    scheme = make_scheme("statement-oriented")
    dropped = set(optimize(loop, scheme, app="fig2.1").baseline["dropped"])
    assert dropped
    graph = DependenceGraph(loop)
    kept = [arc for arc in placement_arcs(scheme, scheme.instrument(loop))
            if _arc_key(arc) not in dropped]
    slim = scheme.instrument(loop, graph, arcs=kept)
    for schedule in ("self", "cyclic", "block"):
        verdict = dynamic_check(slim, schedule=schedule)
        assert verdict.verdict == "clean", (schedule, verdict.races[:2])


def test_fold_search_finds_the_counter_fold_win():
    """fold-chain's d=5 arc only folds away at X=4: the search finds it."""
    _loop, _scheme, report = _optimize("fold-chain", "process-oriented")
    assert report.chosen_scheme == "process-oriented"
    assert report.chosen_fold is not None
    assert report.chosen_fold < 16  # beat the default fold factor
