"""A sweep cell analyzes its loop's dependences once.

``execute_cell`` builds one :class:`DependenceGraph` for a non-``auto``
cell and hands it to both the optimizer column and the simulated run,
so the optimizer's trials and the run's validation share one
enumeration of the dependence instances.  A cell whose analysis raises
fails with that error, with and without the optimizer column.
"""

from __future__ import annotations

import pytest

from repro.depend import graph as graph_module
from repro.depend.graph import DependenceGraph
from repro.depend.model import Loop
from repro.lab import SweepCell
from repro.lab.runner import execute_cell
from repro.schemes.base import InstrumentedLoop


def _cell(scheme: str, eliminate: bool) -> SweepCell:
    return SweepCell(app="fig2.1", app_params=(("n", 12),), scheme=scheme,
                     processors=4, eliminate=eliminate)


@pytest.mark.parametrize("eliminate", [False, True])
@pytest.mark.parametrize("scheme", ["statement-oriented", "reference-based"])
def test_a_cell_whose_analysis_raises_fails_with_that_error(
        monkeypatch, scheme, eliminate):
    def broken(loop):
        raise ValueError("analysis broke")
    monkeypatch.setattr(graph_module, "analyze", broken)
    with pytest.raises(ValueError, match="analysis broke"):
        execute_cell(_cell(scheme, eliminate).config())


@pytest.mark.parametrize("scheme", ["statement-oriented", "process-oriented"])
def test_optimizer_column_and_run_share_one_enumeration(monkeypatch, scheme):
    enumerated = []
    real = DependenceGraph._enumerate_instances

    def counted(graph):
        enumerated.append(graph)
        return real(graph)
    monkeypatch.setattr(DependenceGraph, "_enumerate_instances", counted)
    record = execute_cell(_cell(scheme, eliminate=True).config())
    assert record["outcome"] == "ok"
    assert record["metrics"]["elimination"]["supported"]
    assert len(enumerated) == 1


@pytest.mark.parametrize("scheme", ["statement-oriented", "process-oriented"])
def test_an_eliminate_cell_computes_one_sequential_reference_per_loop(
        monkeypatch, scheme):
    """The optimizer's admission replay and the cell's own run validate
    against one sequential execution of the loop."""
    computed, validated = [], []
    real_sequential = Loop.execute_sequential
    real_validate = InstrumentedLoop.validate

    def counted_sequential(loop, initial=None):
        computed.append(id(loop))
        return real_sequential(loop, initial)

    def counted_validate(instrumented, result):
        validated.append(id(instrumented.loop))
        return real_validate(instrumented, result)
    monkeypatch.setattr(Loop, "execute_sequential", counted_sequential)
    monkeypatch.setattr(InstrumentedLoop, "validate", counted_validate)
    record = execute_cell(_cell(scheme, eliminate=True).config())
    assert record["outcome"] == "ok"
    assert record["metrics"]["elimination"]["supported"]
    assert len(validated) > len(set(validated))
    assert sorted(computed) == sorted(set(validated))
