"""Depth-3 nests: coalescing and all schemes at depth > 2."""

from __future__ import annotations

import pytest

from repro.apps.kernels import late_source_loop, triple_nested_loop
from repro.compiler import doacross_delay
from repro.depend import DependenceGraph, classify
from repro.depend.graph import linear_distance
from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.sim import Machine, MachineConfig


def test_triple_nest_distances():
    loop = triple_nested_loop(n=4, m=3, k=3)
    graph = DependenceGraph(loop)
    vectors = {(d.src, d.dst): d.distance for d in graph.dependences
               if d.loop_carried}
    assert vectors[("S1", "S1")] == (0, 0, 1)
    assert vectors[("S1", "S2")] == (0, 1, 0)
    assert vectors[("S2", "S2")] == (1, 0, 0)


def test_triple_nest_linearization():
    loop = triple_nested_loop(n=4, m=3, k=3)
    assert linear_distance(loop, (0, 0, 1)) == 1
    assert linear_distance(loop, (0, 1, 0)) == 3
    assert linear_distance(loop, (1, 0, 0)) == 9
    arcs = {(a.src, a.dst, a.distance)
            for a in DependenceGraph(loop).sync_arcs()}
    assert arcs == {("S1", "S1", 1), ("S1", "S2", 3), ("S2", "S2", 9)}


def test_triple_nest_classified_doacross():
    assert classify(triple_nested_loop()).label == "doacross"


@pytest.mark.parametrize("name", scheme_names())
def test_all_schemes_on_triple_nest(name):
    loop = triple_nested_loop(n=3, m=3, k=3)
    machine = Machine(MachineConfig(processors=4))
    result = make_scheme(name).run(
        loop, config=RunConfig(machine=machine))  # validates
    assert result.makespan > 0


def test_triple_nest_lpids_dense():
    loop = triple_nested_loop(n=3, m=2, k=2)
    lpids = [loop.lpid(index) for index in loop.iteration_space()]
    assert lpids == list(range(1, 13))


def test_late_source_loop_has_positive_delay():
    loop = late_source_loop(n=20, body_cost=40)
    report = doacross_delay(loop)
    assert report.delay == 42  # S3 ends at 42, S1 starts at 0, d=1
    assert "S3->S1" in report.critical_arc
    assert report.parallelism_bound == 1.0


@pytest.mark.parametrize("name", scheme_names())
def test_all_schemes_on_late_source_loop(name):
    """The racy layout is exactly where synchronization earns its keep:
    every scheme must still validate."""
    loop = late_source_loop(n=24)
    machine = Machine(MachineConfig(processors=8))
    result = make_scheme(name).run(loop, config=RunConfig(machine=machine))
    assert result.makespan > 0
