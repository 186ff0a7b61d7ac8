"""Properties of the per-instance facts every consumer reads, checked
against brute-force references on random loops and every shipped app.

* A loop's lowered rows (:meth:`Loop.lowered`) equal a walk of its
  iteration space that evaluates each guard, process id, subscript and
  cost through the model's own primitives.
* The dependence instances a graph enumerates are exactly the pairs of
  colliding accesses that its analyzed exact-distance dependences
  describe: a brute-force pass over every pair of executed accesses to
  one address, in sequential order, is the reference.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.depend.graph import DependenceGraph
from repro.lab.apps import app_names, build_app

from ..random_loops import (constant_distance_loops,
                            nested_constant_distance_loops)

RANDOM_LOOPS = st.one_of(constant_distance_loops(),
                         nested_constant_distance_loops())

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_rows(loop):
    """The lowering rebuilt from ``iteration_space``, ``lpid``,
    ``executes_at``, ``address_of`` and ``cost_at``."""
    return tuple(
        (index, loop.lpid(index), tuple(
            (stmt.sid,
             tuple(loop.address_of(ref, index) for ref in stmt.reads),
             tuple(loop.address_of(ref, index) for ref in stmt.writes),
             stmt.cost_at(index), (stmt.sid, loop.lpid(index)))
            if stmt.executes_at(index) else None
            for stmt in loop.body))
        for index in loop.iteration_space())


def check_lowering(loop):
    rows = loop.lowered()
    assert rows == reference_rows(loop)
    assert loop.lowered() is rows


def executed_accesses(loop):
    """Every executed access as ``(index, sid, kind, ref, address)``, in
    sequential order: iterations, then statements, reads before
    writes."""
    accesses = []
    for index in loop.iteration_space():
        for stmt in loop.body:
            if not stmt.executes_at(index):
                continue
            for kind, refs in (("R", stmt.reads), ("W", stmt.writes)):
                for ref in refs:
                    accesses.append((index, stmt.sid, kind, ref,
                                     loop.address_of(ref, index)))
    return accesses


def brute_force_instances(graph):
    """Every ordered pair of colliding accesses, not both reads, that
    some analyzed exact-distance dependence describes."""
    loop = graph.loop
    kinds = {"flow": ("W", "R"), "anti": ("R", "W"), "output": ("W", "W")}
    described = {(dep.src, dep.dst, *kinds[dep.dep_type], dep.src_ref,
                  dep.dst_ref, dep.distance)
                 for dep in graph.dependences if dep.distance is not None}
    by_address = defaultdict(list)
    for access in executed_accesses(loop):
        by_address[access[-1]].append(access)
    instances = set()
    for address, hits in by_address.items():
        for position, (a_index, a_sid, a_kind, a_ref, _) in enumerate(hits):
            for b_index, b_sid, b_kind, b_ref, _ in hits[position + 1:]:
                distance = tuple(b - a for a, b in zip(a_index, b_index))
                if (a_sid, b_sid, a_kind, b_kind, a_ref, b_ref,
                        distance) in described:
                    instances.add(((a_sid, loop.lpid(a_index)),
                                   (b_sid, loop.lpid(b_index)),
                                   address, a_kind, b_kind))
    return instances


def check_instances(loop):
    graph = DependenceGraph(loop)
    assert set(graph.dependence_instances()) == brute_force_instances(graph)


@pytest.mark.parametrize("app", app_names())
def test_shipped_app_lowering_equals_a_reference_walk(app):
    check_lowering(build_app(app, {}))


@PROPERTY
@given(loop=RANDOM_LOOPS)
def test_random_loop_lowering_equals_a_reference_walk(loop):
    check_lowering(loop)


@pytest.mark.parametrize("app", app_names())
def test_shipped_app_instances_equal_brute_force(app):
    check_instances(build_app(app, {}))


@PROPERTY
@given(loop=RANDOM_LOOPS)
def test_random_loop_instances_equal_brute_force(loop):
    check_instances(loop)
