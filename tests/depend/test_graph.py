"""Dependence graph: sync arcs, linearization, coverage pruning."""

from __future__ import annotations

import pytest

from repro.depend.analysis import Dependence
from repro.depend.graph import DependenceGraph, linear_distance
from repro.depend.model import Loop, Statement, ref1
from repro.lab.apps import app_names, build_app


def arc_set(arcs):
    return {(a.src, a.dst, a.distance) for a in arcs}


def test_sync_arcs_fig21(fig21):
    graph = DependenceGraph(fig21)
    assert arc_set(graph.sync_arcs()) == {
        ("S1", "S2", 2), ("S1", "S3", 1), ("S1", "S4", 3), ("S1", "S5", 4),
        ("S2", "S4", 1), ("S3", "S4", 2), ("S4", "S5", 1)}


def test_pruning_exact_covers_s1_s4(fig21):
    """The paper: "by enforcing dependences S1->S3 and S3->S4, the
    dependence S1->S4 can be covered"; S1->S5 falls the same way
    (S1->S3->S4->S5 sums to 4)."""
    graph = DependenceGraph(fig21)
    pruned = arc_set(graph.pruned_sync_arcs(mode="exact"))
    assert pruned == {("S1", "S2", 2), ("S1", "S3", 1), ("S2", "S4", 1),
                      ("S3", "S4", 2), ("S4", "S5", 1)}


def test_pruning_monotonic_at_least_as_aggressive(fig21):
    graph = DependenceGraph(fig21)
    exact = arc_set(graph.pruned_sync_arcs(mode="exact"))
    monotonic = arc_set(graph.pruned_sync_arcs(mode="monotonic"))
    assert monotonic <= exact


def test_pruning_mode_none_keeps_every_arc(fig21):
    graph = DependenceGraph(fig21)
    assert graph.pruned_sync_arcs(mode="none") == graph.sync_arcs()


def test_pruning_monotonic_uses_smaller_distance_paths():
    """Arc (a, c, 5) with a path a->b->c of distance 2 is covered only in
    monotonic mode (a later source instance implies earlier ones)."""
    body = [
        Statement("A", writes=(ref1("X", 1, 5), ref1("Z", 1, 1))),
        Statement("B", writes=(ref1("Y", 1, 1),), reads=(ref1("Z", 1, 0),)),
        Statement("C", reads=(ref1("X", 1, 0), ref1("Y", 1, 0))),
    ]
    loop = Loop("cover", bounds=((1, 12),), body=body)
    graph = DependenceGraph(loop)
    assert ("A", "C", 5) in arc_set(graph.sync_arcs())
    assert ("A", "C", 5) in arc_set(graph.pruned_sync_arcs("exact"))
    assert ("A", "C", 5) not in arc_set(graph.pruned_sync_arcs("monotonic"))


def test_pruning_uses_free_textual_edges():
    """Arc (a, c, 3) covered by sync (a, b, 3) + free b-before-c edge."""
    body = [
        Statement("A", writes=(ref1("X", 1, 3), ref1("Z", 1, 3))),
        Statement("B", reads=(ref1("Z", 1, 0),)),
        Statement("C", reads=(ref1("X", 1, 0),)),
    ]
    loop = Loop("free", bounds=((1, 10),), body=body)
    graph = DependenceGraph(loop)
    assert ("A", "C", 3) in arc_set(graph.sync_arcs())
    assert ("A", "C", 3) not in arc_set(graph.pruned_sync_arcs("exact"))
    # the covering arc itself survives
    assert ("A", "B", 3) in arc_set(graph.pruned_sync_arcs("exact"))


def test_identical_arcs_of_different_types_collapse():
    """A write/write + write/read pair at the same distance is one sync
    arc ("no need to differentiate them")."""
    body = [
        Statement("A", writes=(ref1("X", 1, 1),)),
        Statement("B", writes=(ref1("X", 1, 0),),
                  reads=(ref1("X", 1, 0),)),
    ]
    loop = Loop("dual", bounds=((1, 8),), body=body)
    graph = DependenceGraph(loop)
    arcs = [a for a in graph.sync_arcs() if (a.src, a.dst) == ("A", "B")]
    assert len(arcs) == 1
    assert len(arcs[0].deps) >= 2  # it carries both dependences


def test_unknown_distance_rejected_for_sync():
    dep = Dependence("A", "A", "output", None, ref1("X", 1), ref1("X", 1))
    loop = Loop("u", bounds=((1, 4),), body=[Statement("A")])
    graph = DependenceGraph(loop, dependences=[dep])
    with pytest.raises(ValueError):
        graph.sync_arcs()


def test_linear_distance_matches_paper_example2(nested):
    """Fig. 5.2: (0,1) -> 1 and (1,1) -> M+1."""
    m = nested.extents[1]
    assert linear_distance(nested, (0, 1)) == 1
    assert linear_distance(nested, (1, 1)) == m + 1
    graph = DependenceGraph(nested)
    assert arc_set(graph.sync_arcs()) == {("S1", "S2", 1),
                                          ("S2", "S3", m + 1)}


def test_negative_linear_distance_rejected():
    """A lex-positive vector like (1, -3) with a tiny inner extent would
    coalesce to a backwards wait: must be refused, not silently wrong."""
    dep = Dependence("A", "B", "flow", (1, -3), ref1("X", 2), ref1("X", 2))
    body = [Statement("A"), Statement("B")]
    loop = Loop("neg", bounds=((1, 5), (1, 2)), body=body)
    graph = DependenceGraph(loop, dependences=[dep])
    with pytest.raises(ValueError):
        graph.sync_arcs()


def test_sources_sinks_incoming(fig21):
    graph = DependenceGraph(fig21)
    arcs = graph.pruned_sync_arcs()
    assert graph.sources(arcs) == ["S1", "S2", "S3", "S4"]
    incoming = graph.incoming("S4", arcs)
    assert arc_set(incoming) == {("S2", "S4", 1), ("S3", "S4", 2)}


def test_dependence_instances_respect_bounds(fig21):
    graph = DependenceGraph(fig21)
    instances = graph.dependence_instances()
    n = fig21.bounds[0][1]
    # S1->S2 at distance 2: sink iterations 3..N
    s12 = [(src, dst) for src, dst, _addr, _sk, _dk in instances
           if src[0] == "S1" and dst[0] == "S2"]
    assert len(s12) == n - 2
    assert min(dst[1] for _src, dst in s12) == 3


def test_dependence_instances_respect_guards(branchy):
    graph = DependenceGraph(branchy)
    instances = graph.dependence_instances()
    sb = branchy.statement("Sb")
    for src, _dst, _addr, _sk, _dk in instances:
        if src[0] == "Sb":
            index = branchy.index_of_lpid(src[1])
            assert sb.executes_at(index)


def test_dependence_instances_addresses(fig21):
    graph = DependenceGraph(fig21)
    for src, dst, addr, src_kind, dst_kind in graph.dependence_instances():
        if src[0] == "S1" and dst[0] == "S3":
            # S1 writes A[i+3]; S3 at i+1 reads A[i+3]
            assert addr == ("A", src[1] + 3)
            assert (src_kind, dst_kind) == ("W", "R")


def test_dependence_instances_are_enumerated_once(fig21):
    graph = DependenceGraph(fig21)
    first = graph.dependence_instances()
    assert isinstance(first, tuple)
    assert graph.dependence_instances() is first
    # the dependences are a tuple too, so the cache cannot go stale
    assert isinstance(graph.dependences, tuple)


@pytest.mark.parametrize("app", app_names())
def test_cached_instances_equal_a_fresh_enumeration(app):
    """The cached tuple is the enumeration, element for element, for
    every shipped app at its default size."""
    graph = DependenceGraph(build_app(app, {}))
    graph.dependence_instances()
    cached = graph.dependence_instances()
    fresh = DependenceGraph(build_app(app, {}))
    assert list(cached) == fresh._enumerate_instances()
    assert cached == fresh.dependence_instances()


def test_has_unknown_distance_property():
    dep = Dependence("A", "A", "output", None, ref1("X", 1), ref1("X", 1))
    loop = Loop("u", bounds=((1, 4),), body=[Statement("A")])
    assert DependenceGraph(loop, dependences=[dep]).has_unknown_distance
    assert not DependenceGraph(loop, dependences=[]).has_unknown_distance


def test_invalid_prune_mode():
    loop = Loop("u", bounds=((1, 4),), body=[Statement("A")])
    graph = DependenceGraph(loop, dependences=[])
    with pytest.raises(ValueError):
        graph.pruned_sync_arcs(mode="banana")
