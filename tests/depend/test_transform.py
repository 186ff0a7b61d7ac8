"""Loop transformations: legality, index remapping, wavefronting."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.apps.kernels import example2_loop, relaxation_loop
from repro.depend import analyze
from repro.depend.model import Loop, Statement
from repro.depend.transform import (IllegalTransform, inner_loop_parallel,
                                    interchange, skew, wavefront)
from repro.schemes import RunConfig


def element_access_order(loop: Loop):
    """Per-element sequence of (sid, kind) in sequential order.

    Two loops with identical per-element access orders compute the same
    values for any statement semantics: the gold standard for judging a
    reordering transformation.
    """
    orders = defaultdict(list)
    for index in loop.iteration_space():
        for stmt in loop.body:
            if not stmt.executes_at(index):
                continue
            for ref in stmt.reads:
                orders[loop.address_of(ref, index)].append((stmt.sid, "R"))
            for ref in stmt.writes:
                orders[loop.address_of(ref, index)].append((stmt.sid, "W"))
    return dict(orders)


# ----------------------------------------------------------------------
# interchange
# ----------------------------------------------------------------------

def test_interchange_legal_for_relaxation():
    """(1,0) and (0,1) survive swapping: (0,1) and (1,0), both lex+."""
    loop = relaxation_loop(n=5)
    swapped = interchange(loop, [1, 0])
    assert swapped.bounds == (loop.bounds[1], loop.bounds[0])
    assert element_access_order(loop) == element_access_order(swapped)


def test_interchange_illegal_when_vector_flips():
    """Distance (1,-1) becomes (-1,1) after swap: must be refused."""
    from repro.depend.model import ArrayRef, index_expr
    a_ij = ArrayRef("A", (index_expr(0, 2), index_expr(1, 2)))
    a_im1jp1 = ArrayRef("A", (index_expr(0, 2, -1), index_expr(1, 2, 1)))
    body = [Statement("S", writes=(a_ij,), reads=(a_im1jp1,))]
    loop = Loop("flip", bounds=((1, 5), (1, 5)), body=body,
                array_shapes={"A": (6, 7)})
    carried = [d.distance for d in analyze(loop) if d.loop_carried]
    assert (1, -1) in carried
    with pytest.raises(IllegalTransform):
        interchange(loop, [1, 0])


def test_interchange_validates_permutation():
    loop = relaxation_loop(n=4)
    with pytest.raises(ValueError):
        interchange(loop, [0, 0])


def test_interchange_composes_guards():
    from repro.depend.model import ArrayRef, index_expr
    a_ij = ArrayRef("A", (index_expr(0, 2), index_expr(1, 2)))
    body = [Statement("S", writes=(a_ij,),
                      guard=lambda index: index[0] != 2)]
    loop = Loop("g", bounds=((1, 3), (1, 2)), body=body,
                array_shapes={"A": (4, 3)})
    swapped = interchange(loop, [1, 0])
    # in the swapped space the guard tests the *second* component
    assert swapped.body[0].executes_at((1, 1))
    assert not swapped.body[0].executes_at((1, 2))


def test_interchange_composes_costs():
    from repro.depend.model import ArrayRef, index_expr
    a_ij = ArrayRef("A", (index_expr(0, 2), index_expr(1, 2)))
    body = [Statement("S", writes=(a_ij,),
                      cost=lambda index: 100 * index[0] + index[1])]
    loop = Loop("c", bounds=((1, 3), (1, 2)), body=body,
                array_shapes={"A": (4, 3)})
    swapped = interchange(loop, [1, 0])
    # new index (j, i) must be charged as old (i, j)
    assert swapped.body[0].cost_at((2, 3)) == 100 * 3 + 2


# ----------------------------------------------------------------------
# skew
# ----------------------------------------------------------------------

def test_skew_preserves_element_access_order():
    loop = relaxation_loop(n=5)
    skewed = skew(loop, target=1, source=0, factor=1)
    assert element_access_order(loop) == element_access_order(skewed)


def test_skew_transforms_distance_vectors():
    loop = relaxation_loop(n=5)
    skewed = skew(loop, target=1, source=0, factor=1)
    distances = sorted({d.distance for d in analyze(skewed)
                        if d.loop_carried})
    assert distances == [(0, 1), (1, 1)]  # (1,0)->(1,1), (0,1)->(0,1)


def test_skew_guards_outside_region():
    loop = relaxation_loop(n=4)     # i, j in 2..4
    skewed = skew(loop)             # j' = i + j in 4..8
    stmt = skewed.body[0]
    assert stmt.executes_at((2, 4))      # original (2, 2)
    assert not stmt.executes_at((2, 7))  # original (2, 5): outside
    assert stmt.executes_at((3, 7))      # original (3, 4)


def test_skew_validation():
    loop = relaxation_loop(n=4)
    with pytest.raises(ValueError):
        skew(loop, target=0, source=1)
    with pytest.raises(ValueError):
        skew(loop, factor=0)


# ----------------------------------------------------------------------
# wavefront = skew + interchange
# ----------------------------------------------------------------------

def test_wavefront_makes_inner_loop_parallel():
    loop = relaxation_loop(n=6)
    assert not inner_loop_parallel(loop)
    transformed = wavefront(loop)
    assert inner_loop_parallel(transformed)
    # the outer loop now walks anti-diagonals i+j = 4 .. 2N
    assert transformed.bounds[0] == (4, 12)


def test_wavefront_preserves_element_access_order_per_element():
    loop = relaxation_loop(n=5)
    transformed = wavefront(loop)
    assert element_access_order(loop) == element_access_order(transformed)


def test_wavefront_requires_depth_two():
    from repro.apps.kernels import fig21_loop
    with pytest.raises(ValueError):
        wavefront(fig21_loop(8))


def test_wavefront_of_example2():
    loop = example2_loop(n=5, m=4)
    transformed = wavefront(loop)
    assert inner_loop_parallel(transformed)
    assert element_access_order(loop) == element_access_order(transformed)


def test_transformed_loop_simulates_under_a_scheme():
    """The wavefronted nest runs through the ordinary scheme machinery
    and validates against its own sequential semantics."""
    from repro.schemes import make_scheme
    from repro.sim import Machine, MachineConfig
    transformed = wavefront(relaxation_loop(n=5))
    machine = Machine(MachineConfig(processors=4))
    result = make_scheme("process-oriented").run(
        transformed, config=RunConfig(machine=machine))
    assert result.makespan > 0


# ----------------------------------------------------------------------
# strip mining (the grouping of Fig 5.1(c))
# ----------------------------------------------------------------------

def strip_cases():
    from repro.apps.kernels import fig21_loop
    return [(fig21_loop(n=10), 0, 3), (fig21_loop(n=12), 0, 4),
            (relaxation_loop(n=5), 1, 2)]


@pytest.mark.parametrize("loop, level, width", strip_cases())
def test_strip_mine_preserves_access_order(loop, level, width):
    from repro.depend.transform import strip_mine
    stripped = strip_mine(loop, level=level, width=width)
    assert stripped.depth == loop.depth + 1
    assert element_access_order(loop) == element_access_order(stripped)


def test_strip_mine_multi_distance_arcs_coalesce():
    """Strip-mined dependences appear at several vectors -- (0,+2) inside
    a strip, (+1,-1) across strips -- but all coalesce to the original
    linear distance, so the sync plan is unchanged."""
    from repro.apps.kernels import fig21_loop
    from repro.depend.graph import DependenceGraph
    from repro.depend.transform import strip_mine
    loop = fig21_loop(n=10)
    stripped = strip_mine(loop, level=0, width=3)
    s12 = {d.distance for d in DependenceGraph(stripped).dependences
           if (d.src, d.dst) == ("S1", "S2")}
    assert s12 == {(0, 2), (1, -1)}
    original = {(a.src, a.dst, a.distance)
                for a in DependenceGraph(loop).pruned_sync_arcs()}
    stripped_arcs = {(a.src, a.dst, a.distance)
                     for a in DependenceGraph(stripped).pruned_sync_arcs()}
    assert original == stripped_arcs


def test_strip_mine_guards_tail():
    from repro.apps.kernels import fig21_loop
    from repro.depend.transform import strip_mine
    loop = fig21_loop(n=10)           # 10 iterations, strips of 3
    stripped = strip_mine(loop, 0, 3)  # last strip holds only 1
    stmt = stripped.body[0]
    assert stmt.executes_at((3, 0))    # original i = 10
    assert not stmt.executes_at((3, 1))
    assert not stmt.executes_at((3, 2))


def test_strip_mine_validation():
    from repro.apps.kernels import fig21_loop
    from repro.depend.transform import strip_mine
    loop = fig21_loop(n=6)
    with pytest.raises(ValueError):
        strip_mine(loop, level=2, width=2)
    with pytest.raises(ValueError):
        strip_mine(loop, level=0, width=0)


def test_strip_mined_loop_simulates_under_all_schemes():
    from repro.apps.kernels import fig21_loop
    from repro.depend.transform import strip_mine
    from repro.schemes import make_scheme, scheme_names
    from repro.sim import Machine, MachineConfig
    stripped = strip_mine(fig21_loop(n=9, cost=4), 0, 3)
    machine = Machine(MachineConfig(processors=4))
    for name in scheme_names():
        result = make_scheme(name).run(
            stripped, config=RunConfig(machine=machine))
        assert result.makespan > 0
