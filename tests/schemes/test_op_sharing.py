"""Placements of one loop share their compiled values without changing them.

Every shipped app and random loops from both generators are instrumented
with every scheme, the arc-driven schemes under several arc sets, all on
one loop object so each placement reuses the values the ones before it
left on the loop.

* Each placement's op stream equals, op for op, the stream of the same
  placement built on a fresh copy of the loop, whose ops are all
  constructed anew.
* Every statement tag and address tuple that the ops, the dependence
  instances, the sequential reference, the access plan and the renaming
  carry is the lowering's own object (:meth:`Loop.lowered`).
* A loop holds at most one ``MemRead`` per address and one ``Compute``
  per cost, across all its placements.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analyze.placement import (_optimistic_sync_read, dry_run_task,
                                     snapshot_fabric)
from repro.depend.graph import DependenceGraph
from repro.lab.apps import app_names, build_app
from repro.schemes import make_scheme, plan_accesses, rename, scheme_names
from repro.schemes.instance_based import INSTANCE_SPACE
from repro.sim import Compute, MemRead, MemWrite, Tag

from ..random_loops import (constant_distance_loops,
                            nested_constant_distance_loops)

RANDOM_LOOPS = st.one_of(constant_distance_loops(),
                         nested_constant_distance_loops())

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: schemes that accept an explicit arc set
ARC_DRIVEN = ("statement-oriented", "process-oriented")


def placements(loop):
    """``(label, instrument)`` for every placement tried on ``loop``;
    ``instrument(loop)`` builds that placement on the loop given."""
    found = []
    for name in scheme_names():
        found.append((name, lambda target, name=name:
                      make_scheme(name).instrument(target)))
    try:
        arcs = DependenceGraph(loop).sync_arcs()
    except ValueError:
        return found  # unknown or negative distances: defaults only
    arc_sets = [("all", arcs)]
    if arcs:
        arc_sets.append(("drop-first", arcs[1:]))
    for name in ARC_DRIVEN:
        for label, chosen in arc_sets:
            found.append((f"{name}/{label}",
                          lambda target, name=name, chosen=chosen:
                          make_scheme(name).instrument(
                              target, arcs=list(chosen))))
    return found


def op_stream(instrumented):
    """Every op each iteration yields, driven engine-free."""
    initial = snapshot_fabric(instrumented)
    return [op for pid in instrumented.iterations
            for op, _tag in dry_run_task(instrumented.make_process(pid), pid,
                                         initial, _optimistic_sync_read)]


def fresh_copy(loop):
    """The same loop as a new object: nothing memoized on it yet."""
    return dataclasses.replace(loop)


def shared_streams(loop):
    """Each placement's op stream, every placement built on ``loop``."""
    streams = {}
    for label, instrument in placements(loop):
        try:
            streams[label] = op_stream(instrument(loop))
        except ValueError:
            continue  # this scheme cannot place the loop
    return streams


def check_streams(loop):
    shared = shared_streams(loop)
    for label, instrument in placements(loop):
        if label in shared:
            assert shared[label] == op_stream(instrument(fresh_copy(loop))), \
                label


class Lowered:
    """The lowering's tag and address objects, by value."""

    def __init__(self, loop):
        self.tags = {}
        self.addresses = {}
        for row in loop.lowered():
            for stmt in row.statements:
                if stmt is None:
                    continue
                assert self.tags.setdefault(stmt.tag, stmt.tag) is stmt.tag
                for addr in stmt.reads + stmt.writes:
                    # one tuple per address value across the whole loop
                    assert self.addresses.setdefault(addr, addr) is addr

    def tag(self, tag):
        return self.tags[tag] is tag

    def address(self, addr):
        return self.addresses[addr] is addr


def check_identity(loop):
    lowered = Lowered(loop)
    for label, stream in shared_streams(loop).items():
        for op in stream:
            if isinstance(op, Tag) and op.tag is not None:
                assert lowered.tag(op.tag), label
            elif (isinstance(op, (MemRead, MemWrite))
                  and op.addr[0] != INSTANCE_SPACE):
                assert lowered.address(op.addr), label
    for src, dst, addr, _src_kind, _dst_kind in \
            DependenceGraph(loop).dependence_instances():
        assert lowered.tag(src) and lowered.tag(dst)
        assert lowered.address(addr)
    assert all(map(lowered.tag, loop.execute_sequential({})[1]))
    plan = plan_accesses(loop)
    assert all(map(lowered.tag, plan))
    assert all(lowered.address(access.addr)
               for accesses in plan.values() for access in accesses)
    instances, reads_of, writes_of = rename(loop)
    assert all(map(lowered.tag, reads_of)) and all(map(lowered.tag,
                                                       writes_of))
    for instance in instances:
        assert lowered.address(instance.base_addr)
        assert all(map(lowered.tag, instance.readers))
        assert instance.writer is None or lowered.tag(instance.writer)


def check_one_op_per_value(loop):
    ops = [op for stream in shared_streams(loop).values() for op in stream]
    reads = [op for op in ops if isinstance(op, MemRead)]
    assert len({id(op) for op in reads}) <= len({op.addr for op in reads})
    computes = [op for op in ops if isinstance(op, Compute)]
    assert (len({id(op) for op in computes})
            <= len({op.cycles for op in computes}))


@pytest.mark.parametrize("app", app_names())
def test_shipped_app_shared_streams_equal_fresh_ones(app):
    check_streams(build_app(app, {}))


@PROPERTY
@given(loop=RANDOM_LOOPS)
def test_random_loop_shared_streams_equal_fresh_ones(loop):
    check_streams(loop)


@pytest.mark.parametrize("app", app_names())
def test_shipped_app_tags_and_addresses_are_the_lowerings(app):
    check_identity(build_app(app, {}))


@PROPERTY
@given(loop=RANDOM_LOOPS)
def test_random_loop_tags_and_addresses_are_the_lowerings(loop):
    check_identity(loop)


@pytest.mark.parametrize("app", app_names())
def test_shipped_app_holds_one_read_per_address_one_compute_per_cost(app):
    check_one_op_per_value(build_app(app, {}))


@PROPERTY
@given(loop=RANDOM_LOOPS)
def test_random_loop_holds_one_read_per_address_one_compute_per_cost(loop):
    check_one_op_per_value(loop)
