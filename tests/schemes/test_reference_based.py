"""Reference-based scheme: Fig. 3.1(a)'s access numbering and costs."""

from __future__ import annotations

from repro.apps.kernels import fig21_loop
from repro.schemes import RunConfig
from repro.schemes.reference_based import (ReferenceBasedScheme,
                                           plan_accesses)
from repro.sim import Machine, MachineConfig


def test_fig31a_access_order_for_one_element():
    """The circled numbers of Fig. 3.1(a): element A[i+3] is touched by
    S1 (write, #0), S2 at i+2 (read, #1), S3 at i+1 (read, #2), S4 at
    i+3 (write, #3), S5 at i+4 (read, #4) -- with both reads waiting for
    threshold 1 so they can run in either order."""
    loop = fig21_loop(n=20)
    plan = plan_accesses(loop)
    element = ("A", 10)  # written by S1 at i=7
    slots = sorted(
        ((tag, access) for tag, accesses in plan.items()
         for access in accesses if access.addr == element),
        key=lambda item: item[1].ordinal)
    assert [(tag[0], tag[1], access.kind, access.ordinal, access.threshold)
            for tag, access in slots] == [
        ("S1", 7, "W", 0, 0),
        ("S3", 8, "R", 1, 1),   # sequential order: S3 of i=8 first,
        ("S2", 9, "R", 2, 1),   # same threshold as S3: any order
        ("S4", 10, "W", 3, 3),  # all three earlier accesses done
        ("S5", 11, "R", 4, 4),
    ]


def test_reads_before_last_write_free():
    """An element never written waits for threshold 0 (immediate)."""
    loop = fig21_loop(n=6)
    plan = plan_accesses(loop)
    # A[0] is only read (by S5 at i=1): threshold 0
    accesses = [a for accesses in plan.values() for a in accesses
                if a.addr == ("A", 0)]
    assert accesses == [type(accesses[0])("R", ("A", 0), 0, 0)]


def test_key_count_is_element_count():
    loop = fig21_loop(n=20)
    scheme = ReferenceBasedScheme()
    instrumented = scheme.instrument(loop)
    # elements touched: A[0] .. A[23] -> 24 keys (one per datum)
    assert instrumented.sync_vars == 24


def test_run_validates_and_reports_costs(fig21, machine4):
    scheme = ReferenceBasedScheme()
    result = scheme.run(fig21, config=RunConfig(machine=machine4))
    assert result.sync_vars == fig21.bounds[0][1] + 4
    assert result.init_cycles > 0          # key initialization charged
    assert result.sync_transactions > 0    # keys cost memory transactions


def test_init_overhead_scales_with_data_size():
    scheme = ReferenceBasedScheme()
    machine = Machine(MachineConfig(processors=4))
    small = scheme.run(fig21_loop(n=20), config=RunConfig(machine=machine))
    large = scheme.run(fig21_loop(n=80), config=RunConfig(machine=machine))
    assert large.init_cycles > small.init_cycles
    assert large.sync_vars > small.sync_vars


def test_charge_init_flag():
    scheme = ReferenceBasedScheme(charge_init=False)
    machine = Machine(MachineConfig(processors=4))
    result = scheme.run(fig21_loop(n=20), config=RunConfig(machine=machine))
    assert result.init_cycles == 0


def test_guarded_statements_not_planned_when_skipped(branchy):
    plan = plan_accesses(branchy)
    sb = branchy.statement("Sb")
    for i in range(*branchy.bounds[0]):
        executed = sb.executes_at((i,))
        assert (("Sb", i) in plan) == executed


def test_branchy_runs_correctly(branchy, machine4):
    result = ReferenceBasedScheme().run(
        branchy, config=RunConfig(machine=machine4))
    assert result.makespan > 0
