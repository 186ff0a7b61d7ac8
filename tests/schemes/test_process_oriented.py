"""Process-oriented scheme: the paper's proposal, end to end."""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.schemes import RunConfig
from repro.schemes.process_oriented import ProcessOrientedScheme
from repro.sim import Machine, MachineConfig


@pytest.mark.parametrize("style", ["basic", "improved"])
@pytest.mark.parametrize("n_counters", [1, 2, 4, 16, 64])
def test_correct_for_any_counter_count(style, n_counters, fig21, machine4):
    """Folding is correct for every X >= 1 (see repro.core.folding)."""
    scheme = ProcessOrientedScheme(style=style, n_counters=n_counters)
    result = scheme.run(fig21, config=RunConfig(machine=machine4))
    assert result.sync_vars == n_counters


def test_small_x_throttles_but_more_x_saturates(fig21):
    """Loop time (excluding the X-register init prologue) improves
    (weakly) with X and saturates once X >> P."""
    machine = Machine(MachineConfig(processors=4))
    times = {}
    for x in (1, 4, 16, 64):
        result = ProcessOrientedScheme(n_counters=x).run(
            fig21, config=RunConfig(machine=machine))
        times[x] = result.makespan - result.init_cycles
    assert times[16] <= times[1]
    assert abs(times[64] - times[16]) <= 0.05 * times[16] + 5


@pytest.mark.parametrize("split_order", ["step_first", "owner_first"])
def test_split_fields_run(split_order, fig21, machine4):
    """Both split orders complete; step-first is the paper's safe order.

    (Owner-first exposes a transient that can *logically* release a
    waiter early; with the loop's waits it still validates here because
    the transient is immediately overwritten -- the pure-logic hazard is
    pinned down in tests/core/test_process_counter.py.)"""
    scheme = ProcessOrientedScheme(split_fields=True,
                                   split_order=split_order)
    result = scheme.run(fig21, config=RunConfig(machine=machine4))
    assert result.sync_storage_words == 2 * scheme.n_counters


def test_split_fields_cost_two_broadcasts_per_release(fig21, machine4):
    atomic = ProcessOrientedScheme(split_fields=False).run(
        fig21, config=RunConfig(machine=machine4))
    split = ProcessOrientedScheme(split_fields=True).run(
        fig21, config=RunConfig(machine=machine4))
    n = fig21.bounds[0][1]
    # one extra broadcast per release (N releases)
    assert split.sync_transactions >= atomic.sync_transactions + n


def test_improved_style_skips_marks_when_unowned(fig21):
    """With X=1 every process beyond the first starts unowned, so the
    improved style must skip early marks and still validate."""
    machine = Machine(MachineConfig(processors=4))
    scheme = ProcessOrientedScheme(style="improved", n_counters=1)
    result = scheme.run(fig21, config=RunConfig(machine=machine))
    assert result.makespan > 0


def test_improved_fewer_or_equal_sync_writes_than_basic(fig21):
    machine = Machine(MachineConfig(processors=4))
    basic = ProcessOrientedScheme(style="basic", n_counters=2).run(
        fig21, config=RunConfig(machine=machine))
    improved = ProcessOrientedScheme(style="improved", n_counters=2).run(
        fig21, config=RunConfig(machine=machine))
    assert improved.sync_transactions <= basic.sync_transactions


def test_coverage_reduces_broadcasts(fig21, machine4):
    on = ProcessOrientedScheme(coverage=True).run(
        fig21, config=RunConfig(machine=machine4))
    off = ProcessOrientedScheme(coverage=False).run(
        fig21, config=RunConfig(machine=machine4))
    assert on.covered_writes >= 0
    assert off.covered_writes == 0
    assert on.sync_transactions <= off.sync_transactions


def test_charge_init_flag(fig21, machine4):
    charged = ProcessOrientedScheme(charge_init=True).run(
        fig21, config=RunConfig(machine=machine4))
    free = ProcessOrientedScheme(charge_init=False).run(
        fig21, config=RunConfig(machine=machine4))
    assert charged.init_cycles > 0
    assert free.init_cycles == 0
    # init is tiny: a handful of broadcast writes, not per-element work
    assert charged.init_cycles < 200


def test_nested_loop_via_lpids(nested, machine4):
    result = ProcessOrientedScheme(processors=4).run(
        nested, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_branchy_loop(branchy, machine4):
    for eager in (True, False):
        scheme = ProcessOrientedScheme(eager_branch_marks=eager)
        result = scheme.run(branchy, config=RunConfig(machine=machine4))
        assert result.makespan > 0


def test_static_schedules_also_work(fig21):
    for schedule in ("cyclic", "block"):
        machine = Machine(MachineConfig(processors=4, schedule=schedule))
        result = ProcessOrientedScheme(processors=4).run(
            fig21, config=RunConfig(machine=machine))
        assert result.makespan > 0


def test_unpruned_plan_still_correct(fig21, machine4):
    result = ProcessOrientedScheme(prune="none").run(
        fig21, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_invalid_style_rejected():
    with pytest.raises(ValueError):
        ProcessOrientedScheme(style="fancy")


def test_sync_vars_independent_of_loop_size(machine4):
    """The headline claim: X does not grow with N."""
    scheme = ProcessOrientedScheme(n_counters=16)
    small = scheme.run(fig21_loop(n=10), config=RunConfig(machine=machine4))
    large = scheme.run(fig21_loop(n=60), config=RunConfig(machine=machine4))
    assert small.sync_vars == large.sync_vars == 16
