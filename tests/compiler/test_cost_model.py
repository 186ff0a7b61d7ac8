"""Cost estimates must track what the simulator actually spends."""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.compiler.cost_model import estimate_all
from repro.depend.graph import DependenceGraph
from repro.schemes import RunConfig, make_scheme
from repro.sim import Machine, MachineConfig


@pytest.fixture(scope="module")
def estimates_and_runs():
    loop = fig21_loop(n=60)
    graph = DependenceGraph(loop)
    estimates = estimate_all(loop, graph, processors=8)
    config = RunConfig(machine=Machine(MachineConfig(processors=8)))
    runs = {name: make_scheme(name).run(loop, config=config)
            for name in estimates}
    return estimates, runs


def test_sync_vars_estimated_exactly(estimates_and_runs):
    estimates, runs = estimates_and_runs
    for name in ("reference-based", "instance-based",
                 "statement-oriented"):
        assert estimates[name].sync_vars == runs[name].sync_vars, name
    # process-oriented: the estimator sizes X by the paper's rule
    assert estimates["process-oriented"].sync_vars == 16


def test_sync_ops_estimated_within_factor(estimates_and_runs):
    """The static op counts should be the right order of magnitude of
    the simulated counts (boundary skips and retries cause slack)."""
    estimates, runs = estimates_and_runs
    for name, estimate in estimates.items():
        simulated = runs[name].total_sync_ops
        assert 0.4 * estimate.sync_ops <= simulated <= 2.5 * estimate.sync_ops, \
            (name, estimate.sync_ops, simulated)


def test_ordering_of_variable_counts(estimates_and_runs):
    estimates, _runs = estimates_and_runs
    assert (estimates["statement-oriented"].sync_vars
            < estimates["process-oriented"].sync_vars
            < estimates["reference-based"].sync_vars
            < estimates["instance-based"].sync_vars)


def test_flags(estimates_and_runs):
    estimates, _runs = estimates_and_runs
    assert estimates["process-oriented"].free_spinning
    assert estimates["statement-oriented"].free_spinning
    assert estimates["statement-oriented"].serializes_statements
    assert not estimates["process-oriented"].serializes_statements
    assert not estimates["reference-based"].free_spinning


def test_init_writes_scale(estimates_and_runs):
    estimates, _runs = estimates_and_runs
    assert estimates["reference-based"].init_writes == 64  # N + 4
    assert estimates["process-oriented"].init_writes == 16


def test_ops_per_iteration(estimates_and_runs):
    estimates, _runs = estimates_and_runs
    per_iter = estimates["process-oriented"].ops_per_iteration(60)
    assert 5 <= per_iter <= 12  # ~4 waits + 3 marks + transfer
