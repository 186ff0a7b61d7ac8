"""Shared fixtures: canonical loops and machines."""

from __future__ import annotations

import pytest

from repro.apps.kernels import (doall_loop, example2_loop, example3_loop,
                                fig21_loop, recurrence_loop)
from repro.lab import SweepCell
from repro.lab.runner import execute_cell
from repro.sim import Machine, MachineConfig


@pytest.fixture
def fig21():
    """The paper's running example, small enough for fast simulation."""
    return fig21_loop(n=30)


@pytest.fixture
def nested():
    """The multiply-nested Example 2 loop."""
    return example2_loop(n=6, m=4)


@pytest.fixture
def branchy():
    """The Example 3 loop with sources in branches."""
    return example3_loop(n=24)


@pytest.fixture
def recurrence():
    return recurrence_loop(n=20)


@pytest.fixture
def doall():
    return doall_loop(n=20)


@pytest.fixture
def machine4():
    """A 4-processor self-scheduled machine."""
    return Machine(MachineConfig(processors=4))


@pytest.fixture
def machine8():
    """An 8-processor self-scheduled machine."""
    return Machine(MachineConfig(processors=8))


@pytest.fixture
def fault_record():
    """Run one fault-plan cell of the Fig 2.1 loop (cost 8, every wait
    bounded at 100,000 polls) through the sweep runner; returns its
    record."""
    def run(scheme, plan, seed=0, *, n=16, processors=4, recover=False):
        cell = SweepCell(app="fig2.1", app_params=(("cost", 8), ("n", n)),
                         scheme=scheme, processors=processors, seed=seed,
                         wait_bound=100_000, plan=plan, recover=recover)
        return execute_cell(cell.config())
    return run
