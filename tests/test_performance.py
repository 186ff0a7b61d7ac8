"""Performance smoke tests: the simulator stays usable at real sizes.

Not micro-benchmarks (those live in benchmarks/), just guards that keep
the event engine's complexity honest: a few hundred thousand simulated
events must finish in seconds, and event counts must scale linearly in
the work simulated.
"""

from __future__ import annotations

import time

from repro.apps.kernels import fig21_loop
from repro.apps.relaxation import PipelinedRelaxation, run_relaxation
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig


def test_large_doacross_runs_quickly():
    loop = fig21_loop(n=600)
    machine = Machine(MachineConfig(processors=16, metrics="counters"))
    start = time.perf_counter()
    result = ProcessOrientedScheme(processors=16).run(
        loop, config=RunConfig(machine=machine, validate=False))
    elapsed = time.perf_counter() - start
    assert result.makespan > 0
    assert elapsed < 15.0, f"600-iteration simulation took {elapsed:.1f}s"


def test_large_relaxation_runs_quickly():
    start = time.perf_counter()
    result = run_relaxation(PipelinedRelaxation(48, group=2),
                            processors=16, validate=False)
    elapsed = time.perf_counter() - start
    assert result.makespan > 0
    assert elapsed < 15.0, f"48x48 relaxation took {elapsed:.1f}s"


def test_simulation_cost_scales_linearly():
    """Doubling the loop roughly doubles wall time (no superlinear
    blowup in the event queue)."""
    machine = Machine(MachineConfig(processors=8, metrics="counters"))
    scheme = ProcessOrientedScheme(processors=8)

    def wall(n):
        loop = fig21_loop(n=n)
        start = time.perf_counter()
        scheme.run(loop, config=RunConfig(machine=machine, validate=False))
        return time.perf_counter() - start

    wall(50)                      # warm-up
    small = max(wall(100), 1e-4)
    large = wall(400)
    assert large / small < 12, (small, large)
