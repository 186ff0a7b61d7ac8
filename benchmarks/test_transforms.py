"""E18 -- loop transformations through the generic machinery.

Fig. 5.1(c)'s "loop index transformation" and grouping, as IR-level
compiler transforms rather than hand-built workloads:

* ``wavefront()`` (skew + interchange) turns the relaxation nest into a
  diagonal-major nest whose inner level carries nothing; run through the
  ordinary process-oriented scheme it recovers most of the hand-built
  pipeline's performance;
* ``strip_mine()`` exposes the strip loop for coarser synchronization --
  the analyzer proves the strip-mined refs' multiple constant distances
  and the plan collapses to the original arcs.
"""

from __future__ import annotations

from repro.apps.kernels import fig21_loop, relaxation_loop
from repro.depend import DependenceGraph
from repro.depend.transform import inner_loop_parallel, strip_mine, wavefront
from repro.report import print_table
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig

P = 8
GRID = 14


def run_transform_study():
    machine = Machine(MachineConfig(processors=P))
    scheme = ProcessOrientedScheme(processors=P)
    rows = {}

    original = relaxation_loop(n=GRID)
    transformed = wavefront(original)
    rows["relaxation original"] = scheme.run(
        original, config=RunConfig(machine=machine))
    rows["relaxation wavefronted"] = scheme.run(
        transformed, config=RunConfig(machine=machine))

    flat = fig21_loop(n=60, cost=4)
    rows["fig2.1 flat"] = scheme.run(flat, config=RunConfig(machine=machine))
    for width in (3, 6):
        stripped = strip_mine(flat, level=0, width=width)
        rows[f"fig2.1 strip w={width}"] = scheme.run(
            stripped, config=RunConfig(machine=machine))
    return rows, transformed


def test_transforms(once):
    rows, transformed = once(run_transform_study)

    # the wavefronted nest's inner level is dependence-free
    assert inner_loop_parallel(transformed)
    assert not inner_loop_parallel(relaxation_loop(n=GRID))

    # Direct per-point coalescing of the relaxation is a trap: the
    # (0,1) arc linearizes to distance 1, chaining every consecutive
    # lpid -- a fully serial pipeline drowning in spin.  That is exactly
    # why Example 1 pipelines whole *rows* instead.  Wavefronting fixes
    # it at the IR level: the inner (diagonal) level carries nothing.
    direct = rows["relaxation original"]
    wavefronted = rows["relaxation wavefronted"]
    assert direct.spin_fraction > 0.5          # the serial-chain symptom
    assert wavefronted.makespan < 0.5 * direct.makespan
    assert wavefronted.spin_fraction < 0.3

    # strip-mining: the plan still has the original arcs (multi-distance
    # coalescing) and execution stays correct and comparable
    flat = rows["fig2.1 flat"]
    for width in (3, 6):
        stripped = rows[f"fig2.1 strip w={width}"]
        assert stripped.makespan < 2.0 * flat.makespan

    arcs_flat = {(a.src, a.dst, a.distance) for a in
                 DependenceGraph(fig21_loop(n=60)).pruned_sync_arcs()}
    arcs_strip = {(a.src, a.dst, a.distance) for a in DependenceGraph(
        strip_mine(fig21_loop(n=60), 0, 3)).pruned_sync_arcs()}
    assert arcs_flat == arcs_strip

    print_table(
        ["configuration", "makespan", "sync vars", "sync tx",
         "spin frac"],
        [[key, r.makespan, r.sync_vars, r.sync_transactions,
          round(r.spin_fraction, 3)]
         for key, r in rows.items()],
        title="IR transforms under the process-oriented scheme "
              f"(P={P}): wavefronting and strip-mining")
