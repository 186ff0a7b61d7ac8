"""E5/E6 -- Figs. 4.1-4.3: the process-oriented scheme itself.

Shape claims:

* synchronization variables = X, constant in N (the headline);
* the X sweep: tiny X throttles the pipeline, X ~ 2P saturates;
* the improved primitives (Fig. 4.3) never broadcast more than the basic
  ones and shed ownership waits when counters arrive late.
"""

from __future__ import annotations

from repro.apps.kernels import fig21_loop
from repro.report import print_table
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig

P = 8


def run_fig4():
    machine = Machine(MachineConfig(processors=P))
    results = {}
    # N sweep at fixed X
    for n in (50, 100, 200):
        results[("N", n)] = ProcessOrientedScheme(n_counters=16).run(
            fig21_loop(n=n), config=RunConfig(machine=machine))
    # X sweep at fixed N
    for x in (1, 2, 4, 16, 64):
        results[("X", x)] = ProcessOrientedScheme(n_counters=x).run(
            fig21_loop(n=100), config=RunConfig(machine=machine))
    # primitive styles under scarce counters (ownership arrives late)
    for style in ("basic", "improved"):
        results[("style", style)] = ProcessOrientedScheme(
            n_counters=2, style=style).run(
                fig21_loop(n=100), config=RunConfig(machine=machine))
    return results


def test_fig4_process_counters(once):
    results = once(run_fig4)

    # sync vars constant in N
    assert (results[("N", 50)].sync_vars
            == results[("N", 200)].sync_vars == 16)
    # and initialization does not grow with N either
    assert (results[("N", 200)].init_cycles
            == results[("N", 50)].init_cycles)

    # X sweep: loop time (net of init) weakly improves, then saturates
    def net(x):
        r = results[("X", x)]
        return r.makespan - r.init_cycles

    assert net(16) <= net(1)
    assert abs(net(64) - net(16)) <= 0.05 * net(16) + 10

    # improved <= basic in broadcasts under scarce counters
    basic = results[("style", "basic")]
    improved = results[("style", "improved")]
    assert improved.sync_transactions <= basic.sync_transactions
    assert improved.makespan <= basic.makespan * 1.05

    print_table(
        ["config", "makespan", "net loop", "sync vars", "sync tx",
         "covered", "spin frac"],
        [[f"{kind}={value}", r.makespan, r.makespan - r.init_cycles,
          r.sync_vars, r.sync_transactions, r.covered_writes,
          round(r.spin_fraction, 3)]
         for (kind, value), r in results.items()],
        title="Fig 4: process-oriented scheme (N sweep, X sweep, "
              "basic vs improved primitives)")
