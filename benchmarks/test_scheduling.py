"""E14 -- scheduling-order ablation (the paper's [23, 24]).

The paper assumes dynamic self-scheduling throughout and cites Tang,
Yew & Zhu's finding that the *order* of self-scheduling matters for
DOACROSS loops.  This bench reproduces both halves:

* for a DOALL, chunked/guided grabs cut scheduling traffic at no cost;
* for a DOACROSS, fine-grained order (self/cyclic) is essential --
  handing one processor consecutive iterations serializes the
  dependence pipeline, and static block partitioning is worst.
"""

from __future__ import annotations

from repro.apps.kernels import doall_loop, fig21_loop
from repro.report import print_table
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig, SCHED_COUNTER

P = 8
SCHEDULES = ("self", "chunk", "guided", "cyclic", "block")


def grabs_in(result):
    return len([r for r in result.trace if r.addr == SCHED_COUNTER])


def run_schedules():
    scheme = ProcessOrientedScheme()
    rows = {}
    doall = doall_loop(n=160, cost=8)
    doacross = fig21_loop(n=96)
    for schedule in SCHEDULES:
        machine = Machine(MachineConfig(processors=P, schedule=schedule,
                                        chunk_size=8))
        rows[("doall", schedule)] = scheme.run(
            doall, config=RunConfig(machine=machine))
        rows[("doacross", schedule)] = scheme.run(
            doacross, config=RunConfig(machine=machine))
    return rows


def test_scheduling_order(once):
    rows = once(run_schedules)

    # DOALL: chunking cuts grab traffic without losing time
    assert (grabs_in(rows[("doall", "chunk")])
            < grabs_in(rows[("doall", "self")]) / 4)
    assert (rows[("doall", "chunk")].makespan
            <= rows[("doall", "self")].makespan * 1.1)

    # DOACROSS: fine-grained order wins; consecutive-iteration policies
    # (chunk, block) serialize the pipeline
    fine = min(rows[("doacross", "self")].makespan,
               rows[("doacross", "cyclic")].makespan)
    assert rows[("doacross", "chunk")].makespan > 1.3 * fine
    assert rows[("doacross", "block")].makespan > 1.3 * fine

    print_table(
        ["loop", "schedule", "makespan", "sched grabs", "spin frac"],
        [[loop, schedule, r.makespan, grabs_in(r),
          round(r.spin_fraction, 3)]
         for (loop, schedule), r in sorted(rows.items())],
        title="Scheduling order ([23,24]): DOALL vs DOACROSS under five "
              "policies (chunk size 8)")
