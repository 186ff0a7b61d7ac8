"""E13 -- section 6 hardware ablations.

* write coverage: queued PC writes folded into one broadcast reduce bus
  transactions without changing results;
* split two-field updates: correct (step-first), one extra broadcast per
  transfer;
* coverage pruning of the dependence graph: fewer waits, same results;
* self-scheduling vs static scheduling under imbalance.
"""

from __future__ import annotations

from repro.apps.kernels import fig21_loop, fig21_loop_with_delay
from repro.report import print_table
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig

N = 100
P = 8


def run_ablations():
    machine = Machine(MachineConfig(processors=P))
    loop = fig21_loop(n=N)
    rows = {}
    # a congested bus (tiny X forces mark skips and queued writes; the
    # relaxation-style many-marks pattern benefits most from coverage)
    rows["coverage=on"] = ProcessOrientedScheme(
        coverage=True).run(loop, config=RunConfig(machine=machine))
    rows["coverage=off"] = ProcessOrientedScheme(
        coverage=False).run(loop, config=RunConfig(machine=machine))
    rows["fields=atomic"] = ProcessOrientedScheme(
        split_fields=False).run(loop, config=RunConfig(machine=machine))
    rows["fields=split"] = ProcessOrientedScheme(
        split_fields=True).run(loop, config=RunConfig(machine=machine))
    rows["prune=exact"] = ProcessOrientedScheme(
        prune="exact").run(loop, config=RunConfig(machine=machine))
    rows["prune=none"] = ProcessOrientedScheme(
        prune="none").run(loop, config=RunConfig(machine=machine))

    # a genuinely congested bus (slow broadcasts, cheap statements):
    # queued same-PC writes exist, so coverage actually fires
    cheap = fig21_loop(n=N, cost=1)
    for cov in (True, False):
        rows[f"busy-bus coverage={'on' if cov else 'off'}"] = \
            ProcessOrientedScheme(
                coverage=cov,
                fabric_kwargs={"bus_service": 12}).run(
                    cheap, config=RunConfig(machine=machine))

    imbalanced = fig21_loop_with_delay(n=N, slow_iteration=N // 2,
                                       slow_cost=600)
    for schedule in ("self", "block"):
        machine_s = Machine(MachineConfig(processors=P, schedule=schedule))
        rows[f"schedule={schedule}"] = ProcessOrientedScheme().run(
            imbalanced, config=RunConfig(machine=machine_s))
    return rows


def test_hw_ablation(once):
    rows = once(run_ablations)

    # coverage never increases transactions, never changes correctness
    assert (rows["coverage=on"].sync_transactions
            <= rows["coverage=off"].sync_transactions)
    assert rows["coverage=off"].covered_writes == 0

    # on a congested bus it saves real broadcasts and real time
    busy_on = rows["busy-bus coverage=on"]
    busy_off = rows["busy-bus coverage=off"]
    assert busy_on.covered_writes > 50
    assert busy_on.sync_transactions < busy_off.sync_transactions
    assert busy_on.makespan < busy_off.makespan

    # split fields: one extra broadcast per release, still correct
    assert (rows["fields=split"].sync_transactions
            >= rows["fields=atomic"].sync_transactions + N)

    # pruning drops the covered S1->S4 and S1->S5 waits: fewer sync ops
    assert (rows["prune=exact"].total_sync_ops
            < rows["prune=none"].total_sync_ops)
    assert rows["prune=exact"].makespan <= rows["prune=none"].makespan * 1.1

    # self-scheduling absorbs the slow iteration better than static
    # block partitioning (the paper assumes dynamic scheduling [23,24])
    assert (rows["schedule=self"].makespan
            <= rows["schedule=block"].makespan)

    print_table(
        ["configuration", "makespan", "sync tx", "covered", "sync ops"],
        [[key, r.makespan, r.sync_transactions, r.covered_writes,
          r.total_sync_ops]
         for key, r in rows.items()],
        title=f"Section 6 ablations: Fig 2.1 loop, N={N}, P={P}")
