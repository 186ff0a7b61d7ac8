"""E16 -- section 6's two PC storage options, head to head.

"The PC's could be incorporated in a hardware-maintained coherent cache
system, even though they may be purged out of a cache.  To reduce the
access time of a PC and the impact of busy-waiting traffic, we can use a
dedicated synchronization bus and some synchronization registers..."

The bench quantifies why the paper prefers the bus:

* both options make quiet spinning free (cache hits / local images);
* but every counter *change* costs the cache one miss per watcher,
  versus one broadcast total on the bus;
* a small cache (counters "purged out") degrades further.
"""

from __future__ import annotations

from repro.apps.kernels import fig21_loop
from repro.report import print_table
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig

N = 100
P = 8


def run_fabrics():
    machine = Machine(MachineConfig(processors=P))
    loop = fig21_loop(n=N)
    rows = {}
    rows["broadcast bus"] = ProcessOrientedScheme(
        fabric="broadcast").run(loop, config=RunConfig(machine=machine))
    rows["coherent cache"] = ProcessOrientedScheme(
        fabric="cached").run(loop, config=RunConfig(machine=machine))
    rows["coherent cache (4 lines)"] = ProcessOrientedScheme(
        fabric="cached", fabric_kwargs={"capacity": 4}).run(
            loop, config=RunConfig(machine=machine))
    return rows


def test_pc_storage_options(once):
    rows = once(run_fabrics)

    bus = rows["broadcast bus"]
    cache = rows["coherent cache"]
    tiny = rows["coherent cache (4 lines)"]

    # the cache pays a miss per watcher per change: more transactions
    assert cache.sync_transactions > bus.sync_transactions
    # purging (tiny capacity) only adds misses
    assert tiny.sync_transactions >= cache.sync_transactions
    # the bus wins on makespan
    assert bus.makespan <= cache.makespan
    # both spin cheaply: busy-wait fraction stays small in either model
    assert bus.spin_fraction < 0.2 and cache.spin_fraction < 0.2

    print_table(
        ["PC storage", "makespan", "sync tx", "hot spot", "spin frac"],
        [[key, r.makespan, r.sync_transactions, r.memory_hotspot,
          round(r.spin_fraction, 3)]
         for key, r in rows.items()],
        title=f"Section 6: PC storage options, Fig 2.1 loop, N={N}, "
              f"P={P}")
