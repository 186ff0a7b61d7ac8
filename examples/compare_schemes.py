#!/usr/bin/env python3
"""Compare all four synchronization schemes on one DOACROSS loop.

Reproduces the paper's section 3 taxonomy as a measurement: the same
loop (Fig. 2.1, plus a variant with one artificially slow iteration)
runs under

* reference-based keys (Cedar),
* instance-based full/empty bits (HEP),
* statement counters (Alliant Advance/Await),
* process counters (the paper's proposal),

and the table shows where each scheme pays: synchronization variables,
initialization, busy-wait traffic, and sensitivity to a delayed
iteration (horizontal vs vertical sharing).

Run:  python examples/compare_schemes.py [N] [P]
"""

import sys

from repro.apps.kernels import fig21_loop, fig21_loop_with_delay
from repro.report import print_table
from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.sim import Machine, MachineConfig


def main(n: int = 120, processors: int = 8) -> None:
    machine = Machine(MachineConfig(processors=processors))
    plain = fig21_loop(n=n)
    delayed = fig21_loop_with_delay(n=n, slow_iteration=n // 3,
                                    slow_cost=800)

    rows = []
    for name in scheme_names():
        scheme = make_scheme(name)
        result = scheme.run(plain, config=RunConfig(machine=machine))
        slow = scheme.run(delayed, config=RunConfig(machine=machine))
        rows.append([
            name, result.sync_vars, result.sync_storage_words,
            result.init_cycles, result.sync_transactions,
            result.makespan, round(result.utilization, 3),
            slow.makespan - result.makespan,
        ])

    print_table(
        ["scheme", "sync vars", "storage", "init", "sync tx",
         "makespan", "util", "delay penalty"],
        rows,
        title=f"Fig 2.1 loop, N={n}, P={processors} "
              "(delay penalty: extra cycles when one S1 takes 800)")

    print("\nreading the table:")
    print(" * data-oriented schemes (rows 1-2) pay O(N) variables and")
    print("   initialization, and poll through the memory system;")
    print(" * the statement-oriented scheme is cheap but serializes each")
    print("   statement across iterations -> the delay penalty row;")
    print(" * the process-oriented scheme uses a constant number of")
    print("   counters and confines a delay to the dependent iterations.")


if __name__ == "__main__":
    arguments = [int(a) for a in sys.argv[1:3]]
    main(*arguments)
