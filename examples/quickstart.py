#!/usr/bin/env python3
"""Quickstart: analyze a loop, plan its synchronization, simulate it.

Walks the paper's pipeline end to end on the running example of
Fig. 2.1:

1. express the loop in the IR,
2. compute its data dependence graph and classify it (DOACROSS),
3. build the process-oriented synchronization plan (Fig. 4.2(b)),
4. simulate it on an 8-processor machine and validate the execution
   against sequential semantics.

Run:  python examples/quickstart.py
"""

from repro.apps.kernels import fig21_loop
from repro.core import build_sync_plan
from repro.depend import DependenceGraph, classify
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig


def main() -> None:
    # 1. the loop of Fig. 2.1(a)
    loop = fig21_loop(n=100)
    print(f"loop {loop.name!r}: {loop.n_iterations} iterations, "
          f"{len(loop.body)} statements")

    # 2. dependence analysis
    graph = DependenceGraph(loop)
    print("\ndata dependences (Fig. 2.1(b)):")
    for dep in graph.dependences:
        print(f"  {dep}")
    outcome = classify(loop)
    print(f"classification: {outcome.label} ({outcome.reason})")

    # 3. the synchronization plan the compiler would emit (Fig. 4.2(b))
    plan = build_sync_plan(loop)
    print("\ntransformed DOACROSS loop:")
    print(plan.pseudocode())

    # 4. simulate under the process-oriented scheme
    scheme = ProcessOrientedScheme(processors=8)
    machine = Machine(MachineConfig(processors=8))
    result = scheme.run(
        loop, config=RunConfig(machine=machine))  # validates automatically

    print("\nsimulated execution on 8 processors "
          "(validated against sequential semantics):")
    for key, value in result.summary().items():
        print(f"  {key:22s} {value}")
    serial = loop.serial_cycles()
    print(f"  {'speedup vs serial':22s} "
          f"{result.speedup_over(serial):.2f}x "
          f"(serial compute = {serial} cycles)")


if __name__ == "__main__":
    main()
