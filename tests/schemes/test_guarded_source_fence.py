"""Regression: skipped sources must still fence before signalling.

Arc pruning lets a sink infer an *earlier* statement's completion from a
*later* source's counter/step: Advance(S2)@i (statement-oriented) or
publishing step(S1)@i (process-oriented) implies everything
program-order-before it in process i is done.  With posted writes,
"done" must mean *globally visible* -- so the fence preceding the signal
has to run even when a guard skipped the signalling statement itself,
or an earlier statement's in-flight write leaks past the
synchronization (a stale-read corruption found by the cross-scheme
property test under harsh timing).
"""

from __future__ import annotations

import pytest

from repro.depend.model import Loop, Statement, ref1
from repro.schemes import RunConfig, make_scheme
from repro.sim import Machine, MachineConfig, MemoryConfig

#: slow posted writes + fast synchronization: the regime where a signal
#: can race ahead of its data
HARSH = MemoryConfig(latency=2, write_latency=40)
FAST_BUS = {"bus_service": 1, "propagation": 0, "issue_cost": 0}


def guarded_cover_loop(m: int) -> Loop:
    """S0's flow arc (d=1) is pruned, covered through guarded S1/S2."""
    guard = (lambda mm: lambda index: index[0] % mm != 0)(m)
    return Loop("guarded-cover", bounds=((1, 8),), body=[
        Statement("S0", writes=(ref1("A", 1, -2),), reads=(), cost=1),
        Statement("S1", writes=(ref1("B", 1, -1),), reads=(), cost=1,
                  guard=guard),
        Statement("S2", writes=(), reads=(ref1("B", 1, -2),), cost=1),
        Statement("S3", writes=(), reads=(ref1("A", 1, -3),), cost=1),
    ])


def statement_oriented_loop(m: int) -> Loop:
    """The falsifying shape for Advance chains: a guarded *sink* whose
    Advance covers the unguarded S0->S1 flow arc."""
    guard = (lambda mm: lambda index: index[0] % mm != 0)(m)
    return Loop("guarded-advance", bounds=((1, 6),), body=[
        Statement("S0", writes=(ref1("A", 1, -2),), reads=(), cost=1),
        Statement("S1", writes=(), reads=(ref1("A", 1, -3),), cost=1),
        Statement("S2", writes=(), reads=(ref1("A", 1, -1),), cost=1,
                  guard=guard),
        Statement("S3", writes=(), reads=(ref1("A", 1, 0),), cost=1),
    ])


@pytest.mark.parametrize("m", [2, 3])
def test_statement_oriented_fences_on_skipped_paths(m):
    machine = Machine(MachineConfig(processors=4, memory=HARSH))
    make_scheme("statement-oriented").run(
        statement_oriented_loop(m),
        config=RunConfig(machine=machine, validate=True))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("style", ["basic", "improved"])
@pytest.mark.parametrize("schedule", ["self", "block"])
def test_process_oriented_fences_on_skipped_paths(m, style, schedule):
    machine = Machine(MachineConfig(processors=4, schedule=schedule,
                                    memory=HARSH))
    scheme = make_scheme("process-oriented", style=style,
                         fabric_kwargs=FAST_BUS)
    scheme.run(guarded_cover_loop(m),
               config=RunConfig(machine=machine, validate=True))
