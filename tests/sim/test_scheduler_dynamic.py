"""Chunked and guided self-scheduling (Tang & Yew [23, 24])."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.apps.kernels import doall_loop, fig21_loop_with_delay
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig, SCHED_COUNTER
from repro.sim.scheduler import ChunkSelfScheduler, GuidedSelfScheduler


def drain(scheduler, n_processors):
    taken = {p: [] for p in range(n_processors)}
    live = set(range(n_processors))
    while live:
        for p in sorted(live):
            value = scheduler.next_for(p)
            if value is None:
                live.discard(p)
            else:
                taken[p].append(value)
    return taken


def test_chunk_scheduler_contiguous_chunks():
    scheduler = ChunkSelfScheduler(list(range(1, 11)), chunk=3)
    first = [scheduler.next_for(0) for _ in range(3)]
    assert first == [1, 2, 3]
    assert scheduler.next_for(1) == 4  # next chunk to another processor


def test_chunk_scheduler_shared_grab_only_on_refill():
    scheduler = ChunkSelfScheduler(list(range(6)), chunk=3)
    assert scheduler.needs_shared_grab(0)
    scheduler.next_for(0)
    assert not scheduler.needs_shared_grab(0)  # 2 left locally
    scheduler.next_for(0)
    scheduler.next_for(0)
    assert scheduler.needs_shared_grab(0)      # queue empty again


def test_chunk_validation():
    with pytest.raises(ValueError):
        ChunkSelfScheduler([1], chunk=0)
    with pytest.raises(ValueError):
        GuidedSelfScheduler([1], n_processors=0)


def test_guided_chunks_shrink():
    scheduler = GuidedSelfScheduler(list(range(64)), n_processors=4)
    # grab everything on one processor to observe the shrinking sizes
    while True:
        value = scheduler.next_for(0)
        if value is None:
            break
    # reconstruct chunk sizes from the grabs counter
    assert scheduler.grabs > 4          # more than static quarters
    assert scheduler.grabs < 64         # far fewer than per-iteration


@given(st.lists(st.integers(), max_size=60, unique=True),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=8))
def test_chunked_policies_exhaustive(items, chunk, processors):
    for scheduler in (ChunkSelfScheduler(items, chunk=chunk),
                      GuidedSelfScheduler(items, n_processors=processors)):
        taken = drain(scheduler, processors)
        flat = [value for queue in taken.values() for value in queue]
        assert sorted(flat) == sorted(items)


def grabs_in(result):
    return len([r for r in result.trace if r.addr == SCHED_COUNTER])


def test_chunking_cuts_scheduling_traffic_on_doall():
    """For independent iterations chunking is a pure win on grab
    traffic (the point of [24])."""
    loop = doall_loop(n=120, cost=8)
    scheme = ProcessOrientedScheme()
    plain = scheme.run(loop, config=RunConfig(machine=Machine(MachineConfig(
        processors=8, schedule="self"))))
    chunked = scheme.run(loop, config=RunConfig(machine=Machine(MachineConfig(
        processors=8, schedule="chunk", chunk_size=8))))
    guided = scheme.run(loop, config=RunConfig(machine=Machine(MachineConfig(
        processors=8, schedule="guided"))))
    assert grabs_in(chunked) < grabs_in(plain) / 4
    assert grabs_in(guided) < grabs_in(plain) / 2
    assert chunked.makespan <= plain.makespan * 1.1


def test_chunking_hurts_doacross_pipelines():
    """For DOACROSS loops, giving one processor consecutive iterations
    serializes the dependence chain -- the scheduling-order effect of
    [23]: fine-grained (self/cyclic) order beats chunked order."""
    loop = fig21_loop_with_delay(n=80, slow_iteration=40, slow_cost=400)
    scheme = ProcessOrientedScheme()
    plain = scheme.run(loop, config=RunConfig(machine=Machine(MachineConfig(
        processors=8, schedule="self"))))
    chunked = scheme.run(loop, config=RunConfig(machine=Machine(MachineConfig(
        processors=8, schedule="chunk", chunk_size=8))))
    assert chunked.makespan > 1.5 * plain.makespan


def test_all_schedules_still_correct():
    loop = fig21_loop_with_delay(n=40, slow_iteration=20, slow_cost=200)
    scheme = ProcessOrientedScheme()
    for schedule in ("self", "chunk", "guided", "cyclic", "block"):
        machine = Machine(MachineConfig(processors=4, schedule=schedule))
        result = scheme.run(
            loop, config=RunConfig(machine=machine))  # validates
        assert result.makespan > 0


def test_machine_config_chunk_validation():
    with pytest.raises(ValueError):
        MachineConfig(chunk_size=0)
