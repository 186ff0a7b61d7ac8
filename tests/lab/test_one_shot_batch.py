"""A one-shot batch on a private PoolSupervisor with worker processes.

A hook that raises must re-raise in the caller, and closing the pool
tears its workers down: no worker process outlives it.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.lab import PoolSupervisor


def _double(item):
    return item * 2


class HookError(RuntimeError):
    pass


def test_raising_on_result_reraises_and_leaves_no_workers():
    landed = []

    def on_result(index, key, result):
        landed.append(index)
        raise HookError("caller gave up")

    with PoolSupervisor(_double, procs=2) as pool:
        with pytest.raises(HookError, match="caller gave up"):
            pool.run_batch(list(range(8)), on_result=on_result)
    assert len(landed) == 1
    assert multiprocessing.active_children() == []


def test_hooks_run_on_the_supervision_thread():
    threads = set()
    with PoolSupervisor(_double, procs=2) as pool:
        outcome = pool.run_batch(
            list(range(4)),
            on_result=lambda i, k, r: threads.add(
                threading.current_thread()),
            on_dispatch=lambda i, k, a: threads.add(
                threading.current_thread()))
    assert outcome.results == {i: i * 2 for i in range(4)}
    assert threading.current_thread() not in threads
    assert [thread.name for thread in threads] == ["pool-supervisor"]
    assert multiprocessing.active_children() == []


def test_supervision_thread_error_reraises_in_the_caller():
    """An error inside the supervision loop itself (here a raising
    ``validate`` hook) reaches the caller; it never hangs or turns into
    a silent cancellation."""
    def validate(result, key):
        raise HookError(f"validator broke on {key}")

    with PoolSupervisor(_double, procs=2, validate=validate) as pool:
        with pytest.raises(HookError, match="validator broke"):
            pool.run_batch(list(range(4)))
    assert multiprocessing.active_children() == []
