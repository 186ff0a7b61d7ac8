"""SupervisedExecutor's one-shot path: a private PoolSupervisor batch.

Off the inline path, ``SupervisedExecutor.run`` is a single batch on a
pool it owns.  A hook that raises must re-raise in the caller, and the
pool must be torn down with it: no worker process outlives the call.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.lab import SupervisedExecutor


def _double(item):
    return item * 2


class HookError(RuntimeError):
    pass


def test_raising_on_result_reraises_and_leaves_no_workers():
    landed = []

    def on_result(index, key, result):
        landed.append(index)
        raise HookError("caller gave up")

    executor = SupervisedExecutor(_double, procs=2)
    with pytest.raises(HookError, match="caller gave up"):
        executor.run(list(range(8)), on_result=on_result)
    assert len(landed) == 1
    assert multiprocessing.active_children() == []


def test_hooks_run_on_the_supervision_thread():
    threads = set()
    executor = SupervisedExecutor(_double, procs=2)
    outcome = executor.run(
        list(range(4)),
        on_result=lambda i, k, r: threads.add(threading.current_thread()),
        on_dispatch=lambda i, k, a: threads.add(threading.current_thread()))
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

    executor = SupervisedExecutor(_double, procs=2, validate=validate)
    with pytest.raises(HookError, match="validator broke"):
        executor.run(list(range(4)))
    assert multiprocessing.active_children() == []
