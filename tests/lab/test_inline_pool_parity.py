"""The inline path and the process pool settle attempts the same way.

One cell function fails on some items every time, has its result
rejected by ``validate`` on others, and succeeds on the rest.  The
inline path and a 2-worker pool must agree on every result, every
quarantined failure (index, key, reason, attempts, detail) and every
attempt count.  A raising ``on_result`` on the inline path re-raises
in the caller, and no later cell runs after it.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.lab import ExecutorChaos, PoolSupervisor

ITEMS = list(range(10))
KEYS = [f"cell-{item}" for item in ITEMS]


def _cell(item):
    if item % 3 == 0:
        raise ValueError(f"item {item} always fails")
    return item * 10


def _validate(result, key):
    return f"{key} rejected" if result % 4 == 0 else None


def _settle(outcome):
    failures = sorted((f.index, f.key, f.reason, f.attempts, f.detail)
                      for f in outcome.failures)
    return outcome.results, failures, outcome.attempts


def _run_inline(fn, items, keys=None, **hooks):
    with PoolSupervisor(fn, procs=0, max_retries=2, backoff_base=0.001,
                        validate=_validate) as pool:
        return pool.run_batch(items, keys=keys, **hooks)


def test_inline_and_pool_settle_identically():
    inline = _run_inline(_cell, ITEMS, keys=KEYS)
    with PoolSupervisor(_cell, procs=2, max_retries=2, backoff_base=0.001,
                        validate=_validate) as pool:
        pooled = pool.run_batch(ITEMS, keys=KEYS)
    assert _settle(inline) == _settle(pooled)
    results, failures, attempts = _settle(inline)
    # the grid really exercises all three ways an attempt can settle
    assert results == {1: 10, 5: 50, 7: 70}
    assert {reason for _i, _k, reason, _a, _d in failures} == {
        "error", "bad-result"}
    assert all(count == 3 for _i, _k, _r, count, _d in failures)
    assert attempts == {index: 1 if index in results else 3
                        for index in ITEMS}


class HookError(RuntimeError):
    pass


def test_inline_raising_on_result_stops_the_batch():
    ran = []

    def cell(item):
        ran.append(item)
        return item * 10 + 1

    def on_result(index, key, result):
        raise HookError(f"caller gave up at {key}")

    with pytest.raises(HookError, match="caller gave up at cell-0"):
        _run_inline(cell, ITEMS, keys=KEYS, on_result=on_result)
    assert ran == [0]


def test_inline_pool_runs_hooks_on_the_calling_thread():
    threads = set()
    with PoolSupervisor(_cell, procs=0, max_retries=0) as pool:
        outcome = pool.run_batch(
            [1, 2],
            on_result=lambda i, k, r: threads.add(
                threading.current_thread()),
            on_dispatch=lambda i, k, a: threads.add(
                threading.current_thread()))
        assert multiprocessing.active_children() == []
    assert outcome.results == {0: 10, 1: 20}
    assert threads == {threading.current_thread()}


def test_inline_retry_waits_behind_queued_cells():
    """A failed attempt re-queues behind the cells still waiting, as in
    the pool, instead of being retried at once."""
    started = []
    with PoolSupervisor(_cell, procs=0, max_retries=1,
                        backoff_base=0.001) as pool:
        outcome = pool.run_batch(
            [3, 1, 2], keys=["a", "b", "c"],
            on_dispatch=lambda i, key, attempt: started.append(
                (key, attempt)))
    assert started == [("a", 0), ("b", 0), ("c", 0), ("a", 1)]
    assert [(f.key, f.attempts) for f in outcome.failures] == [("a", 2)]


@pytest.mark.parametrize("knobs", [
    {"chaos": ExecutorChaos(seed=1, flaky_prob=1.0)},
    {"cell_timeout": 1.0},
])
def test_inline_pool_rejects_knobs_that_need_a_worker(knobs):
    with pytest.raises(ValueError, match="procs=0"):
        PoolSupervisor(_cell, procs=0, **knobs)


def test_negative_procs_is_rejected():
    with pytest.raises(ValueError, match="procs must be >= 0"):
        PoolSupervisor(_cell, procs=-1)
