"""The supervised executor: crash-safe fan-out for sweep cells.

One state machine, :class:`PoolSupervisor`, settles every cell attempt
in the repository -- a service's shared pool, a sweep's private pool,
and the inline path alike.  Built with ``procs=0`` it starts no
process and no thread: :meth:`PoolSupervisor.run_batch` drives the
batch on the calling thread through the same dispatch, landing, retry
and quarantine steps.  With worker processes it assumes workers *will*
misbehave:

* **streaming** -- each worker holds exactly one in-flight cell;
  completions are delivered to the caller (``on_result``) the moment
  they land, tagged with their submission index, so paid work can be
  journaled immediately and is never lost to a later failure;
* **supervision** -- a per-cell wall-clock timeout kills stuck
  workers; dead workers (pipe EOF / ``Process.exitcode``) are
  detected, respawned, and their in-flight cell re-dispatched;
* **bounded retry** -- a failed attempt (worker death, timeout, raised
  exception, invalid result) re-queues the cell with capped
  exponential backoff until the per-cell retry budget is spent;
* **quarantine** -- cells that exhaust the budget become typed
  :class:`CellFailure` entries and the rest of the grid still
  finishes: graceful degradation instead of an opaque traceback.

The supervisor never re-orders results semantically: they are keyed
by submission index, so callers reassemble deterministic output
regardless of completion order, worker count, or how many times a
cell was retried.  On any exit -- success, quarantine, or an
interrupt propagating through -- the supervision thread terminates
every child, so no orphan processes outlive the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set)

from .chaos import ChaosError, ExecutorChaos

#: retries after the first attempt (so 3 attempts total by default)
DEFAULT_MAX_RETRIES = 2
#: first backoff step, seconds; doubles per retry up to the cap
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0
#: supervisor poll interval, seconds
_TICK = 0.02
#: exit code an injected worker crash dies with (recognizable in logs)
_CHAOS_EXIT = 23


def backoff_delay(attempt: int,
                  base: float = DEFAULT_BACKOFF_BASE,
                  cap: float = DEFAULT_BACKOFF_CAP) -> float:
    """Seconds to wait before dispatching retry ``attempt`` (>= 1).

    Capped exponential: ``min(cap, base * 2**(attempt-1))``.  A pure
    function of the attempt number, so the retry schedule is
    deterministic and testable.
    """
    if attempt < 1:
        return 0.0
    return min(cap, base * (2 ** (attempt - 1)))


def pool_context() -> multiprocessing.context.BaseContext:
    """The cheapest safe start method: fork where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: its identity, budget spent, and why.

    ``reason`` taxonomy: ``worker-crash`` (the worker process died),
    ``timeout`` (killed past the cell timeout), ``error`` (the cell
    raised), ``bad-result`` (the returned value failed validation).
    """

    index: int
    key: str
    attempts: int
    reason: str
    detail: str = ""

    def describe(self) -> str:
        text = (f"{self.key}: {self.reason} after {self.attempts} "
                f"attempt(s)")
        return f"{text} -- {self.detail}" if self.detail else text

    def to_json(self) -> Dict[str, Any]:
        return {"index": self.index, "key": self.key,
                "attempts": self.attempts, "reason": self.reason,
                "detail": self.detail}


@dataclass
class ExecutionOutcome:
    """What one supervised run produced, indexed by submission order."""

    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[CellFailure] = field(default_factory=list)
    #: attempts spent per index (1 = succeeded first try)
    attempts: Dict[int, int] = field(default_factory=dict)
    #: workers respawned after a crash, timeout kill, or dead dispatch
    respawns: int = 0
    #: the batch was abandoned (group cancel or pool shutdown) before
    #: every cell landed; partial results/failures are still populated
    cancelled: bool = False

    @property
    def retries(self) -> int:
        """Total extra attempts beyond each cell's first."""
        return sum(count - 1 for count in self.attempts.values())


@dataclass
class _Task:
    index: int
    key: str
    item: Any
    batch: _PoolBatch
    attempt: int = 0
    not_before: float = 0.0


class _Worker:
    """One supervised child process and its dedicated pipe."""

    def __init__(self, ctx, fn: Callable[[Any], Any],
                 chaos: Optional[ExecutorChaos]) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main,
                                   args=(child_conn, fn, chaos),
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None

    def kill(self) -> None:
        """Tear the worker down hard; never leaves a zombie behind."""
        try:
            self.process.terminate()
            self.process.join(0.5)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(0.5)
        finally:
            self.conn.close()


def _worker_main(conn, fn: Callable[[Any], Any],
                 chaos: Optional[ExecutorChaos]) -> None:
    """Child loop: receive (index, key, attempt, item), run, reply.

    The supervisor owns shutdown: SIGINT is ignored here so a Ctrl-C
    in the parent tears workers down through the supervision loop
    instead of racing interrupted children, and SIGTERM is reset to
    its default so ``Process.terminate()`` kills quietly even when
    the parent has remapped it (``repro.cli.graceful_sigterm``).
    Exceptions from the cell function become ``("err", ...)`` replies;
    only worker death or an injected crash breaks the pipe.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main-thread harness
        pass
    while True:
        try:
            index, key, attempt, item = conn.recv()
        except (EOFError, OSError):
            return
        kind = chaos.draw(key, attempt) if chaos is not None else None
        if kind == "crash":
            os._exit(_CHAOS_EXIT)
        if kind == "hang":
            time.sleep(chaos.hang_seconds)
        try:
            if kind == "flaky":
                raise ChaosError(f"injected transient failure "
                                 f"(attempt {attempt})")
            if kind == "corrupt":
                result: Any = "\x00chaos-corrupted-result"
            elif kind == "oversize":
                result = {"key": key,
                          "chaos_padding": "x" * chaos.oversize_bytes}
            else:
                result = fn(item)
            conn.send(("ok", index, result))
        except Exception as err:  # noqa: BLE001 - forwarded, not hidden
            conn.send(("err", index, f"{type(err).__name__}: {err}"))


# -- shared persistent pool ----------------------------------------------


class _PoolBatch:
    """Bookkeeping for one :meth:`PoolSupervisor.run_batch` ticket."""

    def __init__(self, group: str, total: int,
                 on_result: Optional[Callable[[int, str, Any], None]],
                 on_dispatch: Optional[Callable[[int, str, int], None]],
                 ) -> None:
        self.group = group
        self.on_result = on_result
        self.on_dispatch = on_dispatch
        self.outcome = ExecutionOutcome()
        self.remaining = total
        self.cancelled = False
        self.done = threading.Event()
        #: a callback exception to re-raise in the submitting thread
        self.error: Optional[BaseException] = None


class PoolSupervisor:
    """One persistent supervised worker pool shared by concurrent jobs.

    The repository's one supervision state machine (streamed
    completions, per-cell timeout kill, crash respawn, capped
    backoff-retry, quarantine).  A service keeps one running for every
    job; a sweep without a service builds a private one.  The workers
    outlive any single batch and serve every caller:

    * **dynamic submission** -- :meth:`run_batch` may be called
      concurrently from many job threads; each call blocks until *its*
      cells settle while the pool interleaves everyone's work;
    * **fair interleaving** -- pending cells queue per group (job id)
      and dispatch round-robin across groups, so a thousand-cell job
      cannot starve a two-cell one;
    * **group cancellation** -- :meth:`cancel_group` drops a group's
      queued cells immediately and discards its in-flight results as
      they land; affected batches return with ``outcome.cancelled``.

    One background thread owns the workers and all supervision;
    submitting threads only enqueue tasks and wait on their batch
    ticket, so no lock is held across a blocking operation.

    ``procs=0`` is the inline pool: no worker process and no
    supervision thread.  Each :meth:`run_batch` call runs its attempts
    one at a time on the submitting thread, through the same steps
    (:meth:`_next_task`, :meth:`_begin`, :meth:`_land`), so retry,
    backoff, ``validate`` rejection and quarantine behave exactly as in
    the pool.  Chaos and a cell timeout act on a worker process, so
    neither is accepted with ``procs=0``.
    """

    def __init__(self, fn: Callable[[Any], Any], *, procs: int = 1,
                 cell_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 chaos: Optional[ExecutorChaos] = None,
                 validate: Optional[
                     Callable[[Any, str], Optional[str]]] = None) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive, got "
                             f"{cell_timeout}")
        if procs < 0:
            raise ValueError(f"procs must be >= 0, got {procs}")
        if procs == 0 and (chaos is not None or cell_timeout is not None):
            raise ValueError("procs=0 runs cells inline: chaos and "
                             "cell_timeout need a worker process")
        self.fn = fn
        self.procs = procs
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.chaos = chaos
        self.validate = validate
        self._lock = threading.Lock()
        #: group id -> FIFO of queued tasks; dict order is the
        #: round-robin rotation (served group moves to the back)
        self._queues: "OrderedDict[str, List[_Task]]" = OrderedDict()
        self._batches: Set[_PoolBatch] = set()
        self._wake = threading.Event()
        self._started = False
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # -- public ----------------------------------------------------------

    def start(self) -> "PoolSupervisor":
        """Spawn the workers and the supervision thread (idempotent;
        ``procs=0`` spawns neither)."""
        with self._lock:
            if self._started:
                return self
            if self._stopping:
                raise RuntimeError("pool supervisor already closed")
            self._started = True
            if self.procs:
                self._thread = threading.Thread(
                    target=self._run, name="pool-supervisor", daemon=True)
                self._thread.start()
        return self

    def close(self) -> None:
        """Kill the workers; blocked :meth:`run_batch` calls return
        with ``outcome.cancelled`` set."""
        with self._lock:
            self._stopping = True
            thread = self._thread
        self._wake.set()
        if thread is not None:
            thread.join()
        else:
            self._abandon(None)

    def __enter__(self) -> "PoolSupervisor":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def run_batch(self, items: Sequence[Any],
                  keys: Optional[Sequence[str]] = None, *,
                  group: str = "",
                  on_result: Optional[Callable[[int, str, Any],
                                               None]] = None,
                  on_dispatch: Optional[Callable[[int, str, int],
                                                 None]] = None,
                  ) -> ExecutionOutcome:
        """Run one batch through the shared pool; blocks until settled.

        ``on_result(index, key, result)`` streams completions as they
        land (in completion order, indexed by this batch's submission
        order); ``on_dispatch(index, key, attempt)`` fires as each
        attempt starts (``attempt`` is 0-based).  Both hooks run on the
        supervision thread, or on this thread when ``procs=0``.  An
        exception either hook raises cancels the rest of the batch and
        re-raises here, in the submitting thread.  ``group`` names the
        fairness lane (one per job); concurrent batches in different
        groups interleave round-robin.
        """
        work = list(items)
        if keys is None:
            keys = [str(index) for index in range(len(work))]
        elif len(keys) != len(work):
            raise ValueError(f"{len(work)} item(s) but {len(keys)} key(s)")
        batch = _PoolBatch(group, len(work), on_result, on_dispatch)
        if not work:
            return batch.outcome
        with self._lock:
            if self._stopping or not self._started:
                batch.outcome.cancelled = True
                return batch.outcome
            lane = self._queues.setdefault(group, [])
            for index, (item, key) in enumerate(zip(work, keys)):
                lane.append(_Task(index=index, key=key, item=item,
                                  batch=batch))
            self._batches.add(batch)
        self._wake.set()
        try:
            if self.procs:
                batch.done.wait()
            else:
                self._drive(batch)
        finally:
            with self._lock:
                self._batches.discard(batch)
        if batch.error is not None:
            raise batch.error
        return batch.outcome

    def cancel_group(self, group: str) -> int:
        """Cancel every batch in ``group``; returns cells dropped
        before dispatch.  In-flight cells finish in their workers but
        land discarded (never delivered to ``on_result``)."""
        finish: List[_PoolBatch] = []
        with self._lock:
            lane = self._queues.pop(group, None) or []
            for batch in self._batches:
                if batch.group == group and not batch.cancelled:
                    batch.cancelled = True
                    batch.outcome.cancelled = True
            for task in lane:
                task.batch.remaining -= 1
            finish = [batch for batch in self._batches
                      if batch.group == group and batch.remaining <= 0]
        for batch in finish:
            batch.done.set()
        return len(lane)

    # -- supervision: the pool's thread, or the submitter at procs=0 ----

    def _run(self) -> None:
        ctx = pool_context()
        workers: List[_Worker] = []
        crash: Optional[Exception] = None
        try:
            for _ in range(self.procs):
                workers.append(_Worker(ctx, self.fn, self.chaos))
            while not self._stopping:
                now = time.monotonic()
                self._dispatch(workers, ctx, now)
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    self._idle_wait(now)
                    continue
                ready = connection.wait([w.conn for w in busy],
                                        timeout=_TICK)
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker, workers, ctx)
                self._reap_timeouts(workers, ctx)
        except Exception as err:  # noqa: BLE001 - re-raised in submitters
            crash = err
        finally:
            for worker in workers:
                worker.kill()
            self._abandon(crash)

    def _abandon(self, crash: Optional[Exception]) -> None:
        """Unblock every submitter: whatever had not settled when the
        pool stopped is reported cancelled, never hung, and a
        supervision crash re-raises in each submitting thread."""
        with self._lock:
            self._stopping = True
            self._queues.clear()
            batches = list(self._batches)
        for batch in batches:
            if batch.error is None:
                batch.error = crash
            batch.outcome.cancelled = True
            batch.done.set()

    def _drive(self, batch: _PoolBatch) -> None:
        """``procs=0``: run attempts on this thread until ``batch``
        settles; a backoff-delayed retry waits in :meth:`_idle_wait`."""
        try:
            while not batch.done.is_set():
                now = time.monotonic()
                task = self._next_task(now)
                if task is None:
                    self._idle_wait(now)
                    continue
                self._begin(task)
                status, payload = "ok", None
                if not task.batch.cancelled:
                    try:
                        payload = self.fn(task.item)
                    except Exception as err:  # noqa: BLE001 - a retry
                        status = "err"
                        payload = f"{type(err).__name__}: {err}"
                self._land(task, status, payload)
        except BaseException:
            self._cancel_batch(batch)
            raise

    def _idle_wait(self, now: float) -> None:
        """Nothing in flight: sleep until new work or backoff expiry."""
        with self._lock:
            pending = [task for lane in self._queues.values()
                       for task in lane]
        if pending:
            wake = min(task.not_before for task in pending)
            delay = max(0.0, min(wake - now, self.backoff_cap)) or _TICK
        else:
            delay = 0.05
        self._wake.wait(delay)
        self._wake.clear()

    def _next_task(self, now: float) -> Optional[_Task]:
        """Pop the next eligible task, round-robin across groups."""
        with self._lock:
            for group in list(self._queues):
                lane = self._queues[group]
                # purge tasks whose batch was cancelled via a callback
                # error (cancel_group removes whole lanes itself)
                dead = [task for task in lane if task.batch.cancelled]
                for task in dead:
                    lane.remove(task)
                    self._settle_locked(task.batch)
                task = next((task for task in lane
                             if task.not_before <= now), None)
                if task is None:
                    if not lane:
                        del self._queues[group]
                    continue
                lane.remove(task)
                if lane:
                    self._queues.move_to_end(group)
                else:
                    del self._queues[group]
                return task
        return None

    def _settle_locked(self, batch: _PoolBatch) -> None:
        """Account one settled cell; caller holds ``self._lock``."""
        batch.remaining -= 1
        if batch.remaining <= 0:
            batch.done.set()

    def _settle(self, batch: _PoolBatch) -> None:
        with self._lock:
            self._settle_locked(batch)

    def _callback(self, batch: _PoolBatch, hook: Callable[..., None],
                  *args: Any) -> None:
        """Run a batch hook; an exception cancels the batch and is
        re-raised in its submitting thread."""
        try:
            hook(*args)
        except BaseException as err:  # noqa: BLE001 - forwarded
            if batch.error is None:
                batch.error = err
            self._cancel_batch(batch)

    def _cancel_batch(self, batch: _PoolBatch) -> None:
        finish = False
        with self._lock:
            if not batch.cancelled:
                batch.cancelled = True
                batch.outcome.cancelled = True
            lane = self._queues.get(batch.group)
            if lane is not None:
                mine = [task for task in lane if task.batch is batch]
                for task in mine:
                    lane.remove(task)
                    batch.remaining -= 1
                if not lane:
                    del self._queues[batch.group]
            finish = batch.remaining <= 0
        if finish:
            batch.done.set()

    def _spawn_replacement(self, workers: List[_Worker], dead: _Worker,
                           batch: _PoolBatch, ctx) -> None:
        dead.kill()
        workers[workers.index(dead)] = _Worker(ctx, self.fn, self.chaos)
        batch.outcome.respawns += 1

    def _dispatch(self, workers: List[_Worker], ctx, now: float) -> None:
        for worker in workers:
            if worker.task is not None:
                continue
            task = self._next_task(now)
            if task is None:
                return
            try:
                worker.conn.send((task.index, task.key, task.attempt,
                                  task.item))
            except (BrokenPipeError, OSError):
                # idle worker died between cells: replace it and requeue
                # the cell at the front without charging its budget
                with self._lock:
                    self._queues.setdefault(task.batch.group,
                                            []).insert(0, task)
                self._spawn_replacement(workers, worker, task.batch, ctx)
                return
            worker.task = task
            worker.deadline = (now + self.cell_timeout
                               if self.cell_timeout is not None else None)
            self._begin(task)

    def _begin(self, task: _Task) -> None:
        """Count one attempt of ``task`` and fire ``on_dispatch``."""
        batch = task.batch
        batch.outcome.attempts[task.index] = task.attempt + 1
        if batch.on_dispatch is not None:
            self._callback(batch, batch.on_dispatch, task.index,
                           task.key, task.attempt)

    def _collect(self, worker: _Worker, workers: List[_Worker],
                 ctx) -> None:
        task = worker.task
        batch = task.batch
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            worker.process.join(0.5)
            code = worker.process.exitcode
            self._spawn_replacement(workers, worker, batch, ctx)
            self._settle_failure(task, reason="worker-crash",
                                 detail=f"worker exited with code {code}")
            return
        worker.task = None
        worker.deadline = None
        status, index, payload = message
        if index != task.index:  # pragma: no cover - protocol guard
            raise RuntimeError(f"worker answered cell {index}, "
                               f"expected {task.index}")
        self._land(task, status, payload)

    def _land(self, task: _Task, status: str, payload: Any) -> None:
        """Settle one finished attempt: discard it (cancelled batch),
        retry or quarantine it (``err`` reply or ``validate``
        rejection), or deliver it through ``on_result``."""
        batch = task.batch
        if batch.cancelled:
            self._settle(batch)
            return
        if status == "err":
            self._settle_failure(task, reason="error", detail=payload)
            return
        detail = (self.validate(payload, task.key)
                  if self.validate else None)
        if detail is not None:
            self._settle_failure(task, reason="bad-result", detail=detail)
            return
        batch.outcome.results[task.index] = payload
        if batch.on_result is not None:
            self._callback(batch, batch.on_result, task.index, task.key,
                           payload)
        self._settle(batch)

    def _reap_timeouts(self, workers: List[_Worker], ctx) -> None:
        if self.cell_timeout is None:
            return
        now = time.monotonic()
        for worker in list(workers):
            if worker.task is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            task = worker.task
            self._spawn_replacement(workers, worker, task.batch, ctx)
            self._settle_failure(
                task, reason="timeout",
                detail=f"killed after {self.cell_timeout:g}s wall clock")

    def _settle_failure(self, task: _Task, *, reason: str,
                        detail: str) -> None:
        batch = task.batch
        if batch.cancelled:
            self._settle(batch)
            return
        if task.attempt >= self.max_retries:
            batch.outcome.failures.append(CellFailure(
                index=task.index, key=task.key,
                attempts=task.attempt + 1, reason=reason, detail=detail))
            self._settle(batch)
            return
        task.attempt += 1
        task.not_before = time.monotonic() + backoff_delay(
            task.attempt, self.backoff_base, self.backoff_cap)
        with self._lock:
            if batch.cancelled:
                self._settle_locked(batch)
                return
            self._queues.setdefault(batch.group, []).append(task)
        self._wake.set()
