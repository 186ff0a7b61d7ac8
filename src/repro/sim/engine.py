"""Event-driven simulation engine.

Simulated processes are Python generators yielding the operation records
of :mod:`repro.sim.ops`.  The engine owns simulated time, interprets each
operation against the shared memory and the synchronization fabric, and
keeps per-task accounting (busy / spin / stall cycles).

Determinism: events are ordered by ``(time, priority, arrival)``.
Commits (memory and fabric value installations) run at priority 0,
process resumptions at priority 1, so a value committed at time *t* is
visible to every process step executing at *t*.  Arrival order breaks
remaining ties FIFO, making every simulation fully reproducible.

The event queue is a bucketed calendar queue: a dict from absolute time
to a ``(commits, resumes)`` list pair, plus a heap of the *distinct*
times.  Scheduling is an append (the common case: one dict lookup and a
list append, no tuple allocation, no sequence counter); draining walks
the two lists with cursors, re-checking the commit list after every
resume so a commit scheduled *at* the current cycle still precedes every
later same-cycle resume -- exactly the old ``(time, priority, seq)``
heap order, at a fraction of the cost.  Resume entries are usually the
:class:`_Task` objects themselves rather than closures; the drain loop
type-dispatches on the entry.

Robustness hooks (all inert by default):

* An optional :class:`~repro.faults.injector.FaultInjector` perturbs the
  run -- per-step stall windows and crashes, memory-latency jitter,
  dropped or duplicated ``SyncUpdate`` commits.  Draws happen in event
  order, so a seeded plan replays byte-for-byte.  With no injector the
  engine steps through :meth:`Engine._step_clean`, which contains no
  fault-probe code at all (the zero-overhead pin).
* Every blocking path records the task's ``wait_state`` so that when the
  simulation gets stuck the engine can hand the whole task table to the
  hazard watchdog (:mod:`repro.faults.watchdog`) and raise a *diagnosed*
  :class:`DeadlockError` / :class:`SimulationLimitError` carrying the
  wait-for graph and its blocking cycle.
* ``stagnation_limit`` bounds the number of consecutive events processed
  without any process stepping forward, catching poll-mode livelocks
  (which keep the event queue busy forever) long before the cycle
  budget; ``WaitUntil.max_spin`` bounds individual waits the same way
  for event-mode parks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .memory import SharedMemory
from .ops import (Annotate, Compute, Fence, MemRead, MemWrite, SyncRead,
                  SyncUpdate, SyncWrite, Tag, WaitUntil)
from .sync_bus import SyncFabric

#: Event priorities: commits become visible before any same-cycle resume.
_PRIORITY_COMMIT = 0
_PRIORITY_RESUME = 1


class HazardError(RuntimeError):
    """Base for simulation failures carrying a structured diagnosis.

    ``report`` is a :class:`repro.faults.watchdog.HazardReport` (or
    ``None`` for errors raised outside a running engine): per-task
    blocking state, the wait-for graph, and -- when one exists -- the
    blocking cycle.  The report's rendering is appended to the message,
    so ``str(err)`` stays fully informative.
    """

    def __init__(self, message: str, report=None) -> None:
        if report is not None:
            message = f"{message}\n{report.format()}"
        super().__init__(message)
        self.report = report

    @property
    def tasks(self):
        """Per-task diagnoses (empty when no report was attached)."""
        return self.report.tasks if self.report is not None else []

    @property
    def cycle(self):
        """The blocking wait-for cycle as task names, when one exists."""
        return self.report.cycle if self.report is not None else None


class DeadlockError(HazardError):
    """Raised when live tasks remain but no progress can ever happen."""


class SimulationLimitError(HazardError):
    """Raised when the simulation exceeds its cycle budget."""


@dataclass(slots=True)
class TaskStats:
    """Cycle accounting for one task (usually one processor)."""

    name: str = ""
    busy: int = 0          # Compute cycles
    spin: int = 0          # busy-wait cycles inside WaitUntil
    stall: int = 0         # waiting on memory / fabric round trips
    sync_ops: int = 0      # SyncRead/SyncWrite/WaitUntil operations issued
    waits_satisfied_immediately: int = 0
    done_at: int = 0

    @property
    def accounted(self) -> int:
        """Cycles attributed to some activity (rest is idle)."""
        return self.busy + self.spin + self.stall


@dataclass(slots=True)
class AccessRecord:
    """One shared-memory access, as seen by the validator.

    ``commit`` is when the access became globally visible (write) or when
    the value was sampled (read); the engine guarantees commit order is
    value order.
    """

    commit: int
    kind: str            # "R" or "W"
    addr: Tuple[str, int]
    value: Any
    task: str
    tag: Any             # whatever the process last set with a Tag op
    #: global issue-order sequence number, shared with the sync trace so
    #: data and synchronization events merge into one program-order- and
    #: causality-consistent stream (the vector-clock sanitizer's input)
    seq: int = 0


class _Task:
    """Internal per-generator bookkeeping."""

    __slots__ = ("gen", "stats", "tag", "pending_value", "alive",
                 "last_write_commit", "on_done", "store_buffer",
                 "crashed", "ops", "wait_state", "wait_timeout",
                 "stall_resume")

    def __init__(self, gen: Generator, stats: TaskStats,
                 on_done: Optional[Callable[[], None]] = None) -> None:
        self.gen = gen
        self.stats = stats
        self.tag: Any = None
        self.pending_value: Any = None
        self.alive = True
        self.last_write_commit = 0
        self.on_done = on_done
        #: outstanding (uncommitted) writes: addr -> [count, last value];
        #: reads by this task forward from here (store-to-load forwarding)
        self.store_buffer: Dict[Tuple[str, int], list] = {}
        #: killed by fault injection (still counts as never-completed)
        self.crashed = False
        #: operations interpreted so far (crash-targeting, diagnosis)
        self.ops = 0
        #: current blocking state, or None while runnable:
        #: (state, var, reason, since) with state in
        #: "parked" | "polling" | "stalled" | "crashed"
        self.wait_state: Optional[Tuple[str, Optional[int], str, int]] = None
        #: armed bounded-wait timeout event, cancelled when the wait is
        #: satisfied (cancelled events are skipped without advancing time)
        self.wait_timeout: Optional["_Timeout"] = None
        #: next resume continues an injected stall (skip the fault probes)
        self.stall_resume = False


class _Timeout:
    """A cancellable queue entry (armed bounded-wait deadline).

    Only the engine creates these; the drain loop skips a cancelled
    timeout without advancing simulated time, so a satisfied wait never
    stretches the makespan out to its deadline.
    """

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.cancelled = False


class _ReadDone:
    """Completion of a shared-memory read (executed inline by the drain
    loop: deliver the value, record the access, queue the next step).

    A plain closure would re-capture the same values per read; a
    slotted record is cheaper to build and the drain loop runs it
    without a Python-level call.
    """

    __slots__ = ("task", "addr", "tag", "seq")

    def __init__(self, task: "_Task", addr, tag, seq: int) -> None:
        self.task = task
        self.addr = addr
        self.tag = tag
        self.seq = seq


class _WriteCommit:
    """Global visibility of a posted shared-memory write (commit phase,
    executed inline by the drain loop)."""

    __slots__ = ("task", "addr", "value", "tag", "seq")

    def __init__(self, task: "_Task", addr, value, tag, seq: int) -> None:
        self.task = task
        self.addr = addr
        self.value = value
        self.tag = tag
        self.seq = seq


class _SyncReadDone:
    """Completion of a SyncRead round trip (slotted, no closure)."""

    __slots__ = ("engine", "task", "var")

    def __init__(self, engine: "Engine", task: "_Task", var: int) -> None:
        self.engine = engine
        self.task = task
        self.var = var

    def __call__(self) -> None:
        engine = self.engine
        task = self.task
        value = engine.fabric.value(self.var)
        # Reading a sync variable is an acquire: the improved PC
        # scheme's ownership check (mark_PC) orders the marker after
        # the release it observed.
        engine._record_sync("acq", self.var, value, task)
        task.pending_value = value
        engine._open_resumes.append(task)


class _UpdateDone:
    """Completion of a SyncUpdate round trip: deliver the RMW result."""

    __slots__ = ("engine", "task", "var", "cell")

    def __init__(self, engine: "Engine", task: "_Task", var: int,
                 cell: dict) -> None:
        self.engine = engine
        self.task = task
        self.var = var
        self.cell = cell

    def __call__(self) -> None:
        engine = self.engine
        task = self.task
        value = self.cell.get("value")
        # An atomic RMW is both an acquire (it observed the old
        # value) and a release (it published the new one).
        engine._record_sync("upd", self.var, value, task)
        task.pending_value = value
        engine._open_resumes.append(task)


class _Poll:
    """One task's polling busy-wait, reused across re-polls.

    Poll-mode waits (sync variables in shared memory) issue a charged
    read every ``poll_interval`` cycles until the predicate holds.  The
    two closures per re-poll the old implementation allocated are the
    dominant cost of spin-heavy runs; this object mutates its own slots
    and re-enqueues itself instead.  ``phase`` alternates between 0
    (issue the next poll read) and 1 (the read completed: test the
    predicate).
    """

    __slots__ = ("engine", "task", "op", "started", "reason", "first",
                 "phase")

    def __init__(self, engine: "Engine", task: "_Task", op: WaitUntil,
                 started: int) -> None:
        self.engine = engine
        self.task = task
        self.op = op
        self.started = started
        self.reason = op.reason or f"poll on var {op.var}"
        self.first = True
        self.phase = 1

    def __call__(self) -> None:
        engine = self.engine
        task = self.task
        op = self.op
        if self.phase == 0:
            # Issue the next poll read (a charged fabric transaction).
            if not task.alive:
                return
            done = engine.fabric.read_cost(op.var, engine.now,
                                           requester=task.stats.name)
            task.wait_state = ("polling", op.var, self.reason,
                               self.started)
            self.phase = 1
            if done == engine._open_time:
                engine._open_resumes.append(self)
                return
            bucket = engine._buckets.get(done)
            if bucket is None:
                bucket = engine._buckets[done] = ([], [])
                heapq.heappush(engine._times, done)
            bucket[1].append(self)
            return
        # The poll read completed: test the predicate.
        now = engine.now
        if op.predicate(engine.fabric.value(op.var)):
            task.wait_state = None
            if self.first:
                task.stats.waits_satisfied_immediately += 1
            else:
                task.stats.spin += now - self.started
                if engine.record and now > self.started:
                    engine.activity.append((task.stats.name, "spin",
                                            self.started, now))
            engine._record_sync("acq", op.var,
                                engine.fabric.value(op.var), task)
            task.pending_value = None
            engine._open_resumes.append(task)
            return
        if op.max_spin is not None and now - self.started > op.max_spin:
            raise DeadlockError(
                f"bounded wait expired: task {task.stats.name!r} "
                f"polled over {op.max_spin} cycles in "
                f"{op.reason or f'poll on var {op.var}'!r}",
                report=engine._diagnose())
        if self.first:
            # Spin accounting starts when the mandatory first read
            # completed, not when it was issued.
            self.started = now
            self.first = False
        self.phase = 0
        time = now + engine.fabric.poll_interval
        if time == engine._open_time:
            engine._open_resumes.append(self)
            return
        bucket = engine._buckets.get(time)
        if bucket is None:
            bucket = engine._buckets[time] = ([], [])
            heapq.heappush(engine._times, time)
        bucket[1].append(self)


class Engine:
    """Interprets process generators against the hardware substrate."""

    def __init__(self, memory: SharedMemory, fabric: SyncFabric,
                 max_cycles: int = 50_000_000, record: bool = True,
                 injector=None,
                 stagnation_limit: Optional[int] = None,
                 sync_tap: bool = False) -> None:
        if stagnation_limit is not None and stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1 (or None)")
        self.memory = memory
        self.fabric = fabric
        fabric.attach(self)
        self.now = 0
        self.max_cycles = max_cycles
        #: record the trace, sync trace, activity and Annotate events;
        #: off in the counters-only fast path (``metrics="counters"``)
        self.record = record
        #: optional FaultInjector perturbing this run (None = clean)
        self.injector = injector
        #: optional RecoveryManager converting recoverable hazards into
        #: completed runs (None = detect-and-die, PR 1 behaviour)
        self.recovery = None
        #: max consecutive events without a process step before the run
        #: is declared stagnant (None disables the watchdog)
        self.stagnation_limit = stagnation_limit
        self.trace: List[AccessRecord] = []
        #: synchronization events for the dynamic race sanitizer:
        #: (seq, kind, var, value, task) with kind "rel" (SyncWrite
        #: issue), "acq" (wait satisfaction / sync read completion) or
        #: "upd" (atomic read-modify-write completion).  Seq numbers are
        #: shared with AccessRecord.seq: merging both streams by seq
        #: yields an order consistent with per-task program order and
        #: with every release-before-matching-acquire.
        self.sync_trace: List[Tuple[int, str, int, Any, str]] = []
        self._sync_seq = itertools.count()
        #: lightweight sanitizer stream: (kind, where, task) appended at
        #: exactly the program points where the trace recorder allocates
        #: seq numbers, so list index *is* issue order -- available in
        #: any metrics mode, including counters (None when off)
        self.tap: Optional[List[Tuple[str, Any, str]]] = (
            [] if sync_tap else None)
        #: (time, kind, payload) markers from Annotate ops (phase events)
        self.events: List[Tuple[int, str, dict]] = []
        #: (task, kind, start, end) activity segments for timelines;
        #: kind is "busy" or "spin"; only recorded when ``record`` is on
        self.activity: List[Tuple[str, str, int, int]] = []
        #: calendar queue: absolute time -> (commit list, resume list)
        self._buckets: Dict[int, Tuple[list, list]] = {}
        #: heap of distinct bucket times (each pushed exactly once)
        self._times: List[int] = []
        #: the bucket currently being drained (its lists stay reachable
        #: so same-cycle scheduling is a plain append)
        self._open_time = -1
        self._open_commits: list = []
        self._open_resumes: list = []
        self._live_tasks = 0
        #: live events executed (commits + resumes), the bench-engine
        #: throughput denominator
        self.events_processed = 0
        #: every task ever spawned (hazard diagnosis walks this)
        self._tasks: List[_Task] = []
        #: tasks parked in WaitUntil, keyed by fabric variable
        self._waiters: Dict[int, List[Tuple[_Task, WaitUntil, int]]] = {}
        self._parked = 0
        #: last task to write/update each sync variable (wait-for edges)
        self.var_writers: Dict[int, str] = {}
        #: task names killed by fault injection
        self.crashed: List[str] = []
        self._idle_events = 0
        #: fault probes live only in the fault-path step; a clean run
        #: pays nothing per event for the injection machinery
        self._step = (self._step_clean if injector is None
                      else self._step_fault)
        #: exact-type -> bound handler; op subclasses fall back to an
        #: isinstance walk (in the old chain's order) and are cached
        self._handlers: Dict[type, Callable[[_Task, Any], None]] = {
            Compute: self._op_compute,
            MemRead: self._op_mem_read,
            MemWrite: self._op_mem_write,
            SyncRead: self._op_sync_read,
            SyncWrite: self._op_sync_write,
            SyncUpdate: self._op_sync_update,
            WaitUntil: self._op_wait_until,
            Fence: self._op_fence,
            Tag: self._op_tag,
            Annotate: self._op_annotate,
        }
        self._dispatch_order = (Compute, MemRead, MemWrite, SyncRead,
                                SyncWrite, SyncUpdate, WaitUntil, Fence,
                                Tag, Annotate)

    # ------------------------------------------------------------------
    # scheduling primitives (also used by the fabric)
    # ------------------------------------------------------------------

    def schedule_commit(self, time: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``time``, before any process step at that time."""
        if time == self._open_time:
            self._open_commits.append(fn)
        elif time >= self.now:
            bucket = self._buckets.get(time)
            if bucket is None:
                bucket = self._buckets[time] = ([], [])
                heapq.heappush(self._times, time)
            bucket[0].append(fn)
        else:
            raise ValueError(
                f"event scheduled in the past: {time} < {self.now}")

    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``time`` in process-step order."""
        if time == self._open_time:
            self._open_resumes.append(fn)
        elif time >= self.now:
            bucket = self._buckets.get(time)
            if bucket is None:
                bucket = self._buckets[time] = ([], [])
                heapq.heappush(self._times, time)
            bucket[1].append(fn)
        else:
            raise ValueError(
                f"event scheduled in the past: {time} < {self.now}")

    # The resume entry for a task is the task object itself: no closure,
    # no tuple.  ``schedule`` and ``_push_resume`` share one list, so
    # FIFO order between task resumes and scheduled callbacks is exactly
    # the old sequence-number order.
    _push_resume = schedule

    def _resume_at(self, task: _Task, time: int, value: Any = None) -> None:
        task.pending_value = value
        self._push_resume(time, task)

    def notify_var(self, var: int) -> None:
        """A fabric variable changed: wake its parked waiters in one pass.

        The committed value is read once and every parked predicate is
        evaluated against it (commits precede same-cycle resumes, so no
        other commit can interleave); satisfied waiters are appended
        directly to the next cycle's resume bucket in park order --
        batched broadcast delivery, one event per woken task and nothing
        else.
        """
        waiters = self._waiters.pop(var, None)
        if not waiters:
            return
        value = self.fabric.value(var)
        record = self.record
        now = self.now
        wake = None
        for task, op, parked_at in waiters:
            self._parked -= 1
            if op.predicate(value):
                task.wait_state = None
                timeout = task.wait_timeout
                if timeout is not None:
                    timeout.cancelled = True
                    task.wait_timeout = None
                task.stats.spin += now - parked_at
                if record:
                    if now > parked_at:
                        self.activity.append((task.stats.name, "spin",
                                              parked_at, now))
                    self.sync_trace.append((next(self._sync_seq), "acq",
                                            var, value, task.stats.name))
                if self.tap is not None:
                    self.tap.append(("acq", var, task.stats.name))
                task.pending_value = None
                if wake is None:
                    time = now + 1
                    bucket = self._buckets.get(time)
                    if bucket is None:
                        bucket = self._buckets[time] = ([], [])
                        heapq.heappush(self._times, time)
                    wake = bucket[1]
                wake.append(task)
            else:
                self._park(task, op, parked_at)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "",
              on_done: Optional[Callable[[], None]] = None) -> TaskStats:
        """Add a process; it starts at the current simulated time."""
        stats = TaskStats(name=name)
        task = _Task(gen, stats, on_done)
        self._live_tasks += 1
        self._tasks.append(task)
        self._push_resume(self.now, task)
        return stats

    def run(self) -> int:
        """Drain the event queue; return the final simulated time.

        Raises a diagnosed :class:`SimulationLimitError` when the cycle
        budget is exceeded and a diagnosed :class:`DeadlockError` when
        live tasks remain with an empty queue (classic deadlock) or when
        ``stagnation_limit`` consecutive events fire without any process
        stepping (poll-mode livelock).
        """
        self._drain()
        if self._live_tasks > 0:
            raise DeadlockError(
                f"{self._live_tasks} task(s) never completed and no "
                f"event can ever fire",
                report=self._diagnose())
        if self.recovery is not None and self.recovery.outstanding() > 0:
            # Crashed tasks were adopted but their replay jobs were
            # abandoned (reincarnation budget exhausted): the run must
            # not pass for complete.
            raise DeadlockError(
                f"{self.recovery.outstanding()} adopted iteration(s) "
                f"abandoned by the recovery layer",
                report=self._diagnose())
        return self.now

    def _drain(self) -> None:
        """The event loop.

        Per-bucket: advance ``self.now`` once (unless the bucket holds
        nothing but cancelled timeouts -- only :class:`_Timeout` entries
        are ever cancellable, so one cheap scan decides), then walk the
        commit and resume lists with cursors, re-checking the commit
        list before every resume so commits scheduled *at* the open
        cycle still precede every later same-cycle resume.  Memory
        read-completion and write-commit records execute inline.

        With ``stagnation_limit`` set, the watchdog check runs before
        every live event (for a bucket's first one, before ``self.now``
        advances) and ``_idle_events`` counts live events until a
        process step resets it.  Unset, the watchdog costs one
        ``is not None`` test per event.
        """
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        max_cycles = self.max_cycles
        limit = self.stagnation_limit
        step = self._step
        memory = self.memory
        record = self.record
        trace = self.trace
        while times:
            time = heappop(times)
            commits, resumes = buckets.pop(time)
            if not commits:
                for e in resumes:
                    if e.__class__ is not _Timeout or not e.cancelled:
                        break
                else:
                    # Nothing live: do not advance the clock (a bucket
                    # of satisfied-wait deadlines must not stretch the
                    # makespan).
                    continue
            if time > max_cycles:
                raise SimulationLimitError(
                    f"simulation exceeded {max_cycles} cycles",
                    report=self._diagnose())
            if limit is not None:
                self._check_stagnation(limit)
            self.now = time
            self._open_time = time
            self._open_commits = commits
            self._open_resumes = resumes
            ci = ri = skipped = 0
            try:
                while True:
                    if ci < len(commits):
                        e = commits[ci]
                        ci += 1
                        if limit is not None:
                            self._check_stagnation(limit)
                            self._idle_events += 1
                        if e.__class__ is _WriteCommit:
                            task = e.task
                            addr = e.addr
                            memory.write(addr, e.value)
                            entry = task.store_buffer.get(addr)
                            if entry is not None:
                                entry[0] -= 1
                                if entry[0] == 0:
                                    del task.store_buffer[addr]
                            if record:
                                trace.append(AccessRecord(
                                    commit=time, kind="W", addr=addr,
                                    value=e.value, task=task.stats.name,
                                    tag=e.tag, seq=e.seq))
                        else:
                            e()
                        continue
                    if ri >= len(resumes):
                        break
                    e = resumes[ri]
                    ri += 1
                    cls = e.__class__
                    if cls is _Task:
                        if limit is not None:
                            self._check_stagnation(limit)
                            self._idle_events += 1
                        step(e)
                        continue
                    if cls is _Timeout:
                        if e.cancelled:
                            skipped += 1
                            continue
                        e = e.fn
                    if limit is not None:
                        self._check_stagnation(limit)
                        self._idle_events += 1
                    if cls is _ReadDone:
                        task = e.task
                        value = memory.read(e.addr)
                        if record:
                            trace.append(AccessRecord(
                                commit=time, kind="R", addr=e.addr,
                                value=value, task=task.stats.name,
                                tag=e.tag, seq=e.seq))
                        task.pending_value = value
                        resumes.append(task)
                        continue
                    e()
            finally:
                self.events_processed += ci + ri - skipped
                self._open_time = -1
                self._open_commits = self._open_resumes = []

    def _check_stagnation(self, limit: int) -> None:
        if self._live_tasks > 0 and self._idle_events > limit:
            raise DeadlockError(
                f"stagnation: {self._idle_events} consecutive events "
                f"without any process making progress "
                f"(stagnation_limit={limit})",
                report=self._diagnose())

    def _diagnose(self):
        # Imported lazily: repro.faults must stay importable without
        # repro.sim (it duck-types the engine), and vice versa.
        from ..faults.watchdog import diagnose
        return diagnose(self)

    # ------------------------------------------------------------------
    # operation interpretation
    # ------------------------------------------------------------------

    def _step_clean(self, task: _Task) -> None:
        """Advance one task by one operation (no fault injector built)."""
        if not task.alive:
            return
        task.wait_state = None
        self._idle_events = 0
        try:
            op = task.gen.send(task.pending_value)
        except StopIteration:
            task.alive = False
            task.stats.done_at = self.now
            self._live_tasks -= 1
            if task.on_done is not None:
                task.on_done()
            return
        task.pending_value = None
        handler = self._handlers.get(op.__class__)
        if handler is not None:
            handler(task, op)
        else:
            self._dispatch_slow(task, op)

    def _step_fault(self, task: _Task) -> None:
        """The per-step fault probes, then :meth:`_step_clean`."""
        if not task.alive:
            return
        if task.stall_resume:
            # Continuing after an injected stall window: probing again
            # would double-draw from the plan.
            task.stall_resume = False
        else:
            injector = self.injector
            if injector.should_crash(task.stats.name, task.ops, self.now):
                task.alive = False
                task.crashed = True
                task.wait_state = (
                    "crashed", None,
                    f"fault-injected crash after {task.ops} ops", self.now)
                self.crashed.append(task.stats.name)
                if (self.recovery is not None
                        and self.recovery.on_crash(task.stats.name)):
                    # The recovery layer adopted the task's obligations
                    # (a rescue task will replay them), so the corpse no
                    # longer blocks completion.
                    self._live_tasks -= 1
                # Otherwise _live_tasks is NOT decremented: the task's
                # work is lost, so the run must end in a diagnosed error
                # rather than complete silently short of iterations.
                return
            extra = injector.stall_cycles(task.stats.name, self.now)
            if extra:
                task.stats.stall += extra
                task.wait_state = (
                    "stalled", None,
                    f"fault-injected stall of {extra} cycles", self.now)
                task.stall_resume = True
                # pending_value is preserved: it is delivered when the
                # stalled step finally runs.
                self._push_resume(self.now + extra, task)
                return
        self._step_clean(task)
        if task.alive:
            # The step interpreted an op rather than finishing the task.
            task.ops += 1

    def _dispatch_slow(self, task: _Task, op: Any) -> None:
        """Handle an op subclass (cached) or reject an unknown op."""
        for cls in self._dispatch_order:
            if isinstance(op, cls):
                handler = self._handlers[cls]
                self._handlers[op.__class__] = handler
                handler(task, op)
                return
        raise TypeError(f"unknown operation {op!r} from task "
                        f"{task.stats.name!r}")

    # -- per-operation handlers ------------------------------------------

    # Handlers only ever run from ``_step`` inside a drain bucket, where
    # ``self._open_time == self.now`` and Compute/access times are
    # validated non-negative, so the hot handlers below inline
    # ``schedule``'s open-bucket/new-bucket split without the past-time
    # branch.

    def _op_compute(self, task: _Task, op: Compute) -> None:
        cycles = op.cycles
        if cycles == 0:
            self._open_resumes.append(task)
            return
        task.stats.busy += cycles
        time = self.now + cycles
        if self.record:
            self.activity.append((task.stats.name, "busy", self.now,
                                  time))
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            bucket = buckets[time] = ([], [])
            heapq.heappush(self._times, time)
        bucket[1].append(task)

    def _op_fence(self, task: _Task, op: Fence) -> None:
        done = task.last_write_commit
        now = self.now
        if done <= now:
            self._open_resumes.append(task)
            return
        task.stats.stall += done - now
        task.wait_state = ("stalled", None,
                           "fence: draining posted writes", now)
        buckets = self._buckets
        bucket = buckets.get(done)
        if bucket is None:
            bucket = buckets[done] = ([], [])
            heapq.heappush(self._times, done)
        bucket[1].append(task)

    def _op_tag(self, task: _Task, op: Tag) -> None:
        task.tag = op.tag
        self._open_resumes.append(task)

    def _op_annotate(self, task: _Task, op: Annotate) -> None:
        if self.record:
            self.events.append((self.now, op.kind, dict(op.payload)))
        self._open_resumes.append(task)

    def _op_wait_until(self, task: _Task, op: WaitUntil) -> None:
        # _begin_wait inlined: WaitUntil is the event-path hot op.
        task.stats.sync_ops += 1
        if self.fabric.wait_mode == "poll":
            self._poll_wait(task, op, started=self.now)
            return
        if self.recovery is not None and self.recovery.degraded:
            # Degraded mode: the local register images are losing too
            # many broadcasts to be trusted, so busy-wait by polling the
            # authoritative home copy through shared memory instead
            # (charged reads; liveness bought with cycles).
            self._fallback_wait(task, op, started=self.now)
            return
        # Event-driven wait on the local register image: test now, park
        # until the variable's committed value changes.
        value = self.fabric.value(op.var)
        if op.predicate(value):
            task.stats.waits_satisfied_immediately += 1
            self._record_sync("acq", op.var, value, task)
            task.pending_value = None
            time = self.now + 1
            bucket = self._buckets.get(time)
            if bucket is None:
                bucket = self._buckets[time] = ([], [])
                heapq.heappush(self._times, time)
            bucket[1].append(task)
        else:
            self._park(task, op, self.now)

    def _record_sync(self, kind: str, var: int, value: Any,
                     task: _Task) -> None:
        """Append one sanitizer event (the tap works in any mode)."""
        if self.record:
            self.sync_trace.append((next(self._sync_seq), kind, var,
                                    value, task.stats.name))
        if self.tap is not None:
            self.tap.append((kind, var, task.stats.name))

    # -- shared memory --------------------------------------------------

    def _op_mem_read(self, task: _Task, op: MemRead) -> None:
        addr = op.addr
        buffer = task.store_buffer
        if buffer:
            pending = buffer.get(addr)
            if pending is not None:
                # Store-to-load forwarding: the task sees its own posted
                # write immediately (one cycle, no memory transaction).
                value = pending[1]
                time = self.now + 1
                if self.record:
                    self.trace.append(AccessRecord(
                        commit=time, kind="R", addr=addr,
                        value=value, task=task.stats.name, tag=task.tag,
                        seq=next(self._sync_seq)))
                if self.tap is not None:
                    self.tap.append(("R", addr, task.stats.name))
                task.pending_value = value
                buckets = self._buckets
                bucket = buckets.get(time)
                if bucket is None:
                    bucket = buckets[time] = ([], [])
                    heapq.heappush(self._times, time)
                bucket[1].append(task)
                return
        now = self.now
        done = self.memory.access_time(addr, now)
        if self.injector is not None:
            done += self.injector.memory_extra()
        task.stats.stall += done - now
        task.wait_state = ("stalled", None,
                           f"memory read round trip to {addr}", now)
        # tag/seq are captured at issue: commits run after tag changes
        if self.record:
            seq = next(self._sync_seq)
        else:
            seq = 0
        if self.tap is not None:
            self.tap.append(("R", addr, task.stats.name))
        event = _ReadDone(task, addr, task.tag, seq)
        if done == now:
            self._open_resumes.append(event)
            return
        buckets = self._buckets
        bucket = buckets.get(done)
        if bucket is None:
            bucket = buckets[done] = ([], [])
            heapq.heappush(self._times, done)
        bucket[1].append(event)

    def _op_mem_write(self, task: _Task, op: MemWrite) -> None:
        addr = op.addr
        now = self.now
        done = self.memory.access_time(addr, now, kind="W")
        if self.injector is not None:
            done += self.injector.memory_extra()
        if done > task.last_write_commit:
            task.last_write_commit = done
        # tag/seq are captured at issue: commits run after tag changes
        if self.record:
            seq = next(self._sync_seq)
        else:
            seq = 0
        if self.tap is not None:
            self.tap.append(("W", addr, task.stats.name))
        pending = task.store_buffer.get(addr)
        if pending is None:
            task.store_buffer[addr] = [1, op.value]
        else:
            pending[0] += 1
            pending[1] = op.value
        commit = _WriteCommit(task, addr, op.value, task.tag, seq)
        buckets = self._buckets
        if done == now:
            self._open_commits.append(commit)
        else:
            bucket = buckets.get(done)
            if bucket is None:
                bucket = buckets[done] = ([], [])
                heapq.heappush(self._times, done)
            bucket[0].append(commit)
        # Posted write: the processor proceeds after handing the write to
        # the memory system; Fence makes it wait for global visibility.
        time = now + 1
        bucket = buckets.get(time)
        if bucket is None:
            bucket = buckets[time] = ([], [])
            heapq.heappush(self._times, time)
        bucket[1].append(task)

    # -- synchronization fabric ------------------------------------------

    def _op_sync_read(self, task: _Task, op: SyncRead) -> None:
        task.stats.sync_ops += 1
        now = self.now
        done = self.fabric.read_cost(op.var, now,
                                     requester=task.stats.name)
        task.stats.stall += done - now
        task.wait_state = ("stalled", op.var,
                           f"sync read of var {op.var}", now)
        event = _SyncReadDone(self, task, op.var)
        if done == now:
            self._open_resumes.append(event)
            return
        bucket = self._buckets.get(done)
        if bucket is None:
            bucket = self._buckets[done] = ([], [])
            heapq.heappush(self._times, done)
        bucket[1].append(event)

    def _op_sync_write(self, task: _Task, op: SyncWrite) -> None:
        task.stats.sync_ops += 1
        self.var_writers[op.var] = task.stats.name
        self._record_sync("rel", op.var, op.value, task)
        if self.recovery is not None and op.checkpoint is not None:
            # Atomic with the issue; with retransmission active an
            # issued broadcast always commits eventually, so the journal
            # never runs ahead of the signal.
            self.recovery.record_checkpoint(op.checkpoint)
        now = self.now
        done = self.fabric.write(op.var, op.value, now, op.coverable,
                                 requester=task.stats.name)
        if done == now:
            self._open_resumes.append(task)
            return
        task.stats.stall += done - now
        buckets = self._buckets
        bucket = buckets.get(done)
        if bucket is None:
            bucket = buckets[done] = ([], [])
            heapq.heappush(self._times, done)
        bucket[1].append(task)

    def _op_sync_update(self, task: _Task, op: SyncUpdate) -> None:
        task.stats.sync_ops += 1
        self.var_writers[op.var] = task.stats.name
        recovery = self.recovery
        if recovery is not None and op.checkpoint is not None:
            # Journalled at issue, atomically with the update: once
            # this dispatch runs, the update will eventually commit
            # (drops are retried below), so journal == signalled.
            recovery.record_checkpoint(op.checkpoint)
        fn = op.fn
        fate = "ok"
        if self.injector is not None:
            fate = self.injector.update_fate(op.var)
        if fate == "drop":
            if recovery is None:
                # The commit is lost: the variable keeps its old
                # value and the issuer reads that old value back.
                def fn(value):
                    return value
            else:
                self._retry_update(task, op)
                return
        elif fate == "dup":
            if recovery is None:
                original = op.fn

                def fn(value):
                    return original(original(value))
            else:
                # The memory-side sync processor deduplicates the
                # replayed commit: apply exactly once.
                recovery.counters["deduplicated_updates"] += 1
        now = self.now
        task.wait_state = ("stalled", op.var,
                           f"sync update round trip on var {op.var}",
                           now)
        done, cell = self.fabric.update(op.var, fn, now)
        task.stats.stall += done - now
        # Commits precede same-cycle resumes, so the cell is filled
        # when the process wakes with the post-update value.
        event = _UpdateDone(self, task, op.var, cell)
        if done == now:
            self._open_resumes.append(event)
            return
        bucket = self._buckets.get(done)
        if bucket is None:
            bucket = self._buckets[done] = ([], [])
            heapq.heappush(self._times, done)
        bucket[1].append(event)

    def _retry_update(self, task: _Task, op: SyncUpdate) -> None:
        """A dropped RMW commit, with recovery: occupy the bus with the
        lost transaction, then retransmit the real update after the
        recovery delay and hand its value to the issuer."""
        recovery = self.recovery
        started = self.now
        task.wait_state = ("stalled", op.var,
                           f"retrying dropped sync update on var {op.var}",
                           started)
        # The lost commit still costs a transaction round trip.
        lost_done, _lost_cell = self.fabric.update(
            op.var, lambda value: value, self.now)
        retry_at = recovery.rmw_retry_at(lost_done)

        def retry() -> None:
            recovery.counters["rmw_retries"] += 1
            recovery.counters["recovery_overhead_cycles"] += \
                self.now - started
            done, cell = self.fabric.update(op.var, op.fn, self.now)
            task.stats.stall += done - started
            self.schedule(done, lambda: self._resume_at(
                task, self.now, cell.get("value")))

        self.schedule(retry_at, retry)

    def _park(self, task: _Task, op: WaitUntil, parked_at: int) -> None:
        waiters = self._waiters.get(op.var)
        if waiters is None:
            waiters = self._waiters[op.var] = []
        waiters.append((task, op, parked_at))
        self._parked += 1
        reason = op.reason or f"wait on var {op.var}"
        task.wait_state = ("parked", op.var, reason, parked_at)
        if op.max_spin is not None and parked_at == self.now:
            # Bounded wait: armed once at first park (re-parks after a
            # failed re-check keep the original parked_at and deadline).
            deadline_state = ("parked", op.var, reason, parked_at)

            def expire() -> None:
                if task.alive and task.wait_state == deadline_state:
                    raise DeadlockError(
                        f"bounded wait expired: task {task.stats.name!r} "
                        f"spent over {op.max_spin} cycles in "
                        f"{reason!r}", report=self._diagnose())

            timeout = _Timeout(expire)
            task.wait_timeout = timeout
            self._push_resume(parked_at + op.max_spin, timeout)

    def _poll_wait(self, task: _Task, op: WaitUntil, started: int) -> None:
        # The first poll is a mandatory read: account it as a memory
        # stall.  Only re-polls count as busy-waiting (see _Poll).
        done = self.fabric.read_cost(op.var, self.now,
                                     requester=task.stats.name)
        task.stats.stall += done - self.now
        poll = _Poll(self, task, op, started)
        task.wait_state = ("polling", op.var, poll.reason, started)
        if done == self._open_time:
            self._open_resumes.append(poll)
            return
        bucket = self._buckets.get(done)
        if bucket is None:
            bucket = self._buckets[done] = ([], [])
            heapq.heappush(self._times, done)
        bucket[1].append(poll)

    def _fallback_wait(self, task: _Task, op: WaitUntil, started: int,
                       first: bool = True) -> None:
        """Degraded-mode busy-wait: charged polls of the home copy.

        Mirrors :meth:`_poll_wait` but reads the fabric's
        *authoritative* value (the home copy that lost broadcasts still
        reach) at the recovery policy's shared-memory cost, so a waiter
        makes progress even when its local register image is stale.
        Returns to the event-driven path once degraded mode ends.
        """
        if not task.alive:
            return
        recovery = self.recovery
        policy = recovery.policy
        done = self.now + policy.fallback_read_cost
        recovery.charge_fallback_poll(policy.fallback_read_cost)
        if first:
            task.stats.stall += done - self.now
        task.wait_state = ("polling", op.var,
                           (op.reason or f"poll on var {op.var}")
                           + " [degraded mode]", started)

        def check() -> None:
            if op.predicate(self.fabric.authoritative_value(op.var)):
                task.wait_state = None
                if first:
                    task.stats.waits_satisfied_immediately += 1
                else:
                    task.stats.spin += self.now - started
                    if self.record and self.now > started:
                        self.activity.append((task.stats.name, "spin",
                                              started, self.now))
                self._record_sync(
                    "acq", op.var,
                    self.fabric.authoritative_value(op.var), task)
                self._resume_at(task, self.now)
                return
            if (op.max_spin is not None
                    and self.now - started > op.max_spin):
                raise DeadlockError(
                    f"bounded wait expired: task {task.stats.name!r} "
                    f"polled over {op.max_spin} cycles (degraded mode) "
                    f"in {op.reason or f'poll on var {op.var}'!r}",
                    report=self._diagnose())
            spin_from = done if first else started
            if not recovery.degraded:
                # Loss rate recovered: re-arm as a normal event wait.
                if op.predicate(self.fabric.value(op.var)):
                    self._record_sync("acq", op.var,
                                      self.fabric.value(op.var), task)
                    self._resume_at(task, self.now + 1)
                else:
                    self._park(task, op, spin_from)
                return
            next_poll = self.now + policy.fallback_poll_interval
            self.schedule(next_poll,
                          lambda: self._fallback_wait(task, op, spin_from,
                                                      first=False))

        self._push_resume(done, check)
