"""Sweep-as-a-service: a long-running, multi-client experiment server.

:class:`SweepService` is the front door the batch CLI never had: it
accepts :class:`~repro.lab.spec.SweepSpec` /
:class:`~repro.lab.spec.SweepCell` submissions from many concurrent
clients, assigns each a job id, and runs every job through the same
grid core batch sweeps use (:func:`repro.lab.runner.execute_grid`).
What the service adds over N independent ``run_sweep`` processes:

* **one shared worker pool** -- cells from all jobs interleave fairly
  (round-robin by job) across a single persistent
  :class:`~repro.lab.executor.PoolSupervisor`, so a large job cannot
  starve a small one and total worker count is bounded regardless of
  client count;
* **in-flight dedup** -- one shared :class:`~repro.lab.store.CellClaims`
  instance extends single-flight from "concurrent processes" to
  "concurrent jobs in this process": a cell another job is already
  simulating is waited on and served as ``cell-shared``, never
  recomputed, so two clients racing overlapping grids pay for the
  union exactly once;
* **typed event streams** -- every job emits schema-versioned
  :mod:`~repro.lab.events` to per-job and global subscribers (bounded
  queues: a slow subscriber drops its *oldest* events and sees the gap
  in ``seq``, it never stalls the sweep);
* **drain and resume** -- each accepted job is journaled durably under
  ``<cache>/jobs/`` until it completes; a SIGTERM drain abandons
  unfinished cells (already-landed ones are cached and journaled) and
  a restarted server rescans the directory and resubmits every
  interrupted job with ``resume=True``, recomputing nothing already
  paid for.

Three surfaces share this one implementation: the in-process Python
API (:meth:`SweepService.submit` -> :class:`JobHandle`), the
``python -m repro serve`` daemon (:class:`ServiceServer`, speaking
newline-delimited JSON over a local unix socket), and the
``submit`` / ``status`` / ``watch`` / ``cancel`` client subcommands
(built on :class:`repro.lab.client.ServiceClient`).
"""

from __future__ import annotations

import collections
import json
import pathlib
import re
import socket as socket_module
import threading
from dataclasses import dataclass, field, replace
from typing import (Any, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Union)

from .cache import ResultCache
from .events import (CellDone, CellFailed, CellShared, JobDone,
                     JobSubmitted, SweepEvent)
from .executor import PoolSupervisor
from .runner import (JobCancelled, SweepOptions, SweepReport, execute_grid,
                     make_supervisor)
from .spec import SweepCell, SweepSpec, decode_spec
from .store import (JOBS_DIR, CellClaims, ClaimPolicy, durable_write_text,
                    quarantine_file, reap_orphan_tmps)

#: bump when the journaled job-file layout changes shape
JOB_FILE_VERSION = 1
#: bump when the request/response framing below changes shape
PROTOCOL_VERSION = 1
#: default unix-socket path the daemon listens on
DEFAULT_SOCKET = pathlib.Path(".repro-service.sock")
#: default per-subscriber event buffer (drop-oldest past this)
DEFAULT_MAX_PENDING = 1024

#: job lifecycle states (terminal: done / failed / cancelled /
#: interrupted)
JOB_STATES = ("pending", "running", "done", "failed", "cancelled",
              "interrupted")


class ServiceClosed(RuntimeError):
    """The service is not accepting submissions (closed or draining)."""


@dataclass
class _Job:
    """One accepted submission and everything the service knows about it."""

    id: str
    name: str
    cells: List[SweepCell]
    #: True when reconstituted from a journaled job file on restart
    resume: bool = False
    state: str = "pending"
    report: Optional[SweepReport] = None
    error: Optional[BaseException] = None
    #: full ordered event history (replayed to late subscribers)
    events: List[SweepEvent] = field(default_factory=list)
    next_seq: int = 0
    #: progress counters maintained by the emit path
    completed: int = 0
    failed_cells: int = 0
    user_cancelled: bool = False
    cancel: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)
    thread: Optional[threading.Thread] = None

    def summary(self) -> Dict[str, Any]:
        """The status row the ``status`` op and CLI table show."""
        return {
            "job": self.id,
            "spec": self.name,
            "state": self.state,
            "cells": len(self.cells),
            "completed": self.completed,
            "failed": self.failed_cells,
        }


class Subscription:
    """A bounded event queue feeding one subscriber.

    Backpressure contract: the sweep never waits for a subscriber.
    When more than ``max_pending`` events are waiting, the *oldest* is
    dropped (``dropped`` counts them) -- the subscriber detects the
    loss as a gap in the per-job ``seq`` numbering and can re-fetch
    state via ``status`` rather than stalling every other client.

    Iterating yields events until the stream ends: for a per-job
    subscription, after that job's terminal :class:`JobDone`; for a
    global one, when the subscription is closed.
    """

    def __init__(self, job: Optional[str] = None,
                 max_pending: int = DEFAULT_MAX_PENDING) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.job = job
        self.max_pending = max_pending
        self.dropped = 0
        self.closed = False
        self._items: "collections.deque[SweepEvent]" = collections.deque()
        self._cond = threading.Condition()

    def push(self, event: SweepEvent) -> None:
        with self._cond:
            if self.closed:
                return
            if len(self._items) >= self.max_pending:
                self._items.popleft()
                self.dropped += 1
            self._items.append(event)
            self._cond.notify_all()

    def get(self, timeout: Optional[float] = None) -> Optional[SweepEvent]:
        """Next event, or None on timeout / closed-and-drained."""
        with self._cond:
            while not self._items and not self.closed:
                if not self._cond.wait(timeout):
                    return None
            if self._items:
                return self._items.popleft()
            return None

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def __iter__(self) -> Iterator[SweepEvent]:
        while True:
            event = self.get()
            if event is None:
                return
            yield event
            if self.job is not None and isinstance(event, JobDone):
                return


class JobHandle:
    """A client's view of one submitted job."""

    def __init__(self, service: "SweepService", job: _Job) -> None:
        self._service = service
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def state(self) -> str:
        return self._job.state

    def done(self) -> bool:
        return self._job.done.is_set()

    def result(self, timeout: Optional[float] = None) -> SweepReport:
        """Block until the job finishes; return its report.

        Raises :class:`~repro.lab.runner.JobCancelled` for a cancelled
        or drain-interrupted job, the job's own exception for a failed
        one, and :class:`TimeoutError` past ``timeout``.
        """
        if not self._job.done.wait(timeout):
            raise TimeoutError(
                f"job {self._job.id} still {self._job.state!r} after "
                f"{timeout:g}s")
        if self._job.state == "done":
            assert self._job.report is not None
            return self._job.report
        if self._job.state == "cancelled":
            raise JobCancelled(f"job {self._job.id} was cancelled")
        if self._job.state == "interrupted":
            raise JobCancelled(
                f"job {self._job.id} was interrupted by a drain; it is "
                "journaled and will resume when a service restarts on "
                "the same cache")
        assert self._job.error is not None
        raise self._job.error

    def events(self, *, replay: bool = True,
               max_pending: int = DEFAULT_MAX_PENDING) -> Subscription:
        """Subscribe to this job's event stream (iterate to consume)."""
        return self._service.subscribe(job=self._job.id, replay=replay,
                                       max_pending=max_pending)

    def cancel(self) -> bool:
        return self._service.cancel(self._job.id)


class SweepService:
    """The long-running sweep server (see the module docstring).

    ``options.on_event``, when set, receives every job's events stamped
    with the job id and per-job ``seq``, ``submitted`` and ``job-done``
    included.
    """

    def __init__(self, options: Optional[SweepOptions] = None) -> None:
        self.options = options or SweepOptions()
        self.cache: Optional[ResultCache] = None
        self._jobs: "collections.OrderedDict[str, _Job]" = \
            collections.OrderedDict()
        self._subs: List[Subscription] = []
        self._lock = threading.RLock()
        self._counter = 1
        self._running = False
        self._draining = False
        self._pool: Optional[PoolSupervisor] = None
        self._claims: Optional[CellClaims] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SweepService":
        """Bring the service up; resumes any journaled jobs (idempotent)."""
        if self._running:
            return self
        options = self.options
        cache = options.cache
        if cache is None:
            if options.cache_dir is None:
                raise ValueError(
                    "a SweepService needs the result cache: jobs dedup, "
                    "journal, and resume through it")
            cache = ResultCache(pathlib.Path(options.cache_dir))
        self.cache = cache
        (cache.root / JOBS_DIR).mkdir(parents=True, exist_ok=True)
        reap_orphan_tmps(cache.root)
        self._claims = CellClaims(cache.root,
                                  options.claim_policy or ClaimPolicy())
        self._pool = make_supervisor(options,
                                     max(1, options.procs)).start()
        self._counter = self._next_counter()
        self._running = True
        self._resume_journaled_jobs()
        return self

    def drain(self) -> List[str]:
        """Stop accepting work; interrupt running jobs, keep their
        journaled job files so a restarted service resumes them.
        Returns the interrupted job ids."""
        self._draining = True
        with self._lock:
            jobs = list(self._jobs.values())
        interrupted = []
        for job in jobs:
            if not job.done.is_set():
                interrupted.append(job.id)
                job.cancel.set()
        if self._pool is not None:
            self._pool.close()
        for job in jobs:
            if job.thread is not None:
                job.thread.join(timeout=30)
        return interrupted

    def close(self) -> None:
        """Drain, then release every resource (idempotent)."""
        if not self._running:
            return
        self.drain()
        self._claims.close()
        self._claims = None
        with self._lock:
            subs = list(self._subs)
            self._subs.clear()
        for sub in subs:
            sub.close()
        self._running = False

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- submission ------------------------------------------------------

    def submit(self, spec: Union[SweepSpec, Sequence[SweepCell]], *,
               job_id: Optional[str] = None,
               resume: bool = False) -> JobHandle:
        """Accept one job; returns immediately with its handle.

        ``spec`` is a :class:`SweepSpec` or a bare cell sequence.  The
        job is journaled durably before it runs, so an accepted job
        survives a server crash or drain.
        """
        if not self._running:
            raise ServiceClosed("service is not started")
        if self._draining:
            raise ServiceClosed("service is draining; resubmit to its "
                                "successor")
        if isinstance(spec, SweepSpec):
            name, cells = spec.name, spec.cells()
            spec_json: Dict[str, Any] = spec.to_json()
        else:
            cells = list(spec)
            name = "cells"
            spec_json = {"cells": [cell.config() for cell in cells]}
        with self._lock:
            if job_id is None:
                job_id = f"job-{self._counter:06d}"
                self._counter += 1
            if job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already exists")
            job = _Job(id=job_id, name=name, cells=cells, resume=resume)
            self._jobs[job_id] = job
        durable_write_text(self._job_path(job_id), json.dumps(
            {"job_file_version": JOB_FILE_VERSION, "job": job_id,
             "spec": spec_json}, sort_keys=True) + "\n")
        self._emit(job, JobSubmitted(spec=name, cells=len(cells)))
        job.thread = threading.Thread(target=self._run_job, args=(job,),
                                      name=f"sweep-{job_id}", daemon=True)
        job.thread.start()
        return JobHandle(self, job)

    def cancel(self, job_id: str) -> bool:
        """Cancel one job; False if it had already finished."""
        job = self._job(job_id)
        if job.done.is_set():
            return False
        job.user_cancelled = True
        job.cancel.set()
        if self._pool is not None:
            self._pool.cancel_group(job_id)
        return True

    def status(self, job_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Status rows for one job or (None) all, submission order."""
        if job_id is not None:
            return [self._job(job_id).summary()]
        with self._lock:
            return [job.summary() for job in self._jobs.values()]

    def handle(self, job_id: str) -> JobHandle:
        """The handle of an already-submitted job."""
        return JobHandle(self, self._job(job_id))

    def subscribe(self, job: Optional[str] = None, *, replay: bool = True,
                  max_pending: int = DEFAULT_MAX_PENDING) -> Subscription:
        """Attach an event subscriber: one job's stream, or global.

        ``replay`` (per-job only) first delivers the job's history, so
        a late ``watch`` still sees every event; the global stream is
        live-only.
        """
        sub = Subscription(job, max_pending)
        with self._lock:
            if job is not None:
                target = self._job(job)
                if replay:
                    # under the service lock: emitters also take it to
                    # assign seq, so replay-then-attach cannot skip or
                    # duplicate an event
                    for event in target.events:
                        sub.push(event)
            self._subs.append(sub)
        return sub

    # -- internals -------------------------------------------------------

    def _job(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _emit(self, job: _Job, event: SweepEvent) -> None:
        with self._lock:
            event = replace(event, job=job.id, seq=job.next_seq)
            job.next_seq += 1
            job.events.append(event)
            if isinstance(event, (CellDone, CellShared)):
                job.completed += 1
            elif isinstance(event, CellFailed):
                job.failed_cells += 1
            self._subs = [sub for sub in self._subs if not sub.closed]
            subs = [sub for sub in self._subs
                    if sub.job is None or sub.job == job.id]
        for sub in subs:
            sub.push(event)
        hook = self.options.on_event
        if hook is not None:
            hook(event)

    def _run_job(self, job: _Job) -> None:
        job.state = "running"
        # jobs always share the service's cache, keep their journal
        # trail (the dedup accounting clients read), resume journaled
        # grids without clearing them, and stamp events via _emit
        options = replace(self.options, cache=self.cache, cache_dir=None,
                          keep_journal=True, resume=job.resume,
                          on_event=lambda event: self._emit(job, event))
        try:
            report = execute_grid(
                job.name, job.cells, options,
                supervisor=self._pool, claims=self._claims,
                cancel=job.cancel, group=job.id)
        except JobCancelled:
            interrupted = self._draining and not job.user_cancelled
            job.state = "interrupted" if interrupted else "cancelled"
            done = JobDone(spec=job.name, status=job.state)
        except BaseException as err:  # noqa: BLE001 - recorded on the job
            job.state = "failed"
            job.error = err
            text = str(err).splitlines()[0] if str(err) else ""
            done = JobDone(spec=job.name, status="failed",
                           error=text or type(err).__name__)
        else:
            job.state = "done"
            job.report = report
            done = JobDone(spec=job.name, status="done", hits=report.hits,
                           misses=report.misses,
                           shared=report.notes.get("shared", 0),
                           failed=len(report.failed))
        if job.state != "interrupted":
            # a drain keeps the job file (the restart will resume it);
            # every other ending, an explicit cancel included, removes it
            self._remove_job_file(job)
        self._emit(job, done)
        job.done.set()

    def _job_path(self, job_id: str) -> pathlib.Path:
        assert self.cache is not None
        return self.cache.root / JOBS_DIR / f"{job_id}.json"

    def _remove_job_file(self, job: _Job) -> None:
        try:
            self._job_path(job.id).unlink()
        except OSError:
            pass

    def _next_counter(self) -> int:
        """Seed job numbering past any journaled job ids, so a resumed
        job and a fresh submission can never collide."""
        assert self.cache is not None
        best = 0
        for path in (self.cache.root / JOBS_DIR).glob("job-*.json"):
            match = re.fullmatch(r"job-(\d+)", path.stem)
            if match:
                best = max(best, int(match.group(1)))
        return best + 1

    def _resume_journaled_jobs(self) -> List[str]:
        """Resubmit every job a previous server journaled but never
        finished; the cache/journal path recomputes nothing paid for."""
        assert self.cache is not None
        resumed = []
        for path in sorted((self.cache.root / JOBS_DIR).glob("*.json")):
            try:
                data = json.loads(path.read_text())
                if not isinstance(data, Mapping):
                    raise ValueError("not a job object")
                if data.get("job_file_version") != JOB_FILE_VERSION:
                    continue  # another build's state: left alone
                spec = decode_spec(data.get("spec"))
                if data.get("job", path.stem) != path.stem:
                    raise ValueError(f"job {data['job']!r} is not its file")
            except OSError:
                continue
            except ValueError:
                # moved aside, so no restart re-reads it and doctor
                # counts it quarantined instead of pending forever
                quarantine_file(self.cache.root, path)
                continue
            self.submit(spec, job_id=path.stem, resume=True)
            resumed.append(path.stem)
        return resumed


class ServiceServer:
    """The daemon's front door: newline-delimited JSON over a local
    unix socket.

    One JSON object per line.  Requests carry ``op``: ``ping``,
    ``submit`` (``spec``: preset name, spec object, or
    ``{"cells": [...]}``), ``status`` (optional ``job``), ``result``
    (``job``, optional ``timeout``), ``cancel`` (``job``), ``watch``
    (optional ``job`` / ``replay``).  Every reply carries ``ok``;
    ``watch`` replies once, then streams raw event lines on the same
    connection until the stream ends.  Protocol breakage is versioned:
    replies and events both carry their schema versions.
    """

    def __init__(self, service: SweepService,
                 socket_path: Union[str, pathlib.Path] = DEFAULT_SOCKET,
                 ) -> None:
        self.service = service
        self.path = pathlib.Path(socket_path)
        self._sock: Optional[socket_module.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def start(self) -> "ServiceServer":
        if self._sock is not None:
            return self
        if self.path.exists():
            # a dead server's socket file; binding over it needs the
            # unlink first (a live server would still hold the bind)
            self.path.unlink()
        sock = socket_module.socket(socket_module.AF_UNIX,
                                    socket_module.SOCK_STREAM)
        sock.bind(str(self.path))
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True)
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- connection handling ---------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket_module.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name="service-conn", daemon=True).start()

    def _serve_connection(self, conn: socket_module.socket) -> None:
        with conn:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except ValueError:
                    if not self._reply(writer, ok=False,
                                       error="undecodable request line"):
                        return
                    continue
                if not isinstance(request, Mapping):
                    if not self._reply(writer, ok=False,
                                       error="request must be an object"):
                        return
                    continue
                try:
                    streaming = self._handle(dict(request), writer)
                except (BrokenPipeError, OSError):
                    return
                if streaming:
                    # watch owns the connection until its stream ends
                    return

    def _reply(self, writer: Any, **payload: Any) -> bool:
        payload.setdefault("protocol", PROTOCOL_VERSION)
        try:
            writer.write(json.dumps(payload, sort_keys=True) + "\n")
            writer.flush()
            return True
        except (BrokenPipeError, OSError):
            return False

    def _handle(self, request: Dict[str, Any], writer: Any) -> bool:
        """Serve one request; True when the op took over the connection."""
        op = request.get("op")
        try:
            if op == "ping":
                with self.service._lock:
                    jobs = len(self.service._jobs)
                self._reply(writer, ok=True, jobs=jobs,
                            draining=self.service._draining)
            elif op == "submit":
                handle = self.service.submit(
                    decode_spec(request.get("spec")))
                self._reply(writer, ok=True, job=handle.job_id,
                            cells=len(handle._job.cells))
            elif op == "status":
                self._reply(writer, ok=True,
                            jobs=self.service.status(request.get("job")))
            elif op == "cancel":
                cancelled = self.service.cancel(str(request["job"]))
                self._reply(writer, ok=True, cancelled=cancelled)
            elif op == "result":
                job_id = str(request["job"])
                handle = self.service.handle(job_id)
                timeout = request.get("timeout")
                if not handle._job.done.wait(
                        float(timeout) if timeout is not None else None):
                    self._reply(writer, ok=False, job=job_id,
                                error=f"job {job_id} still "
                                      f"{handle.state!r}")
                else:
                    self._reply(writer, ok=True,
                                **handle._job.summary())
            elif op == "watch":
                return self._watch(request, writer)
            else:
                self._reply(writer, ok=False,
                            error=f"unknown op {op!r}")
        except (KeyError, TypeError, ValueError, ServiceClosed) as err:
            self._reply(writer, ok=False,
                        error=str(err).strip("'\"") or type(err).__name__)
        return False

    def _watch(self, request: Dict[str, Any], writer: Any) -> bool:
        job = request.get("job")
        sub = self.service.subscribe(
            job=str(job) if job is not None else None,
            replay=bool(request.get("replay", True)))
        if not self._reply(writer, ok=True, watching=job):
            sub.close()
            return True
        try:
            for event in sub:
                try:
                    writer.write(event.to_line() + "\n")
                    writer.flush()
                except (BrokenPipeError, OSError):
                    return True
        finally:
            sub.close()
        self._reply(writer, ok=True, done=True, dropped=sub.dropped)
        return True


__all__ = [
    "DEFAULT_MAX_PENDING", "DEFAULT_SOCKET", "JOB_FILE_VERSION",
    "JOB_STATES", "JobHandle", "PROTOCOL_VERSION", "ServiceClosed",
    "ServiceServer", "Subscription", "SweepService",
]
