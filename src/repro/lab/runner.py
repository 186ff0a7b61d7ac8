"""The sweep engine: expand a spec, consult the cache, fan out, merge.

:func:`execute_grid` is the one grid-execution core behind both
entry points:

* :func:`run_sweep` -- the batch API: runs the grid synchronously on
  the caller's thread, with a private supervisor per call;
* :class:`~repro.lab.service.SweepService` -- the server API: many
  concurrent jobs run the same core against one shared supervised
  worker pool.

The contract, identical in both modes:

* **incremental** -- each cell is looked up in the content-addressed
  :class:`~repro.lab.cache.ResultCache` first; only cells whose inputs
  (source tree or config) changed are re-simulated;
* **parallel** -- cache misses fan out across supervised worker
  processes (simulations are deterministic and share nothing, so
  workers are safe);
* **supervised** -- the executor journals each record as it lands,
  kills and re-dispatches timed-out or crashed workers with bounded
  backoff-retry, and quarantines cells that exhaust the budget instead
  of aborting the grid; an interrupted sweep re-enters via
  ``resume=True`` recomputing nothing already paid for;
* **observable** -- progress streams as typed, schema-versioned
  :mod:`~repro.lab.events` (``cell-start`` / ``cell-done`` /
  ``cell-shared`` / ``cell-failed``): a batch ``on_event`` hook gets
  them unstamped (``job=""``, ``seq=0``); service subscribers get the
  same events stamped with their job and sequence number, between the
  job's ``submitted`` and ``job-done``;
* **deterministic** -- records come back in grid order and contain no
  environment facts, so the merged ``BENCH_sweeps.json`` is
  byte-identical whether the sweep ran serially, on 8 workers, from
  cache, or through a server shared by N clients.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..compiler.pipeline import compile_loop
from ..faults.chaos import (ClassifiedRun, fault_machine_config,
                            run_classified)
from ..faults.plan import make_plan
from ..schemes.base import InstrumentedLoop
from ..schemes.registry import make_scheme
from ..sim import Machine, MachineConfig
from .apps import build_app
from .cache import DEFAULT_CACHE_DIR, ResultCache, SweepJournal
from .chaos import ExecutorChaos
from .events import (CellDone, CellFailed, CellShared, CellStarted,
                     SweepEvent)
from .executor import (DEFAULT_MAX_RETRIES, CellFailure, PoolSupervisor,
                       backoff_delay)
from .record import canonical_dumps, make_record, merge_records
from .spec import AUTO_SCHEME, SweepCell, SweepSpec
from .store import CellClaims, ClaimPolicy, reap_orphan_tmps

#: a worker result larger than this is rejected (and the attempt
#: retried): real records are kilobytes, so anything near the limit is
#: a corrupted or runaway payload, not a measurement
RESULT_BYTE_LIMIT = 8 * 2 ** 20


class IncompleteSweepError(RuntimeError):
    """The executor returned neither a record nor a failure for cells.

    Names the missing cell keys outright -- the supervised replacement
    for the old silent ``zip(todo, fresh)`` merge, which would have
    misaligned records on a length mismatch instead of failing loudly.
    """

    def __init__(self, missing_keys: Sequence[str]) -> None:
        self.missing_keys = list(missing_keys)
        preview = ", ".join(self.missing_keys[:4])
        if len(self.missing_keys) > 4:
            preview += f", ... ({len(self.missing_keys)} total)"
        super().__init__(
            f"sweep lost {len(self.missing_keys)} cell(s) without a "
            f"record or a quarantine entry: {preview}")


class JobCancelled(RuntimeError):
    """A sweep job was cancelled (client cancel or server drain).

    Landed cells are already cached and journaled; only unfinished
    cells were abandoned, so re-running the same grid recomputes
    nothing already paid for.
    """


def _elimination_info(config: Mapping[str, Any],
                      instrumented: InstrumentedLoop
                      ) -> Optional[Dict[str, Any]]:
    """The cell's redundant-sync column: optimizer counts, as metrics.

    Analysis only -- the simulated run keeps the scheme's full
    placement, so every other metric stays comparable with and without
    the column.  The column is computed by the cost-model-guided
    optimizer (:mod:`repro.analyze.optimize`); the dict keeps the
    eliminator-era keys (``sync_arcs``, ``sync_arcs_after``,
    ``sync_ops_before``, ``sync_ops_after``, ``dropped``) so existing
    record consumers keep working, and adds the optimizer's predicted
    cycle counts and chosen configuration.  ``instrumented`` is the
    cell's own placement: the optimizer searches its loop and graph and
    takes it as the input placement instead of building it again.
    Imported lazily:
    :mod:`repro.analyze` imports ``lab.apps``, so a module-level import
    here would be circular.
    """
    if not config.get("eliminate"):
        return None
    from ..analyze import AnalysisError
    from ..analyze.optimize import optimize
    try:
        report = optimize(instrumented.loop, instrumented.scheme,
                          instrumented=instrumented, app=config["app"])
    except (AnalysisError, NotImplementedError, ValueError) as err:
        return {"supported": False,
                "reason": str(err).splitlines()[0]}
    return {
        "supported": True,
        # eliminator-compatible keys (the original column shape)
        "sync_arcs": len(report.kept) + len(report.dropped),
        "sync_arcs_after": len(report.kept),
        "sync_ops_before": report.sync_ops_before,
        "sync_ops_after": report.sync_ops_after,
        "dropped": [f"{arc.src_sid}->{arc.dst_sid} (d={arc.distance})"
                    for arc in report.dropped],
        # optimizer extras
        "predicted_cycles_before": report.predicted_cycles_before,
        "predicted_cycles_after": report.predicted_cycles_after,
        "chosen_scheme": report.chosen_scheme,
        "chosen_fold": report.chosen_fold,
        "beats_baseline": report.beats_baseline,
    }


def _machine_for(config: Mapping[str, Any]) -> Machine:
    settings = dict(processors=config["processors"],
                    schedule=config["schedule"],
                    metrics="full" if config["validate"] else "counters",
                    wait_bound=config["wait_bound"])
    if config.get("plan"):
        return Machine(fault_machine_config(
            make_plan(config["plan"], seed=config["seed"]),
            recover=bool(config.get("recover")), **settings))
    return Machine(MachineConfig(**settings))


def execute_cell(config: Mapping[str, Any],
                 key: Optional[str] = None) -> Dict[str, Any]:
    """Simulate one cell config and return its versioned record.

    Module-level (picklable) so pool workers can run it directly.  The
    outcome is ``serial`` when the compiler declined to parallelize;
    otherwise :func:`repro.faults.chaos.run_classified` names it with
    the degradation contract's taxonomy (``ok``,
    ``deadlock-``/``limit-diagnosed`` or ``-undiagnosed``,
    ``corruption-detected``).  This is the one runner of a fault-plan
    cell, whether a sweep spec or ``python -m repro chaos`` built it; a
    run that died keeps its hazard report in the record's ``hazard``.
    A non-``auto`` cell analyzes and instruments its loop once: the
    optimizer column and the simulated run share one placement, and so
    one dependence graph and one enumeration of its instances.
    """
    key = key or SweepCell.from_config(config).key
    loop = build_app(config["app"], config["app_params"])
    serial_cycles = loop.serial_cycles()
    machine = _machine_for(config)
    compile_info: Optional[Dict[str, Any]] = None
    elimination: Optional[Dict[str, Any]] = None
    run = ClassifiedRun(outcome="serial")
    if config["scheme"] == AUTO_SCHEME:
        decision = compile_loop(loop, processors=config["processors"])
        compile_info = {
            "classification": decision.classification.label,
            "delay": (round(decision.delay.delay, 4)
                      if decision.delay is not None else None),
            "scheme": decision.chosen_scheme,
        }
        instrumented = (decision.instrumented if decision.runs_parallel
                        else None)
    else:
        instrumented = make_scheme(config["scheme"]).instrument(loop)
        elimination = _elimination_info(config, instrumented)
    if instrumented is not None:
        run = run_classified(machine, instrumented,
                             validate=bool(config["validate"]))
    return make_record(key, config, outcome=run.outcome, result=run.result,
                       serial_cycles=serial_cycles,
                       compile_info=compile_info,
                       elimination=elimination,
                       error=run.error, hazard=run.report)


def _worker(item: Tuple[Dict[str, Any], str]) -> Dict[str, Any]:
    config, key = item
    return execute_cell(config, key)


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call (or service job) produced."""

    spec_name: str
    records: List[Dict[str, Any]]
    hits: int
    misses: int
    procs: int
    json_path: Optional[pathlib.Path] = None
    #: extra per-report notes (e.g. cache fingerprint) for display
    notes: Dict[str, Any] = field(default_factory=dict)
    #: cells that exhausted their retry budget -- quarantined, never
    #: merged into the store, and a non-zero exit from the CLI
    failed: List[CellFailure] = field(default_factory=list)
    #: cell keys *this process* actually simulated (paid for); cells
    #: served by waiting on another writer's claim are not in here --
    #: the accounting behind "zero duplicated simulations"
    simulated_keys: List[str] = field(default_factory=list)

    @property
    def all_cached(self) -> bool:
        """True when every cell was served from the warm cache."""
        return self.misses == 0 and bool(self.records)

    @property
    def degraded(self) -> bool:
        """True when the sweep finished but quarantined cells."""
        return bool(self.failed)

    def metrics_by(self, *config_fields: str) -> Dict[Tuple, Dict]:
        """Index the records' metrics by the given config fields.

        Benchmarks use this to keep paper-shaped assertions terse::

            rows = report.metrics_by("scheme", "app_params.n")
            rows[("reference-based", 50)]["sync_vars"]

        A field may use dotted access into ``app_params``.
        """
        out: Dict[Tuple, Dict] = {}
        for record in self.records:
            parts: List[Any] = []
            for name in config_fields:
                if name.startswith("app_params."):
                    parts.append(record["config"]["app_params"].get(
                        name.split(".", 1)[1]))
                else:
                    parts.append(record["config"].get(name))
            out[tuple(parts)] = record["metrics"]
        return out


@dataclass(frozen=True)
class SweepOptions:
    """Every knob of one sweep, as a single immutable value.

    Collapses the keyword-argument pile :func:`run_sweep` had grown
    into one object that can be built once and shared between batch
    runs and a :class:`~repro.lab.service.SweepService` -- the same
    move :class:`repro.schemes.RunConfig` made for ``scheme.run``.
    Frozen so an options value can be shared without aliasing
    surprises; derive variants with :func:`dataclasses.replace`.
    """

    #: parallel worker processes for cold cells (1 = inline serial)
    procs: int = 1
    #: result cache directory; None disables caching entirely
    cache_dir: Optional[pathlib.Path] = DEFAULT_CACHE_DIR
    #: an explicit cache instance (overrides ``cache_dir``)
    cache: Optional[ResultCache] = None
    #: merge the run's records into this versioned store
    json_path: Optional[pathlib.Path] = None
    #: statically verify every (app, scheme) placement before simulating
    preflight: bool = False
    #: per-cell wall-clock budget; a cell running longer is killed and
    #: re-dispatched (counts against ``max_retries``)
    cell_timeout: Optional[float] = None
    #: extra attempts per cell after the first, with capped backoff
    max_retries: int = DEFAULT_MAX_RETRIES
    #: seeded orchestration-fault injection (testing/CI)
    chaos: Optional[ExecutorChaos] = None
    #: re-enter an interrupted sweep via cache/journal lookup
    resume: bool = False
    #: timing knobs for claim heartbeats, staleness, and waiting
    claim_policy: Optional[ClaimPolicy] = None
    #: preserve the journal trail of a fully-successful sweep
    keep_journal: bool = False
    #: typed progress hook; receives every :class:`SweepEvent`
    on_event: Optional[Callable[[SweepEvent], None]] = None


def _validate_worker_record(result: Any, key: str) -> Optional[str]:
    """Reject malformed, mis-keyed, or oversized worker results.

    Returning an error string makes the supervisor treat the landed
    value as a failed attempt (``bad-result``) and retry the cell --
    the guard that turns a corrupted or runaway payload into a
    re-simulation instead of a poisoned store.
    """
    if not isinstance(result, Mapping):
        return f"not a record: {type(result).__name__}"
    if result.get("key") != key:
        return f"record key {result.get('key')!r} != cell key {key!r}"
    try:
        size = len(canonical_dumps(dict(result)))
    except (TypeError, ValueError) as err:
        return f"unserializable record: {err}"
    if size > RESULT_BYTE_LIMIT:
        return f"record too large ({size} bytes > {RESULT_BYTE_LIMIT})"
    return None


def make_supervisor(options: SweepOptions, procs: int) -> PoolSupervisor:
    """A sweep's :class:`PoolSupervisor` of ``procs`` workers (0: run
    cells inline), wired to simulate cells under ``options``' timeout,
    retry budget and chaos, and to reject malformed worker records."""
    return PoolSupervisor(_worker, procs=procs,
                          cell_timeout=options.cell_timeout,
                          max_retries=options.max_retries,
                          chaos=options.chaos,
                          validate=_validate_worker_record)


#: one cold cell: (grid index, config, human key, cache key-or-None);
#: the cache key is set whenever the sweep has a cache
_Cold = Tuple[int, Dict[str, Any], str, Optional[str]]


def execute_grid(name: str, cells: Sequence[SweepCell],
                 options: Optional[SweepOptions] = None, *,
                 supervisor: Optional[PoolSupervisor] = None,
                 claims: Optional[CellClaims] = None,
                 cancel: Optional[threading.Event] = None,
                 group: str = "") -> SweepReport:
    """Execute one grid of cells: cache-check, supervise misses, merge.

    The shared core under :func:`run_sweep` and every
    :class:`~repro.lab.service.SweepService` job.  ``options.on_event``
    receives every :class:`SweepEvent` as it happens.  Batch callers
    leave the service hooks at their defaults; the service passes its
    own:

    ``supervisor``
        a running :class:`~repro.lab.executor.PoolSupervisor` shared
        with other jobs (None: a private one from
        :func:`make_supervisor`, built when the first cold cell needs
        it and closed on return; it runs cells inline on this thread
        when ``options.procs <= 1`` with no chaos and no cell timeout,
        else on ``min(procs, cold cells)`` worker processes);
    ``claims``
        a shared :class:`CellClaims` instance (None: one is built and
        closed here whenever a cache exists) -- sharing one instance
        is what extends single-flight dedup across a service's jobs:
        a cell in flight for one job is waited on, not recomputed, by
        every other;
    ``cancel``
        an event that aborts the job at the next safe point with
        :class:`JobCancelled`; landed cells stay cached and journaled;
    ``group``
        the job id used for fair interleaving in the shared pool.

    Cold cells are stored to the cache and journaled *as they land*
    (paid work survives any later crash); cells past
    ``options.cell_timeout`` are killed and re-dispatched; failed
    attempts retry with capped exponential backoff up to
    ``options.max_retries`` extra tries; budget-exhausted cells are
    quarantined into ``report.failed`` while the rest of the grid
    finishes.  ``options.resume`` (requires the cache) re-enters an
    interrupted sweep recomputing zero already-paid cells.
    """
    options = options or SweepOptions()
    send = options.on_event or (lambda event: None)
    cells = list(cells)
    notes: Dict[str, Any] = {}
    if options.preflight:
        # lazy: repro.analyze imports lab.apps, so importing it at
        # module level here would be circular
        from ..analyze import AnalysisError
        from ..analyze.gate import gate as analysis_gate
        apps = sorted({cell.app for cell in cells})
        schemes = sorted({cell.scheme for cell in cells
                          if cell.scheme != AUTO_SCHEME})
        if apps and schemes:
            verdict = analysis_gate(apps=apps, schemes=schemes)
            if not verdict.ok:
                raise AnalysisError(
                    "pre-flight analysis gate failed: "
                    + "; ".join(verdict.failing))
            notes["preflight"] = (f"{len(verdict.reports)} placement(s) "
                                  f"verified clean")
    cache = options.cache
    if cache is None and options.cache_dir is not None:
        cache = ResultCache(pathlib.Path(options.cache_dir))
    if options.resume and cache is None:
        raise ValueError("resume=True needs the result cache: completed "
                         "cells are recovered by cache/journal lookup")

    def bail() -> None:
        if cancel is not None and cancel.is_set():
            raise JobCancelled(
                f"job {group or name!r} cancelled; landed cells are "
                "cached and journaled, unfinished cells abandoned")

    bail()
    records: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    todo: List[_Cold] = []
    cache_keys: List[str] = []
    for index, cell in enumerate(cells):
        config = cell.config()
        cache_key = None
        if cache is not None:
            cache_key = cache.key_for(config)
            cache_keys.append(cache_key)
            cached = cache.load(cache_key)
            if cached is not None:
                records[index] = cached
                send(CellShared(key=cell.key, via="cache", record=cached))
                continue
        todo.append((index, config, cell.key, cache_key))

    journal = (SweepJournal.for_keys(cache.root, cache_keys)
               if cache is not None else None)
    hits = len(cells) - len(todo)
    if journal is not None:
        if options.resume:
            notes["resumed"] = (f"{hits} completed cell(s) recovered "
                                f"from cache/journal, {len(todo)} left")
        else:
            # a fresh (non-resume) run starts a fresh trail
            journal.clear()

    claims_owned = False
    policy = options.claim_policy or ClaimPolicy()
    if cache is None:
        claims = None
    elif claims is None and todo:
        # a SIGKILLed predecessor's half-written tmp files are garbage
        # the moment its pid is gone; sweep startup is the natural
        # place to sweep them up
        reap_orphan_tmps(cache.root)
        claims = CellClaims(cache.root, policy)
        claims_owned = True

    simulated: List[str] = []
    failures: List[CellFailure] = []
    #: cache keys this call claimed; any still held on exit (cancel,
    #: interrupt) are released in the finally block so other writers
    #: never wait out the staleness horizon on an abandoned cell
    acquired: List[str] = []
    shared = 0
    #: the private supervisor, built on first use when none was passed
    owned: Optional[PoolSupervisor] = None

    def journal_line(entry: Dict[str, Any]) -> None:
        if journal is not None:
            journal.append(entry)

    def serve_shared(index: int, key: str,
                     record: Dict[str, Any]) -> None:
        """Another writer paid for this cell; we just read its entry."""
        nonlocal shared
        records[index] = record
        shared += 1
        journal_line({"cell": key, "status": "shared",
                      "pid": os.getpid()})
        send(CellShared(key=key, via="concurrent", record=record))

    def try_claim(item: _Cold, claimed: List[_Cold]) -> bool:
        """Claim one cold cell; False when another writer holds it.

        On True the cell is settled: appended to ``claimed`` for this
        call to simulate, or served shared when the entry landed
        between our cache miss and the claim (the double-check).
        """
        index, _config, key, cache_key = item
        if not claims.acquire(cache_key):
            return False
        acquired.append(cache_key)
        record = cache.load(cache_key, count=False)
        if record is None:
            claimed.append(item)
        else:
            claims.release(cache_key)
            serve_shared(index, key, record)
        return True

    def run_batch(batch: List[_Cold]) -> None:
        """Simulate one batch of claimed (or unclaimed) cold cells."""
        nonlocal owned
        def on_landed(position: int, key: str,
                      record: Dict[str, Any]) -> None:
            index, _config, _key, cache_key = batch[position]
            records[index] = record
            # journal as it lands: store first (the durable result),
            # then release the claim (waiters may now read), then the
            # trail line, then the caller's progress hook -- a crash
            # between any two steps loses bookkeeping, never paid work
            if cache is not None:
                cache.store(cache_key, record)
            if claims is not None:
                claims.release(cache_key)
            journal_line({"cell": key, "status": "done",
                          "outcome": record.get("outcome"),
                          "pid": os.getpid(), "simulated": True})
            simulated.append(key)
            send(CellDone(key=key, outcome=record.get("outcome", "ok"),
                          record=record))

        def on_dispatch(_position: int, key: str, attempt: int) -> None:
            journal_line({"cell": key, "status": "start",
                          "attempt": attempt + 1, "pid": os.getpid()})
            send(CellStarted(key=key, attempt=attempt + 1))

        items = [(config, key) for _i, config, key, _ck in batch]
        keys = [key for _i, _config, key, _ck in batch]
        if supervisor is None and owned is None:
            inline = (options.procs <= 1 and options.chaos is None
                      and options.cell_timeout is None)
            owned = make_supervisor(options, 0 if inline else max(
                1, min(options.procs, len(todo)))).start()
        outcome = (supervisor or owned).run_batch(
            items, keys=keys, group=group, on_result=on_landed,
            on_dispatch=on_dispatch)
        if outcome.cancelled:
            raise JobCancelled(
                f"job {group or name!r} cancelled mid-batch; landed "
                "cells are cached and journaled")
        for failure in outcome.failures:
            failures.append(failure)
            journal_line({"cell": failure.key, "status": "failed",
                          "reason": failure.reason,
                          "attempts": failure.attempts,
                          "detail": failure.detail, "pid": os.getpid()})
            send(CellFailed(key=failure.key, reason=failure.reason,
                            attempts=failure.attempts,
                            detail=failure.detail))
            # a quarantined cell must not stay claimed: other writers
            # would wait out the full staleness horizon for a cell
            # this process has already given up on
            if claims is not None:
                claims.release(next(cache_key for _i, _c, key, cache_key
                                    in batch if key == failure.key))
        notes["retries"] = notes.get("retries", 0) + outcome.retries
        notes["respawns"] = notes.get("respawns", 0) + outcome.respawns

    try:
        mine: List[_Cold] = []
        theirs: List[_Cold] = []
        if claims is not None:
            for item in todo:
                bail()
                if not try_claim(item, mine):
                    theirs.append(item)
        else:
            mine = list(todo)

        if mine:
            bail()
            run_batch(mine)

        takeovers: List[_Cold] = []
        forced = 0
        # single-flight wait: another job or sweep owns ``theirs``.
        # Poll (bounded, with backoff) for either its landed entry or a
        # stale claim we can take over; past the wait budget we
        # recompute rather than hang -- duplicated work degrades
        # gracefully, a stuck sweep does not.
        pending = theirs
        deadline = time.monotonic() + policy.wait_timeout
        spin = 0
        while pending:
            bail()
            still: List[_Cold] = []
            for item in pending:
                index, _config, key, cache_key = item
                record = cache.load(cache_key, count=False)
                if record is not None:
                    serve_shared(index, key, record)
                elif not try_claim(item, takeovers):
                    still.append(item)
            pending = still
            if pending and time.monotonic() >= deadline:
                forced = len(pending)
                takeovers.extend(pending)
                break
            if pending:
                spin += 1
                time.sleep(backoff_delay(spin, policy.poll_base,
                                         policy.poll_cap))
        if takeovers:
            bail()
            run_batch(takeovers)
    finally:
        if owned is not None:
            owned.close()
        if claims is not None:
            # releasing an already-released key is a no-op, so simply
            # drop everything this call ever claimed
            for cache_key in acquired:
                claims.release(cache_key)
            if claims_owned:
                claims.close()

    paid = len(mine) + len(takeovers)
    notes.update(shared=shared, takeovers=len(takeovers) - forced,
                 forced=forced)
    notes = {note: value for note, value in notes.items() if value}

    failed_keys = {failure.key for failure in failures}
    missing = [key for index, _config, key, _ck in todo
               if records[index] is None and key not in failed_keys]
    if missing:
        raise IncompleteSweepError(missing)

    if journal is not None and not failures and not options.keep_journal:
        journal.clear()

    done = [record for record in records if record is not None]
    report = SweepReport(
        spec_name=name, records=done, hits=hits + shared,
        misses=paid,
        procs=options.procs, json_path=options.json_path,
        notes=dict(notes, **({"fingerprint": cache.fingerprint[:12]}
                             if cache else {})),
        failed=failures, simulated_keys=simulated)
    if options.json_path is not None:
        merge_records(pathlib.Path(options.json_path), done)
    return report


def run_sweep(spec: Union[SweepSpec, Sequence[SweepCell]],
              options: Optional[SweepOptions] = None) -> SweepReport:
    """Run a sweep synchronously on the caller's thread.

    The sweep is described by a single :class:`SweepOptions`::

        run_sweep(spec, options=SweepOptions(procs=8, resume=True))

    ``spec`` is a :class:`SweepSpec` or a bare cell sequence.  It runs
    straight through :func:`execute_grid`, the core every service job
    runs too, so everything documented there (supervision, retry,
    quarantine, single-flight, resume, byte-identical merged stores)
    applies verbatim.  ``options.on_event`` receives the cell events
    (``cell-start`` / ``-done`` / ``-shared`` / ``-failed``) without a
    job stamp; any exception, ``KeyboardInterrupt`` included,
    propagates unchanged.
    """
    if isinstance(spec, SweepSpec):
        return execute_grid(spec.name, spec.cells(), options)
    return execute_grid("cells", spec, options)
