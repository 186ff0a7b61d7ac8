"""Layer spans and engine counters, installed from outside ``src/``.

:data:`HOOKS` is the one table of what the benchmark wraps: span name ->
the public callables (``"module:attribute.path"``) whose calls the span
times.  A callable is wrapped where the caller looks it up, so a
function imported by name into another module is listed at that
binding too (``compile_loop`` as bound in ``repro.lab.runner``).
``analyze.sanitizer`` wraps only the package-level ``check_trace``: the
optimizer's internal race checks stay inside its own span.

A hook whose attribute is gone (renamed or deleted by a later change)
is skipped with a warning; the metrics that depend on it read ``None``
and the run itself carries on.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: span name -> wrapped callables; ``instrument`` on every registered
#: scheme class is added by :func:`hook_table`
HOOKS: Dict[str, Tuple[str, ...]] = {
    "lab.apps": ("repro.lab.apps:build_app", "repro.lab.runner:build_app"),
    "schemes.instrument": (),
    "compiler": ("repro.lab.runner:compile_loop",),
    "sim.run": ("repro.sim.machine:Machine.run",),
    "schemes.validate": ("repro.schemes.base:InstrumentedLoop.validate",),
    "analyze.optimize": ("repro.analyze.optimize:optimize",),
    "analyze.sanitizer": ("repro.analyze:check_trace",),
    "lab.record.seal": ("repro.lab.runner:make_record",),
    "lab.record.merge": ("repro.lab.runner:merge_records",),
    "lab.cache.load": ("repro.lab.cache:ResultCache.load",),
    "lab.cache.store": ("repro.lab.cache:ResultCache.store",),
    "lab.cache.journal": ("repro.lab.cache:SweepJournal.append",),
    "lab.store.acquire": ("repro.lab.store:CellClaims.acquire",),
    "lab.store.release": ("repro.lab.store:CellClaims.release",),
}

RUN_TARGET = HOOKS["sim.run"][0]


def _run_counts(args: Sequence[Any], _kwargs: Dict, result: Any) -> Tuple:
    return args[0].last_run_info["events_processed"], result.makespan


def _check_counts(args: Sequence[Any], _kwargs: Dict, result: Any) -> Tuple:
    return len(args[0].tap or ()), len(result)


def _load_hit(_args: Sequence[Any], kwargs: Dict, result: Any) -> Any:
    # count=False lookups are single-flight re-checks, not cache traffic
    return (result is not None) if kwargs.get("count", True) else None


#: span name -> what to record from a finished call (args, kwargs, result)
EXTRACTORS: Dict[str, Callable[[Sequence[Any], Dict, Any], Any]] = {
    "sim.run": _run_counts,
    "analyze.optimize": lambda _args, _kwargs, report: len(report.audit),
    "analyze.sanitizer": _check_counts,
    "lab.cache.load": _load_hit,
}


def _warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def hook_table() -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, str]]:
    """:data:`HOOKS` with the scheme classes filled in, plus any span
    whose targets could not even be listed (name -> reason)."""
    table = dict(HOOKS)
    missing = {}
    try:
        registry = importlib.import_module("repro.schemes.registry")
        classes = {type(registry.make_scheme(name))
                   for name in registry.scheme_names()}
        table["schemes.instrument"] = tuple(sorted(
            f"{cls.__module__}:{cls.__qualname__}.instrument"
            for cls in classes))
    except (ImportError, AttributeError, TypeError, ValueError) as err:
        missing["schemes.instrument"] = f"scheme registry: {err}"
    return table, missing


class RunCounter:
    """``Machine.run`` calls, engine events and simulated cycles.

    Installed in every repeat, traced or not: the engine-event count is
    what ``sim_events_per_s`` divides by.  The totals live in shared
    memory, so pool workers forked after :meth:`install` add theirs.
    """

    def __init__(self) -> None:
        #: runs, events, cycles, runs whose counts could not be read
        self._totals = multiprocessing.Array("q", 4)
        self.installed = False

    def install(self) -> None:
        try:
            owner, attr, run = resolve(RUN_TARGET)
        except (ImportError, AttributeError) as err:
            _warn(f"cannot count engine events ({RUN_TARGET}: {err})")
            return
        totals = self._totals

        @functools.wraps(run)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = run(*args, **kwargs)
            try:
                events, cycles = _run_counts(args, kwargs, result)
                unread = 0
            except (AttributeError, KeyError, TypeError):
                events = cycles = 0
                unread = 1
            with totals.get_lock():
                totals[0] += 1
                totals[1] += events
                totals[2] += cycles
                totals[3] += unread
            return result

        setattr(owner, attr, counted)
        self.installed = True

    def snapshot(self) -> Optional[Dict[str, int]]:
        """The totals so far; None when they cannot be trusted."""
        with self._totals.get_lock():
            runs, events, cycles, unread = self._totals[:]
        if not self.installed or unread:
            return None
        return {"runs": runs, "events": events, "cycles": cycles}


class Tracer:
    """In-memory spans around the calls listed in :data:`HOOKS`.

    A span is ``[name, start_ns, end_ns, parent span, thread id, attr]``;
    the parent is the innermost open span of the same thread.  Spans are
    recorded only in the process that installed the tracer: pool workers
    forked from it run the wrappers as plain pass-throughs.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: span name -> why it is not hooked
        self.missing: Dict[str, str] = {}
        self.enabled = True
        self._local = threading.local()
        os.register_at_fork(after_in_child=self.disable)

    def disable(self) -> None:
        self.enabled = False

    def install(self) -> None:
        table, self.missing = hook_table()
        for name, targets in table.items():
            for target in targets:
                try:
                    owner, attr, fn = resolve(target)
                except (ImportError, AttributeError) as err:
                    self.missing[name] = f"{target}: {err}"
                    continue
                setattr(owner, attr, self.wrap(name, fn))
        for name, why in sorted(self.missing.items()):
            _warn(f"span {name} not recorded: {why}")

    def wrap(self, name: str, fn: Callable) -> Callable:
        extract = EXTRACTORS.get(name)
        spans, local, clock = self.spans, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), 0, stack[-1] if stack else None,
                    threading.get_ident(), None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if extract is not None:
                try:
                    span[5] = extract(args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as err:
                    self.missing[name] = f"cannot read counts: {err!r}"
            return result

        return traced

    def export(self, origin_ns: int) -> List[list]:
        """Spans as JSON rows: name, start s, end s (from ``origin_ns``),
        parent row index (-1 for none), thread id, recorded counts."""
        ordered = sorted(self.spans, key=lambda span: span[1])
        index = {id(span): row for row, span in enumerate(ordered)}
        return [[name, (start - origin_ns) / 1e9, (end - origin_ns) / 1e9,
                 index[id(parent)] if parent is not None else -1, thread,
                 attr]
                for name, start, end, parent, thread, attr in ordered]


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Layer:
    def __init__(self) -> None:
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0
        self.attrs: List[Any] = []


def _aggregate(spans: List[list]) -> Dict[str, _Layer]:
    children: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])] += span[2] - span[1]
    layers: Dict[str, _Layer] = defaultdict(_Layer)
    for span in spans:
        layer = layers[span[0]]
        layer.calls += 1
        layer.total_s += (span[2] - span[1]) / 1e9
        layer.self_s += (span[2] - span[1] - children[id(span)]) / 1e9
        if span[5] is not None:
            layer.attrs.append(span[5])
    return layers


#: per-layer metric -> spans it is computed from (None if any is missing)
DEPENDS = {
    "lab.apps": ("lab.apps",),
    "schemes.instrument": ("schemes.instrument",),
    "compiler": ("compiler",),
    "sim.run": ("sim.run",),
    "schemes.validate": ("schemes.validate",),
    "analyze.optimize": ("analyze.optimize",),
    "analyze.sanitizer": ("analyze.sanitizer",),
    "lab.record.seal_s": ("lab.record.seal",),
    "lab.record.merge": ("lab.record.merge",),
    "lab.cache.load_s": ("lab.cache.load",),
    "lab.cache.hits": ("lab.cache.load",),
    "lab.cache.misses": ("lab.cache.load",),
    "lab.cache.store_s": ("lab.cache.store",),
    "lab.cache.journal_s": ("lab.cache.journal",),
    "lab.store": ("lab.store.acquire", "lab.store.release"),
    "trace.attributed_frac": tuple(HOOKS),
}


def layer_metrics(tracer: Tracer, *, wall_s: float, cold_wall_s: float,
                  windows: Sequence[Tuple[float, float, str, int]],
                  jobs: Sequence[Tuple[float, float]],
                  serial_s: Optional[Dict[str, float]] = None,
                  procs: int = 1, store_bytes: int = 0,
                  cache_bytes: int = 0) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass except
    ``trace.overhead_frac``, which needs the untraced repeats.

    ``share`` is the time spent inside a layer's calls, its children
    included, over the traced pass's wall time: ``optimize`` owns the
    instrument and run calls it makes.  ``self_s`` excludes children,
    and ``trace.attributed_frac`` sums self times, so nothing in it is
    counted twice.  ``serial_s`` (service-fanout) maps each cold cell to its
    ``execute_cell`` time measured serially in-process; a cell's executor
    overhead is its start-to-done window at ``procs`` workers minus that,
    so it includes the parent's landing of the result (cache store,
    claim release, journal line).
    """
    layers = _aggregate(tracer.spans)
    get = layers.__getitem__

    def share(name: str) -> float:
        return get(name).total_s / wall_s if wall_s else 0.0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    run_events = sum(events for events, _cycles in get("sim.run").attrs)
    check_events = sum(events for events, _races in
                       get("analyze.sanitizer").attrs)
    trials = sum(get("analyze.optimize").attrs)
    loads = [hit for hit in get("lab.cache.load").attrs if hit is not None]
    metrics: Dict[str, Optional[float]] = {
        "lab.apps.self_s": get("lab.apps").self_s,
        "schemes.instrument.self_s": get("schemes.instrument").self_s,
        "schemes.instrument.calls": get("schemes.instrument").calls,
        "schemes.instrument.share": share("schemes.instrument"),
        "compiler.self_s": get("compiler").self_s,
        "compiler.calls": get("compiler").calls,
        "sim.run.self_s": get("sim.run").self_s,
        "sim.run.events": run_events,
        "sim.run.ns_per_event": ratio(get("sim.run").self_s * 1e9,
                                      run_events),
        "sim.run.cycles": sum(cycles for _events, cycles in
                              get("sim.run").attrs),
        "sim.run.share": share("sim.run"),
        "schemes.validate.self_s": get("schemes.validate").self_s,
        "schemes.validate.calls": get("schemes.validate").calls,
        "schemes.validate.share": share("schemes.validate"),
        "analyze.optimize.self_s": get("analyze.optimize").self_s,
        "analyze.optimize.calls": get("analyze.optimize").calls,
        "analyze.optimize.trials": trials,
        "analyze.optimize.ms_per_trial": ratio(
            get("analyze.optimize").total_s * 1e3, trials),
        "analyze.optimize.share": share("analyze.optimize"),
        "analyze.sanitizer.self_s": get("analyze.sanitizer").self_s,
        "analyze.sanitizer.events": check_events,
        "analyze.sanitizer.events_per_s": ratio(
            check_events, get("analyze.sanitizer").total_s),
        "analyze.sanitizer.races": sum(races for _events, races in
                                       get("analyze.sanitizer").attrs),
        "lab.record.seal_s": get("lab.record.seal").self_s,
        "lab.record.merge_s": get("lab.record.merge").self_s,
        "lab.record.merge_calls": get("lab.record.merge").calls,
        "lab.record.store_bytes": store_bytes,
        "lab.cache.load_s": get("lab.cache.load").self_s,
        "lab.cache.store_s": get("lab.cache.store").self_s,
        "lab.cache.journal_s": get("lab.cache.journal").self_s,
        "lab.cache.hits": sum(1 for hit in loads if hit),
        "lab.cache.misses": sum(1 for hit in loads if not hit),
        "lab.cache.bytes": cache_bytes,
        "lab.store.claim_s": (get("lab.store.acquire").self_s
                              + get("lab.store.release").self_s),
        "lab.store.claims": get("lab.store.acquire").calls,
    }

    overhead, job_overhead, busy = [], [], 0.0
    if serial_s:
        by_job: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for start, end, key, job in windows:
            overhead.append(end - start - serial_s[key])
            by_job[job].append((start, end))
        job_overhead = [end - start - _union_length(by_job[job])
                        for job, (start, end) in enumerate(jobs)]
        busy = sum(serial_s.values())
    metrics["lab.executor.overhead_ms_p50"] = (
        statistics.median(overhead) * 1e3 if overhead else 0.0)
    metrics["lab.executor.busy_frac"] = ratio(busy, procs * cold_wall_s)
    metrics["lab.service.job_overhead_ms_p50"] = (
        statistics.median(job_overhead) * 1e3 if job_overhead else 0.0)
    metrics["trace.attributed_frac"] = ratio(
        sum(layer.self_s for layer in layers.values()), wall_s)

    for name in metrics:
        needs = next((spans for prefix, spans in DEPENDS.items()
                      if name.startswith(prefix)), ())
        if any(span in tracer.missing for span in needs):
            metrics[name] = None
    return metrics
