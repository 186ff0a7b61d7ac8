"""Versioned run records and the merged ``BENCH_sweeps.json`` store.

A *run record* is the durable, JSON-native result of one sweep cell:
the cell's config, an outcome label, and the simulated metrics.  It is
what the cache stores and what ``BENCH_sweeps.json`` accumulates.  Two
schema versions gate mixing:

``schema_version``
    the record layout itself (:data:`RECORD_SCHEMA_VERSION`);
``extra_schema_version``
    the :data:`repro.sim.metrics.EXTRA_SCHEMA_VERSION` of the
    ``RunResult.extra`` payload the metrics were derived from.

Loaders treat any mismatch as *stale* -- the record is dropped and the
cell re-simulated -- so results produced by older code are never
silently mixed into fresh sweeps.

Records deliberately contain **no wall-clock times, hostnames or other
environment facts**: a record is a pure function of (source tree,
config), which is what makes the merged JSON byte-identical across
serial, parallel and cached executions of the same grid.
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

from ..sim.metrics import EXTRA_SCHEMA_VERSION, RunResult

if TYPE_CHECKING:
    from ..faults.watchdog import HazardReport

#: bump when the record layout below changes shape
RECORD_SCHEMA_VERSION = 1


def canonical_dumps(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def make_record(key: str, config: Mapping[str, Any], *,
                outcome: str = "ok",
                result: Optional[RunResult] = None,
                serial_cycles: Optional[int] = None,
                compile_info: Optional[Mapping[str, Any]] = None,
                error: Optional[str] = None,
                elimination: Optional[Mapping[str, Any]] = None,
                hazard: Optional["HazardReport"] = None,
                ) -> Dict[str, Any]:
    """Build the versioned record for one executed cell.

    ``result`` is None when the run died (diagnosed hazard) or the
    compiler decided the loop runs serially; ``error`` then carries the
    first line of the diagnosis.  A run that died with a ``hazard``
    report gains a top-level ``hazard`` object: the blocking wait-for
    ``cycle`` (None when there is none), the ``blocked`` tasks' states
    by task name, and the ``recovery`` counters and
    ``recovery_actions`` the recovery layer reached before the death.
    """
    record: Dict[str, Any] = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "extra_schema_version": EXTRA_SCHEMA_VERSION,
        "key": key,
        "config": dict(config),
        "outcome": outcome,
    }
    if compile_info is not None:
        record["compile"] = dict(compile_info)
    if error is not None:
        record["error"] = error
    if hazard is not None:
        record["hazard"] = {
            "cycle": list(hazard.cycle) if hazard.cycle else None,
            "blocked": {diag.task: diag.state
                        for diag in hazard.blocked()},
            "recovery": dict(hazard.recovery),
            "recovery_actions": list(hazard.recovery_actions),
        }
    if result is None:
        record["metrics"] = None
        if serial_cycles is not None:
            record["metrics"] = {"serial_cycles": serial_cycles}
        if elimination is not None and record["metrics"] is not None:
            record["metrics"]["elimination"] = dict(elimination)
        return record
    metrics: Dict[str, Any] = dict(result.summary())
    if elimination is not None:
        metrics["elimination"] = dict(elimination)
    if serial_cycles is not None:
        metrics["serial_cycles"] = serial_cycles
        metrics["speedup"] = round(result.speedup_over(serial_cycles), 6)
    if result.faults:
        metrics["faults"] = dict(result.faults)
    if result.recovery:
        metrics["recovery"] = dict(result.recovery)
    record["metrics"] = metrics
    return record


def record_is_current(record: Mapping[str, Any]) -> bool:
    """True when ``record`` was produced by the current schemas."""
    return (isinstance(record, Mapping)
            and record.get("schema_version") == RECORD_SCHEMA_VERSION
            and record.get("extra_schema_version") == EXTRA_SCHEMA_VERSION)


def merge_records(path: pathlib.Path,
                  records: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge ``records`` into the versioned store at ``path``.

    The store maps record key -> record.  Existing records with a stale
    schema version are dropped (detected, not mixed); fresh records
    replace same-key predecessors.  The file is written with sorted
    keys and a trailing newline, so identical record sets produce
    byte-identical files regardless of how the sweep was executed.

    A missing or empty file is an empty store.  A file that is not a
    store -- unparsable text, or JSON whose top level or ``records`` is
    not an object -- raises :class:`ValueError` naming ``path`` and is
    left untouched: the merge never replaces records it cannot read.

    The whole read-merge-write runs under the advisory
    :class:`~repro.lab.store.StoreLock` at ``<path>.lock``, so N
    concurrent sweeps merging into one store serialize instead of
    losing each other's records to a read-modify-write race; the write
    itself goes through a unique tmp file + fsync + atomic rename, so
    a sweep killed mid-merge (Ctrl-C, SIGTERM, OOM) leaves either the
    old store or the new one on disk, never a torn half-written JSON
    document.
    """
    # lazy: store.py imports this module's canonical helpers, so a
    # module-level import here would be circular
    from .store import StoreLock, durable_write_text

    path = pathlib.Path(path)
    store: Dict[str, Any] = {"schema_version": RECORD_SCHEMA_VERSION,
                             "records": {}}
    with StoreLock(path.with_name(path.name + ".lock")):
        try:
            text = path.read_text() if path.exists() else ""
            previous = json.loads(text) if text else {}
        except (OSError, ValueError) as err:
            raise ValueError(f"record store {path} is unreadable ({err}); "
                             f"not merging") from None
        if not (isinstance(previous, dict)
                and isinstance(previous.get("records", {}), dict)):
            raise ValueError(f"record store {path} is not an object with "
                             f"a \"records\" object; not merging")
        for key, record in previous.get("records", {}).items():
            if record_is_current(record):
                store["records"][key] = record
        for record in records:
            store["records"][record["key"]] = dict(record)
        durable_write_text(path, json.dumps(store, sort_keys=True, indent=1,
                                            ensure_ascii=True) + "\n")
    return store
