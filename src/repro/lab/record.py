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
import os
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


#: per store path (absolute), the rendered chunk of every record in the
#: store this process last wrote there, keyed by record key; see
#: :func:`merge_records` for when they may be reused
_STORE_CHUNKS: Dict[str, Dict[str, str]] = {}


def _render_record(key: str, record: Mapping[str, Any]) -> str:
    """One record's entry, ``"key": {...}``, as the store file nests it."""
    body = json.dumps(dict(record), sort_keys=True, indent=1,
                      ensure_ascii=True)
    # JSON escapes newlines inside strings, so each "\n" is a line break
    # of the encoder's; the entry sits two indent levels into the store
    return "  " + json.dumps(key) + ": " + body.replace("\n", "\n  ")


def _render_store(chunks: Mapping[str, str]) -> str:
    """The store file holding the entries ``chunks``, byte for byte
    ``json.dumps(store, sort_keys=True, indent=1, ensure_ascii=True) +
    "\\n"``: the entries in sorted key order inside the fixed envelope.
    """
    tail = f' "schema_version": {RECORD_SCHEMA_VERSION}\n}}\n'
    if not chunks:
        return '{\n "records": {},\n' + tail
    return ('{\n "records": {\n'
            + ",\n".join(chunks[key] for key in sorted(chunks))
            + "\n },\n" + tail)


def _parse_chunks(path: pathlib.Path, data: bytes) -> Dict[str, str]:
    """Render each current record of the store file ``data``.

    Raises :class:`ValueError` naming ``path`` when ``data`` is not a
    record store; stale-schema records are dropped.
    """
    try:
        previous = json.loads(data) if data else {}
    except ValueError as err:
        raise ValueError(f"record store {path} is unreadable ({err}); "
                         f"not merging") from None
    if not (isinstance(previous, dict)
            and isinstance(previous.get("records", {}), dict)):
        raise ValueError(f"record store {path} is not an object with "
                         f"a \"records\" object; not merging")
    return {key: _render_record(key, record)
            for key, record in previous.get("records", {}).items()
            if record_is_current(record)}


def merge_records(path: pathlib.Path,
                  records: Sequence[Mapping[str, Any]]) -> None:
    """Merge ``records`` into the versioned store at ``path``.

    The store maps record key -> record.  Existing records with a stale
    schema version are dropped (detected, not mixed); fresh records
    replace same-key predecessors.  The file is
    ``json.dumps(store, sort_keys=True, indent=1, ensure_ascii=True)``
    plus a trailing newline, so identical record sets produce
    byte-identical files regardless of how the sweep was executed.

    A merge costs O(new records), not O(store): each record is
    rendered to its text once, and the file is those texts joined in
    sorted key order inside the fixed envelope.  The process keeps each
    store path's rendered records between merges and reuses them only
    when the file's bytes, read under the lock, are exactly the ones
    it last wrote there; any other bytes (another process merged, a
    foreign rewrite) are parsed and rendered afresh.  A merge that
    changes no byte writes nothing.

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
    memo_key = os.path.abspath(path)
    with StoreLock(path.with_name(path.name + ".lock")):
        # the lock serializes every merge into this path, threads of
        # this process included, so no one else touches this entry; it
        # is put back only once the file holds what it renders
        chunks = _STORE_CHUNKS.pop(memo_key, None)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as err:
            raise ValueError(f"record store {path} is unreadable ({err}); "
                             f"not merging") from None
        if chunks is None or _render_store(chunks).encode() != data:
            chunks = _parse_chunks(path, data)
        current = True
        for record in records:
            chunks[record["key"]] = _render_record(record["key"], record)
            current = current and record_is_current(record)
        text = _render_store(chunks)
        if text.encode() != data:
            durable_write_text(path, text)
        # a stale record in the batch is written, but the next merge
        # must drop it like any stale record, and only a parse does that
        if current:
            _STORE_CHUNKS[memo_key] = chunks
