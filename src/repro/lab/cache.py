"""Content-addressed on-disk result cache for sweep cells.

The cache key of a cell is a SHA-256 over

* the *source fingerprint* of the ``repro`` package -- a digest of
  every ``.py`` file's path and bytes, so **any** code change (a cost
  model tweak, an engine fix) invalidates every cached result at once;
* the cell's canonical-JSON config;
* the record and ``RunResult.extra`` schema versions.

A warm cache therefore returns instantly and is always either exactly
what a fresh simulation would produce, or a miss.  Entries are single
JSON files named by their key, each a checksummed envelope (see
:mod:`repro.lab.store`): writes go through a uniquely-named temp file,
fsync, and atomic rename, so a killed sweep never leaves a torn entry
behind and "stored" means durable; loads verify the payload SHA-256
and *quarantine* damaged entries instead of serving them.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, Mapping, Optional, Tuple

from ..sim.metrics import EXTRA_SCHEMA_VERSION
from .record import RECORD_SCHEMA_VERSION, canonical_dumps, record_is_current
from .store import (EnvelopeError, JOURNAL_DIR, durable_append_line,
                    durable_write_text, open_envelope, quarantine_file,
                    seal_record)

#: default cache location, relative to the invoking directory
DEFAULT_CACHE_DIR = pathlib.Path(".repro-cache")

_FINGERPRINT: Optional[str] = None


def source_fingerprint(root: Optional[pathlib.Path] = None,
                       refresh: bool = False) -> str:
    """Digest of the ``repro`` source tree (or ``root``), hex-encoded.

    Hashes relative paths and file bytes of every ``*.py`` under the
    package in sorted order; memoized per process since the tree cannot
    change under a running sweep.
    """
    global _FINGERPRINT
    if root is None and _FINGERPRINT is not None and not refresh:
        return _FINGERPRINT
    if root is None:
        package_root = pathlib.Path(__file__).resolve().parent.parent
    else:
        package_root = pathlib.Path(root)
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    if root is None:
        _FINGERPRINT = value
    return value


class ResultCache:
    """Content-addressed store of run records under one directory."""

    def __init__(self, root: pathlib.Path,
                 fingerprint: Optional[str] = None) -> None:
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or source_fingerprint()
        self.hits = 0
        self.misses = 0
        #: corrupt entries moved to ``<root>/quarantine/`` by lookups
        self.quarantined = 0

    def key_for(self, config: Mapping[str, Any]) -> str:
        """The cell's content address (hex SHA-256)."""
        material = canonical_dumps({
            "fingerprint": self.fingerprint,
            "config": dict(config),
            "record_schema": RECORD_SCHEMA_VERSION,
            "extra_schema": EXTRA_SCHEMA_VERSION,
        })
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def _lookup(self, key: str) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Read + verify the entry for ``key``: the one parse path.

        Returns ``(status, record)`` with status in ``miss`` (no file),
        ``corrupt`` (undecodable, non-envelope, or checksum-mismatched
        -- the file is quarantined as a side effect), ``stale``
        (produced by older schemas: detected and invalidated, never
        silently mixed into a fresh sweep), or ``ok``.  Both
        :meth:`load` and :meth:`contains` go through here, so integrity
        verification lives in exactly one place.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return "miss", None
        try:
            record = open_envelope(raw.decode("utf-8"))
        except (EnvelopeError, UnicodeDecodeError):
            # damaged bytes must neither be served as truth nor linger
            # as a silent re-miss every sweep: move them aside
            if quarantine_file(self.root, path) is not None:
                self.quarantined += 1
            return "corrupt", None
        if not record_is_current(record):
            return "stale", None
        return "ok", record

    def load(self, key: str, *,
             count: bool = True) -> Optional[Dict[str, Any]]:
        """The verified record for ``key``, or None on any non-hit.

        ``count=False`` skips the hit/miss counters -- for single-flight
        re-checks and waits, which poll the same cell many times but
        must charge it to the stats at most once.
        """
        status, record = self._lookup(key)
        if status == "ok":
            if count:
                self.hits += 1
            return record
        if count:
            self.misses += 1
        return None

    def store(self, key: str, record: Mapping[str, Any]) -> None:
        """Persist ``record`` durably under ``key``.

        The entry is a checksummed envelope written via unique tmp file
        + fsync + atomic rename: concurrent writers (threads or
        processes) cannot collide on the tmp name, and once this
        returns the record survives a crash.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        durable_write_text(self._path(key), seal_record(record))

    def contains(self, key: str) -> bool:
        """True when a current, checksum-verified entry exists.

        Does not touch the hit/miss counters: this is a peek, used by
        resume accounting, not a load.
        """
        return self._lookup(key)[0] == "ok"


class SweepJournal:
    """Append-only JSONL trail of one sweep's landed and failed cells.

    The content-addressed cache is the durable *store* (resume
    correctness comes from per-cell cache lookups); the journal is the
    durable *trail*: one line per landed record or quarantined cell,
    flushed as it happens, so an interrupted or degraded sweep leaves
    an inspectable account of exactly what it paid for.  Journals live
    under ``<cache root>/journal/``, named by a digest of the grid's
    cache keys so re-running the same grid continues the same file; a
    fully-successful sweep clears its journal on the way out.

    Lines land in completion order, which under a parallel sweep is
    not deterministic -- the journal is operational evidence, never an
    input to the byte-identical merged store.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    @classmethod
    def for_keys(cls, root: pathlib.Path,
                 cache_keys: "list[str]") -> "SweepJournal":
        """The journal for the grid whose cell cache keys are given."""
        digest = hashlib.sha256(
            "\n".join(sorted(cache_keys)).encode()).hexdigest()[:20]
        return cls(pathlib.Path(root) / JOURNAL_DIR / f"{digest}.jsonl")

    def entries(self) -> "list[Dict[str, Any]]":
        """Every decodable journal line (a torn last line is skipped).

        A sweep killed mid-append leaves at most one partial line;
        tolerating it is what makes the journal safe to read right
        after a SIGKILL.
        """
        try:
            # replace, not raise: a mangled byte loses one line's
            # decode, never the whole trail
            text = self.path.read_bytes().decode("utf-8", "replace")
        except OSError:
            return []
        out = []
        for line in text.splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict):
                out.append(entry)
        return out

    def append(self, entry: Mapping[str, Any]) -> None:
        """Flush + fsync one cell-event line to the trail.

        A reader arriving right after the writer was SIGKILLed sees the
        line already: once appended it sits in the page cache.  The
        fsync is what lets it mean "this work is durably accounted
        for" across a power loss or an OS crash.  O_APPEND keeps
        concurrent writers' lines whole.
        """
        durable_append_line(self.path, canonical_dumps(dict(entry)))

    def clear(self) -> None:
        """Remove the trail (a finished sweep owes no explanation)."""
        try:
            self.path.unlink()
        except OSError:
            pass
