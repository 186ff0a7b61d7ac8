"""Typed, schema-versioned sweep events.

One vocabulary for "what just happened in a sweep", consumed the same
way everywhere: batch callbacks (``run_sweep(options.on_event)``),
in-process service subscriptions (:meth:`repro.lab.service.SweepService
.subscribe`), and the newline-delimited JSON stream the ``serve``
daemon sends to ``watch`` clients.  A batch callback receives only the
four cell events, unstamped (``job=""``, ``seq=0``); ``submitted`` and
``job-done`` exist only in the service, which stamps every event with
its job and sequence number.  The taxonomy:

``submitted``
    a job was accepted and assigned an id (:class:`JobSubmitted`);
``cell-start``
    an attempt at simulating one cell began (:class:`CellStarted`);
``cell-done``
    a cell landed, paid for by this job (:class:`CellDone`, carrying
    the full record -- the event stream is the progress API);
``cell-shared``
    a cell was served without simulating it here: from the warm cache
    (``via="cache"``) or from another job's or process's in-flight
    work (``via="concurrent"``) (:class:`CellShared`);
``cell-failed``
    a cell exhausted its retry budget and was quarantined
    (:class:`CellFailed`);
``job-done``
    the job finished -- completed, degraded, failed, cancelled, or
    interrupted by a drain (:class:`JobDone`).

Events are frozen dataclasses with a byte-stable canonical JSON form
(:meth:`SweepEvent.to_line` / :func:`event_from_json` round-trip to
identical bytes) and carry :data:`EVENT_SCHEMA_VERSION`, so a client
from a different release detects the mismatch instead of mis-parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Type

from .record import canonical_dumps

#: bump when the event layout below changes shape
EVENT_SCHEMA_VERSION = 1

#: kind -> event class, populated by ``__init_subclass__``
_EVENT_KINDS: Dict[str, Type["SweepEvent"]] = {}


class EventDecodeError(ValueError):
    """A JSON object could not be decoded into a known sweep event."""


@dataclass(frozen=True, kw_only=True)
class SweepEvent:
    """Base of every sweep event: job identity plus per-job sequence.

    ``seq`` numbers events within one job (0-based, dense), assigned by
    whoever emits them; a subscriber that sees a gap knows its queue
    overflowed and events were dropped.
    """

    kind: ClassVar[str] = ""

    job: str = ""
    seq: int = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            _EVENT_KINDS[cls.kind] = cls

    def to_json(self) -> Dict[str, Any]:
        """JSON-able form; the inverse of :func:`event_from_json`."""
        data: Dict[str, Any] = {
            "schema_version": EVENT_SCHEMA_VERSION,
            "event": self.kind,
        }
        for field in fields(self):
            value = getattr(self, field.name)
            data[field.name] = dict(value) if isinstance(value, Mapping) \
                else value
        return data

    def to_line(self) -> str:
        """Canonical single-line encoding (byte-stable round trip)."""
        return canonical_dumps(self.to_json())


@dataclass(frozen=True, kw_only=True)
class JobSubmitted(SweepEvent):
    """A job was accepted: its spec name and how many cells it expands to."""

    kind: ClassVar[str] = "submitted"

    spec: str = ""
    cells: int = 0


@dataclass(frozen=True, kw_only=True)
class CellStarted(SweepEvent):
    """One attempt at simulating a cell began (``attempt`` is 1-based)."""

    kind: ClassVar[str] = "cell-start"

    key: str = ""
    attempt: int = 1


@dataclass(frozen=True, kw_only=True)
class CellDone(SweepEvent):
    """A cell landed, simulated and paid for by this job."""

    kind: ClassVar[str] = "cell-done"

    key: str = ""
    outcome: str = "ok"
    #: the full versioned run record (the event stream is the API)
    record: Optional[Dict[str, Any]] = None


@dataclass(frozen=True, kw_only=True)
class CellShared(SweepEvent):
    """A cell was served without simulating it in this job.

    ``via`` taxonomy: ``cache`` (warm content-addressed entry),
    ``concurrent`` (another job or sweep process simulated it while
    this job waited on its claim).
    """

    kind: ClassVar[str] = "cell-shared"

    key: str = ""
    via: str = "cache"
    record: Optional[Dict[str, Any]] = None


@dataclass(frozen=True, kw_only=True)
class CellFailed(SweepEvent):
    """A cell exhausted its retry budget and was quarantined.

    ``reason`` matches :class:`repro.lab.executor.CellFailure`:
    ``worker-crash`` / ``timeout`` / ``error`` / ``bad-result``.
    """

    kind: ClassVar[str] = "cell-failed"

    key: str = ""
    reason: str = ""
    attempts: int = 0
    detail: str = ""


@dataclass(frozen=True, kw_only=True)
class JobDone(SweepEvent):
    """The job finished; the terminal event of every job stream.

    ``status`` taxonomy: ``done`` (every cell accounted for --
    ``failed > 0`` means it completed *degraded*), ``failed`` (the
    sweep itself errored; ``error`` carries the first line),
    ``cancelled`` (client cancel), ``interrupted`` (server drain: the
    job is journaled and resumes on restart).
    """

    kind: ClassVar[str] = "job-done"

    spec: str = ""
    status: str = "done"
    hits: int = 0
    misses: int = 0
    shared: int = 0
    failed: int = 0
    error: str = ""


def event_from_json(data: Mapping[str, Any]) -> SweepEvent:
    """Decode one event object; the inverse of :meth:`SweepEvent.to_json`.

    Raises :class:`EventDecodeError` on a schema-version mismatch or an
    unknown event kind -- a client from a different release must fail
    loudly, not mis-parse.
    """
    if not isinstance(data, Mapping):
        raise EventDecodeError(f"not an event object: {type(data).__name__}")
    version = data.get("schema_version")
    if version != EVENT_SCHEMA_VERSION:
        raise EventDecodeError(
            f"event schema version {version!r} != supported "
            f"{EVENT_SCHEMA_VERSION}")
    kind = data.get("event")
    cls = _EVENT_KINDS.get(kind)
    if cls is None:
        raise EventDecodeError(f"unknown event kind {kind!r}")
    known = {field.name for field in fields(cls)}
    extras = set(data) - known - {"schema_version", "event"}
    if extras:
        raise EventDecodeError(
            f"{kind} event carries unknown field(s) {sorted(extras)}")
    try:
        return cls(**{name: data[name] for name in known if name in data})
    except TypeError as err:
        raise EventDecodeError(f"bad {kind} event: {err}") from None


def event_from_line(line: str) -> SweepEvent:
    """Decode one newline-delimited-JSON event line."""
    import json

    try:
        data = json.loads(line)
    except ValueError as err:
        raise EventDecodeError(f"undecodable event line: {err}") from None
    return event_from_json(data)


__all__ = [
    "EVENT_SCHEMA_VERSION", "CellDone", "CellFailed", "CellShared",
    "CellStarted", "EventDecodeError", "JobDone", "JobSubmitted",
    "SweepEvent", "event_from_json", "event_from_line",
]
