"""The typed event vocabulary: round trips and strict decode."""

from __future__ import annotations

import json

import pytest

from repro.lab import (CellDone, CellFailed, CellShared, CellStarted,
                       EventDecodeError, JobDone, JobSubmitted,
                       event_from_json, event_from_line)
from repro.lab.events import EVENT_SCHEMA_VERSION


ONE_OF_EACH = [
    JobSubmitted(job="job-1", seq=0, spec="grid", cells=4),
    CellStarted(job="job-1", seq=1, key="cell-a", attempt=2),
    CellDone(job="job-1", seq=2, key="cell-a", outcome="ok",
             record={"key": "cell-a", "outcome": "ok"}),
    CellShared(job="job-1", seq=3, key="cell-b", via="concurrent",
               record={"key": "cell-b"}),
    CellFailed(job="job-1", seq=4, key="cell-c", reason="timeout",
               attempts=3, detail="hung"),
    JobDone(job="job-1", seq=5, spec="grid", status="done", hits=1,
            misses=2, shared=1, failed=1),
]


@pytest.mark.parametrize("event", ONE_OF_EACH,
                         ids=lambda e: type(e).__name__)
def test_line_round_trip_is_byte_stable(event):
    line = event.to_line()
    assert "\n" not in line
    decoded = event_from_line(line)
    assert decoded == event
    assert type(decoded) is type(event)
    # canonical encoding: re-encoding reproduces identical bytes
    assert decoded.to_line() == line


def test_events_carry_the_schema_version():
    data = CellDone(key="k").to_json()
    assert data["schema_version"] == EVENT_SCHEMA_VERSION
    assert data["event"] == "cell-done"


def test_schema_version_mismatch_fails_loudly():
    data = CellDone(key="k").to_json()
    data["schema_version"] = EVENT_SCHEMA_VERSION + 1
    with pytest.raises(EventDecodeError, match="schema version"):
        event_from_json(data)


def test_unknown_kind_and_unknown_field_are_rejected():
    with pytest.raises(EventDecodeError, match="unknown event kind"):
        event_from_json({"schema_version": EVENT_SCHEMA_VERSION,
                         "event": "cell-vanished"})
    data = CellDone(key="k").to_json()
    data["surprise"] = 1
    with pytest.raises(EventDecodeError, match="surprise"):
        event_from_json(data)


def test_undecodable_line_is_a_decode_error():
    with pytest.raises(EventDecodeError, match="undecodable"):
        event_from_line("{not json")
    with pytest.raises(EventDecodeError):
        event_from_json(json.loads('["a", "list"]'))



def test_batch_on_event_sees_only_cell_events():
    """A batch ``run_sweep`` hook gets the cell events in order and
    unstamped; ``submitted``/``job-done`` belong to the service."""
    from repro.lab import SweepOptions, SweepSpec, run_sweep

    spec = SweepSpec.build("two-cells", apps=[("fig2.1", {"n": 8})],
                           schemes=["process-oriented",
                                    "statement-oriented"],
                           processors=(2,))
    seen = []
    run_sweep(spec, SweepOptions(procs=1, cache_dir=None,
                                 on_event=seen.append))
    keys = [cell.key for cell in spec.cells()]
    assert [(event.kind, event.key) for event in seen] == [
        ("cell-start", keys[0]), ("cell-done", keys[0]),
        ("cell-start", keys[1]), ("cell-done", keys[1])]
    assert {(event.job, event.seq) for event in seen} == {("", 0)}
