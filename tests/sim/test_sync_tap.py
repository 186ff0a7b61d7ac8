"""The engine's lightweight sync tap: the race sanitizer's one input.

The tap appends ``(kind, where, task)`` at exactly the program points
where the trace recorder allocates ``seq`` numbers, so in a full-metrics
run the enumerated tap reproduces the trace and sync trace merged by
``seq`` index for index -- and in counters mode it exists where the
trace does not, which is what lets the race check scale to fig3.x-sized
runs.  The merge below is the reference the tap is compared against.
"""

from __future__ import annotations

import pytest

from repro.analyze.sanitizer import (_HARNESS_SPACES, check_trace,
                                     event_stream)
from repro.lab.apps import build_app
from repro.schemes.registry import make_scheme
from repro.sim import Machine, MachineConfig


def _run(metrics, sync_tap, n=16):
    loop = build_app("fig2.1", {"n": n})
    instrumented = make_scheme("statement-oriented").instrument(loop)
    machine = Machine(MachineConfig(
        processors=4, metrics=metrics, sync_tap=sync_tap))
    return machine.run(instrumented)


def _merged_trace_stream(result):
    """Harness-filtered ``(seq, kind, where, task)`` events from the
    full trace and the sync trace, sorted by their shared ``seq``."""
    events = [(record.seq, record.kind, record.addr, record.task)
              for record in result.trace
              if record.addr[0] not in _HARNESS_SPACES]
    events += [(seq, kind, var, task)
               for seq, kind, var, _value, task in result.sync_trace]
    events.sort(key=lambda event: event[0])
    return events


def test_tap_off_by_default():
    result = _run(metrics="full", sync_tap=False)
    assert result.tap is None


def test_event_stream_rejects_a_run_without_the_tap():
    result = _run(metrics="full", sync_tap=False)
    with pytest.raises(ValueError, match="sync_tap=True"):
        event_stream(result)
    with pytest.raises(ValueError, match="sync_tap=True"):
        check_trace(result)


def test_counters_mode_tap_feeds_the_sanitizer():
    """No trace, no sync_trace -- yet the stream exists and checks."""
    result = _run(metrics="counters", sync_tap=True)
    assert not result.trace and not result.sync_trace
    assert result.tap, "tap must record in counters mode"
    events = event_stream(result)
    assert events, "harness filtering must not empty a real run"
    assert check_trace(result) == []


def test_tap_reproduces_the_merged_trace_stream():
    """Full-metrics run: enumerate(tap) == merge(trace, sync_trace)."""
    result = _run(metrics="full", sync_tap=True)
    assert result.trace and result.sync_trace and result.tap
    assert event_stream(result) == _merged_trace_stream(result)


def test_tap_streams_agree_across_modes():
    """Counters-mode tap == full-mode tap for the same config."""
    full = _run(metrics="full", sync_tap=True)
    counters = _run(metrics="counters", sync_tap=True)
    assert full.tap == counters.tap


def test_tap_does_not_perturb_results():
    """Same trace, memory, and sync-op counts with and without the tap."""
    plain = _run(metrics="full", sync_tap=False)
    tapped = _run(metrics="full", sync_tap=True)
    assert plain.trace == tapped.trace
    assert plain.final_memory == tapped.final_memory
    assert plain.makespan == tapped.makespan
    assert plain.total_sync_ops == tapped.total_sync_ops
