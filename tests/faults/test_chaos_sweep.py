"""The chaos sweep's fan-out: names checked up front, identical at any
worker count, and a raising cell fails the sweep loudly."""

from __future__ import annotations

import pytest

from repro.faults import chaos as chaos_module
from repro.faults.chaos import run_chaos_sweep

GRID = dict(schemes=["process-oriented", "statement-oriented"],
            plans=["jitter", "lossy-bus", "crash-task"], seeds=range(2),
            n=8, processors=2, recover=True)


def test_parallel_sweep_matches_serial():
    serial = run_chaos_sweep(procs=1, **GRID)
    parallel = run_chaos_sweep(procs=2, **GRID)
    assert len(serial) == 2 * 3 * 2
    assert parallel == serial
    # grid order: scheme-major, then plan, then seed
    assert [(o.scheme, o.plan, o.seed) for o in serial][:3] == [
        ("process-oriented", "jitter", 0),
        ("process-oriented", "jitter", 1),
        ("process-oriented", "lossy-bus", 0)]


@pytest.mark.parametrize("field, name, message", [
    ("schemes", "nope", "unknown scheme 'nope'"),
    ("plans", "bogus", "unknown fault plan 'bogus'"),
])
def test_unknown_names_rejected_before_fan_out(monkeypatch, field, name,
                                               message):
    def never(_item):
        raise AssertionError("a cell ran despite an unknown name")

    monkeypatch.setattr(chaos_module, "_sweep_case", never)
    kwargs = {"schemes": ["process-oriented"], "plans": ["jitter"],
              field: [name]}
    with pytest.raises(ValueError, match=message):
        run_chaos_sweep(seeds=range(1), **kwargs)


def test_raising_cell_fails_the_sweep():
    # an unknown keyword reaches run_chaos_case in every cell
    with pytest.raises(RuntimeError, match="2 cell\\(s\\) raised"):
        run_chaos_sweep(schemes=["process-oriented"],
                        plans=["jitter", "lossy-bus"], seeds=range(1),
                        bogus_knob=1)
