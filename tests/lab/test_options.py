"""The SweepOptions surface: one frozen value describes a sweep.

``run_sweep`` takes the spec and a single :class:`SweepOptions`; loose
keyword arguments (including the retired ``procs=`` / ``cache_dir=``
spellings) are a :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lab import SweepOptions, SweepSpec, run_sweep


def grid_spec():
    return SweepSpec.build(
        "options-grid",
        apps=[("fig2.1", {"n": n, "cost": 4}) for n in (10, 14)],
        schemes=["process-oriented", "statement-oriented"],
        processors=(2,))


def test_options_are_frozen_and_defaulted():
    options = SweepOptions()
    assert options.procs == 1
    assert not hasattr(options, "single_flight")
    assert not options.resume
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.procs = 4


def test_unknown_kwarg_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match="bogus"):
        run_sweep(grid_spec(), bogus=1)
    with pytest.raises(TypeError, match="procs"):
        run_sweep(grid_spec(), procs=2, cache_dir=tmp_path)

