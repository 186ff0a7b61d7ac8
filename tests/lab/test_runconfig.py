"""The RunConfig API: one immutable value describes an instrumented run."""

from __future__ import annotations

import pytest

from repro.apps.kernels import fig21_loop
from repro.schemes import RunConfig, make_scheme
from repro.sim import Machine, MachineConfig


def _fingerprint(result):
    return (result.summary(),
            [(r.commit, r.kind, r.addr, r.value) for r in result.trace])


def test_default_config_matches_no_args():
    loop = fig21_loop(n=12)
    explicit = make_scheme("process-oriented").run(loop,
                                                   config=RunConfig())
    implicit = make_scheme("process-oriented").run(loop)
    assert _fingerprint(explicit) == _fingerprint(implicit)


def test_unknown_kwargs_rejected():
    """Loose kwargs are not accepted -- including the retired
    pre-RunConfig spellings such as ``machine=``."""
    loop = fig21_loop(n=8)
    for kwargs in ({"machinery": "x"},
                   {"machine": Machine(MachineConfig(processors=4))}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_scheme("process-oriented").run(loop, **kwargs)


def test_config_is_frozen_and_hashable():
    config = RunConfig(validate=False, wait_bound=99)
    with pytest.raises(Exception):
        config.validate = True  # type: ignore[misc]
    assert config == RunConfig(validate=False, wait_bound=99)
    assert len({config, RunConfig(validate=False, wait_bound=99)}) == 1
