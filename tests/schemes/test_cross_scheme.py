"""Cross-scheme property tests: sequential equivalence on random loops.

The strongest correctness statement in the repository: for randomly
generated constant-distance DOACROSS loops, *every* synchronization
scheme must produce an execution indistinguishable from sequential
semantics (same values read by every statement instance, same final
array contents), on machines with different processor counts and
schedulers.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.sim import Machine, MachineConfig

from ..random_loops import (constant_distance_loops,
                           nested_constant_distance_loops)

SCHEME_NAMES = scheme_names()


@pytest.mark.parametrize("name", SCHEME_NAMES)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_loops_sequentially_equivalent(name, data):
    loop = data.draw(constant_distance_loops())
    processors = data.draw(st.sampled_from([1, 2, 4]))
    schedule = data.draw(st.sampled_from(["self", "cyclic", "block"]))
    kwargs = {}
    if name == "process-oriented":
        kwargs["n_counters"] = data.draw(st.sampled_from([1, 2, 8]))
        kwargs["style"] = data.draw(st.sampled_from(["basic", "improved"]))
    scheme = make_scheme(name, **kwargs)
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule))
    # scheme.run validates reads, final state and (for non-renaming
    # schemes) per-element dependence commit order
    result = scheme.run(loop, config=RunConfig(machine=machine, validate=True))
    assert result.makespan >= 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_all_schemes_agree_on_final_state(data):
    """The three non-renaming schemes leave byte-identical array state."""
    loop = data.draw(constant_distance_loops())
    machine = Machine(MachineConfig(processors=4))
    finals = []
    for name in ("reference-based", "statement-oriented",
                 "process-oriented"):
        result = make_scheme(name).run(loop, config=RunConfig(machine=machine))
        arrays_only = {addr: value
                       for addr, value in result.final_memory.items()
                       if addr[0] in ("A", "B")}
        finals.append(arrays_only)
    assert finals[0] == finals[1] == finals[2]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_process_oriented_split_fields_equivalent(data):
    """Split two-field PC updates never change the computed result."""
    loop = data.draw(constant_distance_loops())
    machine = Machine(MachineConfig(processors=4))
    for split in (False, True):
        scheme = make_scheme("process-oriented", split_fields=split,
                             n_counters=4)
        scheme.run(loop, config=RunConfig(machine=machine, validate=True))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_loops_under_harsh_timing(data):
    """Stress the visibility rules: slow posted writes + a fast sync
    bus is the regime where a missing fence or an unsound pruning
    decision turns into a stale read.  Every scheme must still be
    sequentially equivalent."""
    from repro.sim import MemoryConfig
    loop = data.draw(constant_distance_loops())
    name = data.draw(st.sampled_from(SCHEME_NAMES))
    machine = Machine(MachineConfig(
        processors=4,
        memory=MemoryConfig(latency=2, write_latency=40)))
    kwargs = {}
    if name == "process-oriented":
        kwargs["fabric_kwargs"] = {"bus_service": 1, "propagation": 0,
                                   "issue_cost": 0}
    make_scheme(name, **kwargs).run(
        loop, config=RunConfig(machine=machine, validate=True))


@pytest.mark.parametrize("name", SCHEME_NAMES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_nested_loops_sequentially_equivalent(name, data):
    """Coalesced 2-deep nests (with boundary skips and possibly
    lex-negative inner components) under every scheme."""
    loop = data.draw(nested_constant_distance_loops())
    machine = Machine(MachineConfig(processors=4))
    make_scheme(name).run(
        loop, config=RunConfig(machine=machine, validate=True))
