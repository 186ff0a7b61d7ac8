"""Dynamic race sanitizer: clean placements stay clean across
schedules; hand-built unsynchronized traces and starved placements are
flagged; the vector clocks agree with the order-maintenance reference.

Tests parametrized over ``oracle`` run the same facts through both race
checkers: ``vc`` is the shipped :func:`check_trace`, ``om`` the
independent DePa-style reference in :mod:`.om_reference`.  The
reference must hold the facts too, or the differential tests that
compare against it would prove nothing."""

from __future__ import annotations

import pytest

from repro.analyze import (apply_mutant, check_trace, dynamic_check,
                           enumerate_mutants)
from repro.lab.apps import build_app
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig

from .om_reference import check_result

ORACLES = {"om": check_result, "vc": check_trace}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("schedule", ["self", "cyclic", "block"])
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_shipped_placements_sanitize_clean(scheme_name, schedule, oracle):
    loop = build_app("fig2.1", {"n": 12})
    instrumented = make_scheme(scheme_name).instrument(loop)
    verdict = dynamic_check(instrumented, schedule=schedule)
    assert verdict.verdict == "clean", verdict.races[:2]
    assert not verdict.killed
    assert ORACLES[oracle](verdict.result) == []


def test_clean_across_seedsized_machines():
    """Fewer processors than iterations: tasks queue and interleave."""
    loop = build_app("example2", {"n": 6, "m": 3})
    instrumented = make_scheme("reference-based").instrument(loop)
    for processors in (2, 5):
        verdict = dynamic_check(instrumented, processors=processors)
        assert verdict.verdict == "clean"


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_hand_built_racy_trace_is_flagged(oracle):
    """Two tasks touch one element with no sync edge between them."""

    class FakeResult:
        tap = [("W", ("A", 1), "p0"),
               ("R", ("A", 1), "p1")]

    races = ORACLES[oracle](FakeResult())
    assert len(races) == 1
    assert races[0].addr == ("A", 1)
    assert {races[0].first_task, races[0].second_task} == {"p0", "p1"}
    assert "A" in races[0].describe()


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_release_acquire_chain_suppresses_the_race(oracle):
    """The same access pair, now ordered through a sync variable."""

    class FakeResult:
        tap = [("W", ("A", 1), "p0"),
               ("rel", 7, "p0"),
               ("acq", 7, "p1"),
               ("R", ("A", 1), "p1")]

    assert ORACLES[oracle](FakeResult()) == []


def test_engine_trace_from_real_run_checks_clean():
    loop = build_app("fig2.1", {"n": 10})
    instrumented = make_scheme("statement-oriented").instrument(loop)
    machine = Machine(MachineConfig(processors=4, sync_tap=True))
    result = machine.run(instrumented)
    assert any(kind in ("rel", "acq") for kind, _where, _task
               in result.tap), "engine must record sync events"
    assert check_trace(result) == []


def test_oracles_agree_on_real_runs():
    """Same RunResult, clocks and reference: identical race lists."""
    for scheme_name in scheme_names():
        loop = build_app("example3", {"n": 10})
        instrumented = make_scheme(scheme_name).instrument(loop)
        machine = Machine(MachineConfig(processors=10, sync_tap=True))
        result = machine.run(instrumented)
        assert check_trace(result) == check_result(result)


def test_starved_waiter_surfaces_as_deadlock_verdict():
    """Deleting a load-bearing sync write kills via diagnosis, not hang."""
    loop = build_app("fig2.1", {"n": 10})
    instrumented = make_scheme("reference-based").instrument(loop)
    deletes = [m for m in enumerate_mutants(instrumented)
               if m.kind.startswith("delete")]
    assert deletes
    verdict = dynamic_check(apply_mutant(instrumented, deletes[0]))
    assert verdict.killed
    assert verdict.verdict in ("deadlock", "race", "corruption")
