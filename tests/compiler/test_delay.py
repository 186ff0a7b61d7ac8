"""Doacross-delay analysis and its agreement with the simulator."""

from __future__ import annotations

import math

from repro.compiler.delay import (doacross_delay, statement_offsets,
                                  worth_doacross)
from repro.depend.model import Loop, Statement, ref1
from repro.schemes import ProcessOrientedScheme, RunConfig
from repro.sim import Machine, MachineConfig


def test_statement_offsets_prefix_sums(fig21):
    offsets = statement_offsets(fig21)
    assert offsets["S1"] == (0, 10)
    assert offsets["S3"] == (20, 30)
    assert offsets["S5"] == (40, 50)


def test_doall_has_zero_delay(doall):
    report = doacross_delay(doall)
    assert report.delay == 0
    assert report.critical_arc is None
    assert report.parallelism_bound == math.inf


def test_recurrence_fully_serial(recurrence):
    """A[i] = A[i-1], one statement: delay = iteration time, parallelism
    bound 1 -- the loop is not worth running concurrently."""
    report = doacross_delay(recurrence)
    assert report.delay == report.iteration_time == 10
    assert report.parallelism_bound == 1.0
    assert not worth_doacross(recurrence, processors=8)


def test_fig21_delay_zero_by_spacing(fig21):
    """In Fig 2.1 every sink starts at or after its source's offset
    (e.g. S3 starts at 20, S1 ends at 10, distance 1): consecutive
    iterations can start together."""
    report = doacross_delay(fig21)
    assert report.delay == 0


def test_delay_formula_simple_chain():
    """S1 (cost 30) -> S2 (cost 10) at distance 1, S2 placed first:
    delay = (t_end(S1) - t_start(S2)) / 1 = 40 - 0 = 40... with S2
    textually after S1 it is (40 - 30)/1 = 10."""
    body = [
        Statement("S1", writes=(ref1("A", 1, 1),), cost=30),
        Statement("S2", reads=(ref1("A", 1, 0),), cost=10),
    ]
    loop = Loop("chain", bounds=((1, 10),), body=body)
    report = doacross_delay(loop)
    assert report.delay == (30 - 30) / 1  # S2 starts exactly at S1's end
    body_reversed = [
        Statement("S2", reads=(ref1("A", 1, 0),), cost=10),
        Statement("S1", writes=(ref1("A", 1, 1),), cost=30),
    ]
    loop2 = Loop("chain2", bounds=((1, 10),), body=body_reversed)
    report2 = doacross_delay(loop2)
    # sink starts at 0, source ends at 40 -> delay 40
    assert report2.delay == 40
    assert "S1->S2" in report2.critical_arc


def test_predicted_makespan_bounds():
    body = [Statement("S", writes=(ref1("A", 1, 0),),
                      reads=(ref1("A", 1, -1),), cost=10)]
    loop = Loop("r", bounds=((1, 20),), body=body)
    report = doacross_delay(loop)
    # fully serial chain: pipeline bound dominates
    assert report.predicted_makespan(20, 8) == 19 * 10 + 10
    assert report.predicted_speedup(20, 8) == 1.0


def test_prediction_is_a_lower_bound_for_simulation(fig21):
    """The analytic model ignores memory and sync overheads, so the
    simulator can only be slower -- but within a small constant factor
    for a compute-dominated loop."""
    report = doacross_delay(fig21)
    machine = Machine(MachineConfig(processors=8))
    result = ProcessOrientedScheme().run(
        fig21, config=RunConfig(machine=machine))
    predicted = report.predicted_makespan(fig21.n_iterations, 8)
    assert result.makespan >= predicted
    assert result.makespan <= 4 * predicted


def test_worth_doacross_positive(fig21):
    assert worth_doacross(fig21, processors=8)
