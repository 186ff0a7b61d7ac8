"""The Livermore-style suite: classifications and end-to-end runs."""

from __future__ import annotations

import pytest

from repro.apps.livermore import (SUITE, adi_sweep, first_difference,
                                  hydro_fragment, prefix_partials,
                                  state_fragment, tridiagonal)
from repro.compiler import compile_loop, doacross_delay
from repro.depend import DOACROSS, DOALL, classify
from repro.schemes import RunConfig, make_scheme
from repro.sim import Machine, MachineConfig


def test_classifications_are_the_textbook_ones():
    assert classify(hydro_fragment()).label == DOALL
    assert classify(state_fragment()).label == DOALL
    assert classify(first_difference()).label == DOALL
    assert classify(tridiagonal()).label == DOACROSS
    assert classify(adi_sweep()).label == DOACROSS
    assert classify(prefix_partials()).label == DOACROSS


def test_tridiagonal_is_a_serial_chain():
    report = doacross_delay(tridiagonal())
    assert report.parallelism_bound == 1.0


def test_prefix_partials_pipelines_stride_wide():
    report = doacross_delay(prefix_partials(stride=4))
    # chains at distance 4: up to 4 iterations in flight
    assert report.parallelism_bound == pytest.approx(4.0)


def test_adi_sweep_parallel_across_columns():
    loop = adi_sweep(n=6, m=8)
    report = doacross_delay(loop)
    # carried only along rows (linear distance M): M columns in flight
    assert report.parallelism_bound >= 8


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_compiles_and_validates(name):
    loop = SUITE[name]() if name != "adi" else adi_sweep(n=5, m=4)
    if name in ("hydro", "state", "first-diff", "tridiag", "prefix"):
        loop = SUITE[name](n=24)
    decision = compile_loop(loop, processors=4)
    assert decision.instrumented is not None
    machine = Machine(MachineConfig(processors=4))
    result = machine.run(decision.instrumented)
    decision.instrumented.validate(result)


@pytest.mark.parametrize("name", ["hydro", "tridiag", "prefix"])
def test_suite_under_every_scheme(name):
    loop = SUITE[name](n=16)
    machine = Machine(MachineConfig(processors=4))
    from repro.schemes import scheme_names
    for scheme_name in scheme_names():
        result = make_scheme(scheme_name).run(
            loop, config=RunConfig(machine=machine))
        assert result.makespan > 0


def test_doalls_scale_and_chains_do_not():
    serial = RunConfig(machine=Machine(MachineConfig(processors=1)))
    wide = RunConfig(machine=Machine(MachineConfig(processors=8)))
    scheme = make_scheme("process-oriented")

    hydro = hydro_fragment(n=64)
    chain = tridiagonal(n=64)
    hydro_speedup = (scheme.run(hydro, config=serial).makespan
                     / scheme.run(hydro, config=wide).makespan)
    chain_speedup = (scheme.run(chain, config=serial).makespan
                     / scheme.run(chain, config=wide).makespan)
    assert hydro_speedup > 3.0
    assert chain_speedup < 1.6
