"""E15 -- the compile pipeline: analysis-driven scheme selection.

Checks that the static analysis makes the right calls end to end:

* the delay model's predicted makespan is a valid lower bound, and
  tight (within 4x) for compute-dominated loops;
* the scheme the pipeline chooses for "time" is also the (or within 5%
  of the) simulated-fastest candidate;
* a fully serial recurrence is flagged as not worth a DOACROSS.
"""

from __future__ import annotations

from repro.apps.kernels import (doall_loop, example2_loop, fig21_loop,
                                recurrence_loop)
from repro.compiler import compile_loop, doacross_delay, worth_doacross
from repro.report import print_table
from repro.schemes import RunConfig, make_scheme
from repro.sim import Machine, MachineConfig

P = 8


def run_compiler_study():
    machine = Machine(MachineConfig(processors=P))
    loops = {
        "fig2.1": fig21_loop(n=80),
        "example2": example2_loop(n=10, m=6),
        "doall": doall_loop(n=80),
    }
    study = {}
    for label, loop in loops.items():
        decision = compile_loop(loop, processors=P, objective="time")
        simulated = {}
        for name in decision.estimates:
            result = make_scheme(name).run(
                loop, config=RunConfig(machine=machine, validate=False))
            simulated[name] = result.makespan
        chosen_run = machine.run(decision.instrumented)
        decision.instrumented.validate(chosen_run)
        study[label] = (loop, decision, simulated, chosen_run)
    return study


def test_compiler_pipeline(once):
    study = once(run_compiler_study)

    rows = []
    for label, (loop, decision, simulated, chosen_run) in study.items():
        fastest = min(simulated.values())
        chosen_time = simulated[decision.chosen_scheme]
        # the chosen scheme is simulated-fastest, or within 5%
        assert chosen_time <= 1.05 * fastest, (label, simulated)

        predicted = decision.delay.predicted_makespan(loop.n_iterations, P)
        measured = chosen_run.makespan - chosen_run.init_cycles
        assert measured >= predicted * 0.95, (label, measured, predicted)
        assert measured <= 4 * predicted, (label, measured, predicted)

        rows.append([label, decision.chosen_scheme, round(predicted),
                     measured, round(measured / predicted, 2)])

    # the serial recurrence: analysis says "don't bother"
    recurrence = recurrence_loop(n=60)
    assert not worth_doacross(recurrence, processors=P)
    report = doacross_delay(recurrence)
    assert report.parallelism_bound == 1.0

    print_table(
        ["loop", "chosen scheme", "predicted cycles", "measured (net)",
         "ratio"],
        rows,
        title="Compile pipeline: analytic prediction vs simulation, "
              f"P={P} (recurrence flagged serial: parallelism bound 1.0)")
