"""Scheme base: statement execution and the validate() harness."""

from __future__ import annotations

import pytest

from repro.lab.apps import app_names, build_app
from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.schemes.base import (loop_memo, sequential_reference,
                                statement_instances)
from repro.schemes.process_oriented import ProcessOrientedScheme
from repro.sim import (BroadcastSyncFabric, Engine, Machine,
                       MachineConfig, SharedMemory, ValidationError,
                       mix)


def test_execute_statement_op_sequence(fig21):
    # S2 reads A[i+1]
    ops = list(statement_instances(fig21, 4)["S2"].stream())
    kinds = [type(op).__name__ for op in ops]
    assert kinds == ["Tag", "MemRead", "Compute", "Tag"]
    assert ops[0].tag == ("S2", 4)
    assert ops[1].addr == ("A", 5)
    assert ops[-1].tag is None


def test_execute_statement_writes_mixed_value(fig21):
    # S1 writes A[i+3]
    memory = SharedMemory()
    engine = Engine(memory, BroadcastSyncFabric())
    engine.spawn(statement_instances(fig21, 2)["S1"].stream(), name="p")
    engine.run()
    assert memory.peek(("A", 5)) == mix("S1", 2, [])


def test_validate_accepts_correct_run(fig21, machine4):
    scheme = ProcessOrientedScheme(processors=4)
    instrumented = scheme.instrument(fig21)
    result = machine4.run(instrumented)
    instrumented.validate(result)  # should not raise


@pytest.mark.parametrize("scheme", scheme_names())
@pytest.mark.parametrize("app", app_names())
def test_memoized_sequential_reference_equals_a_fresh_one(app, scheme):
    """Validation checks against the reference memoized on the loop,
    and reading it never changes it: after two validations it still
    equals a fresh sequential run of a fresh loop."""
    loop = build_app(app, {})
    instrumented = make_scheme(scheme).instrument(loop)
    result = Machine(MachineConfig(processors=4)).run(instrumented)
    instrumented.validate(result)
    instrumented.validate(result)
    assert len(loop_memo(loop, "_sequential")) == 1
    initial = instrumented.initial_memory()
    memoized = sequential_reference(loop, initial)
    assert sequential_reference(loop, initial) is memoized
    assert memoized == build_app(app, {}).execute_sequential(initial)


def test_sequential_reference_is_keyed_by_initial_memory(fig21):
    seeded = {("Z", 0): 77}  # carried into the final memory
    empty = sequential_reference(fig21, {})
    assert sequential_reference(fig21, dict(seeded)) != empty
    assert sequential_reference(fig21, dict(seeded)) == \
        fig21.execute_sequential(seeded)
    assert sequential_reference(fig21, {}) is empty


def test_validate_rejects_corrupted_final_state(fig21, machine4):
    scheme = ProcessOrientedScheme(processors=4)
    instrumented = scheme.instrument(fig21)
    result = machine4.run(instrumented)
    first_a = next(addr for addr in result.final_memory
                   if addr[0] == "A")
    result.final_memory[first_a] = -1
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_validate_rejects_corrupted_reads(fig21, machine4):
    scheme = ProcessOrientedScheme(processors=4)
    instrumented = scheme.instrument(fig21)
    result = machine4.run(instrumented)
    read = next(r for r in result.trace if r.kind == "R"
                and r.tag is not None)
    read.value = -12345
    with pytest.raises(ValidationError):
        instrumented.validate(result)


def test_run_helper_requires_trace_for_validation(fig21):
    scheme = ProcessOrientedScheme(processors=4)
    # a counters machine records no trace: validating it raises
    machine = Machine(MachineConfig(processors=4, metrics="counters"))
    with pytest.raises(ValueError, match='metrics="full"'):
        scheme.run(fig21, config=RunConfig(machine=machine, validate=True))
    # but runs fine without validation
    result = scheme.run(
        fig21, config=RunConfig(machine=machine, validate=False))
    assert result.makespan > 0


def test_iterations_are_lpids(nested):
    scheme = ProcessOrientedScheme(processors=4)
    instrumented = scheme.instrument(nested)
    assert list(instrumented.iterations) == list(
        range(1, nested.n_iterations + 1))
