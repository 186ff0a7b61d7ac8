"""Instance-based scheme: renaming, full/empty bits, copy accounting."""

from __future__ import annotations

from repro.apps.kernels import fig21_loop, recurrence_loop
from repro.depend.model import Loop, Statement, ref1
from repro.schemes import RunConfig
from repro.schemes.instance_based import InstanceBasedScheme, rename
from repro.sim import Machine, MachineConfig


def test_rename_single_assignment():
    """Every write creates a fresh instance: no location written twice."""
    loop = fig21_loop(n=12)
    instances, _reads, writes = rename(loop)
    writer_instances = [iid for ids in writes.values() for iid in ids]
    assert len(writer_instances) == len(set(writer_instances))
    all_copies = [addr for inst in instances for addr in inst.copies]
    assert len(all_copies) == len(set(all_copies))


def test_rename_versions_increase_per_element():
    """A[i] is written by S4 at i and by S1 at i-3: two versions."""
    loop = fig21_loop(n=12)
    instances, _reads, _writes = rename(loop)
    versions = sorted(inst.version for inst in instances
                      if inst.base_addr == ("A", 6))
    assert versions == [0, 1]  # S1@3 writes v0... then S4@6 writes v1


def test_readers_get_private_copies():
    """An instance read R times carries max(1, R) copies (HEP reads
    consume, so each reader needs its own)."""
    loop = fig21_loop(n=12)
    instances, reads, _writes = rename(loop)
    for instance in instances:
        assert len(instance.copies) == max(1, len(instance.readers))
    # every read binding points at a distinct copy of its instance
    seen = set()
    for bindings in reads.values():
        for binding in bindings:
            key = (binding.instance_id, binding.copy_index)
            assert key not in seen
            seen.add(key)


def test_reads_bound_to_sequentially_correct_version():
    """In A[i] = A[i-1], the read at iteration i binds to the instance
    written at iteration i-1 (version over version-0 initial)."""
    loop = recurrence_loop(n=6)
    instances, reads, writes = rename(loop)
    for i in range(2, 7):
        binding = reads[("S1", i)][0]
        instance = instances[binding.instance_id]
        assert instance.writer == ("S1", i - 1)
    # iteration 1 reads the pre-loop (version 0) instance
    first = instances[reads[("S1", 1)][0].instance_id]
    assert first.writer is None


def test_storage_blowup_reported():
    loop = fig21_loop(n=20)
    scheme = InstanceBasedScheme()
    instrumented = scheme.instrument(loop)
    # instances >> elements: that is the renaming storage cost
    assert instrumented.data_copy_words > 20
    assert instrumented.sync_vars == instrumented.data_copy_words


def test_run_validates(fig21, machine4):
    result = InstanceBasedScheme().run(
        fig21, config=RunConfig(machine=machine4))
    assert result.makespan > 0
    assert result.init_cycles > 0   # version-0 instances materialized


def test_run_without_consume(fig21, machine4):
    consume = InstanceBasedScheme(consume=True).run(
        fig21, config=RunConfig(machine=machine4))
    keep = InstanceBasedScheme(consume=False).run(
        fig21, config=RunConfig(machine=machine4))
    # consuming reads add one bit-write per read
    assert consume.sync_transactions > keep.sync_transactions


def test_writers_do_not_wait():
    """No anti/output waits: a loop with ONLY anti dependences runs with
    zero spin under renaming."""
    body = [
        Statement("S1", reads=(ref1("A", 1, 1),)),
        Statement("S2", writes=(ref1("A", 1, 0),)),
    ]
    loop = Loop("anti-only", bounds=((1, 12),), body=body)
    machine = Machine(MachineConfig(processors=4))
    result = InstanceBasedScheme().run(loop, config=RunConfig(machine=machine))
    assert result.total_spin == 0


def test_nested_loop_supported(nested, machine4):
    result = InstanceBasedScheme().run(
        nested, config=RunConfig(machine=machine4))
    assert result.makespan > 0


def test_branchy_supported(branchy, machine4):
    result = InstanceBasedScheme().run(
        branchy, config=RunConfig(machine=machine4))
    assert result.makespan > 0
