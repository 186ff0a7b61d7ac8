"""Common contract for data synchronization schemes (section 3's taxonomy).

A :class:`SyncScheme` turns a DOACROSS loop (plus its dependence graph)
into an :class:`InstrumentedLoop`: a workload the simulated machine can
run, where every process is the loop body wrapped in the scheme's
synchronization operations.  The four schemes the paper classifies --
reference-based, instance-based, statement-oriented and the proposed
process-oriented scheme -- all implement this interface, so benches can
swap them under identical loops and machines.

The shared statement-execution helper here defines what a statement
instance *does*: read operands from shared memory, compute for the
statement's cost, and store a deterministic mix of the inputs.  The
validators compare those reads/stores against a sequential execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..depend.graph import DependenceGraph
from ..depend.model import Index, Loop, Statement
from ..sim.machine import Machine, MachineConfig, Workload
from ..sim.metrics import RunResult
from ..sim.ops import (Address, Annotate, Compute, MemRead, MemWrite,
                       WaitUntil)
from ..sim.validate import (check_dependence_instances, check_final_state,
                            check_reads_match_recovered,
                            check_reads_match_sequential, mix)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one instrumented run, as a single immutable value.

    Collapses the kwarg pile :meth:`SyncScheme.run` had grown
    (``graph``, ``machine``, ``validate``, ``wait_bound``) into one
    object that can be built once and fanned across schemes and loops --
    the unit the :mod:`repro.lab` sweep engine iterates over.  Frozen so
    a config can key dictionaries and be shared between runs without
    aliasing surprises.
    """

    #: dependence graph to synchronize against (None: computed from the
    #: loop)
    graph: Optional[DependenceGraph] = None
    #: machine to simulate on (None: a default 8-processor machine)
    machine: Optional[Machine] = None
    #: check the run against sequential semantics afterwards
    validate: bool = True
    #: cap every emitted wait at this many cycles (None: unbounded)
    wait_bound: Optional[int] = None


class CompiledStatement:
    """One statement instance's operation stream, compiled once.

    Everything about the instance except its read *values* is known at
    instrument time: the tag, the read addresses, the compute cost and
    the write addresses.  Compiling those into reusable frozen ops (via
    :func:`compile_statement`) moves address arithmetic and operation
    construction out of the simulated run's hot path -- the ops are
    immutable, so one compiled instance serves every execution and
    replay of the stream.
    """

    __slots__ = ("sid", "lpid", "tag_op", "read_ops", "compute_op",
                 "write_addrs")

    def __init__(self, loop: Loop, stmt: Statement, index: Index,
                 lpid: int) -> None:
        self.sid = stmt.sid
        self.lpid = lpid
        self.tag_op = Annotate("tag", {"tag": (stmt.sid, lpid)})
        self.read_ops = tuple(MemRead(loop.address_of(ref, index))
                              for ref in stmt.reads)
        self.compute_op = Compute(stmt.cost_at(index))
        self.write_addrs = tuple(loop.address_of(ref, index)
                                 for ref in stmt.writes)

    def stream(self) -> Generator:
        """Run the instance: tag, read, compute, write (see module doc).

        The statement- and process-oriented bodies inline this exact
        sequence to avoid the ``yield from`` frame hop; keep them in
        sync when changing it.
        """
        yield self.tag_op
        values: List[Any] = []
        for op in self.read_ops:
            value = yield op
            values.append(value)
        yield self.compute_op
        result = mix(self.sid, self.lpid, values)
        for addr in self.write_addrs:
            yield MemWrite(addr, result)
        yield _CLEAR_TAG


def compile_statement(loop: Loop, stmt: Statement, index: Index,
                      lpid: int) -> CompiledStatement:
    """Compiled op stream for one statement instance, cached on the loop."""
    cache = loop.__dict__.get("_compiled_statements")
    if cache is None:
        cache = loop.__dict__["_compiled_statements"] = {}
    key = (stmt.sid, lpid)
    compiled = cache.get(key)
    if compiled is None:
        compiled = cache[key] = CompiledStatement(loop, stmt, index, lpid)
    return compiled


def precompile_statements(loop: Loop) -> None:
    """Compile every executed statement instance ahead of the run.

    Called by schemes at instrument time so :func:`execute_statement`
    never constructs ops while the machine clock is running.
    """
    for index in loop.iteration_space():
        lpid = loop.lpid(index)
        for stmt in loop.body:
            if stmt.executes_at(index):
                compile_statement(loop, stmt, index, lpid)


def execute_statement(loop: Loop, stmt: Statement, index: Index,
                      lpid: int) -> Generator:
    """Run one statement instance: tag, read, compute, write.

    The tag ``(sid, lpid)`` attributes the instance's memory accesses in
    the trace; it is cleared afterwards so scheme-internal accesses are
    not mis-attributed.
    """
    return compile_statement(loop, stmt, index, lpid).stream()


#: every statement instance ends by clearing its tag; the record is
#: immutable to the engine, so one shared instance serves all of them
_CLEAR_TAG = Annotate("tag", {"tag": None})


def bound_waits(process: Generator, max_spin: int) -> Generator:
    """Give every unbounded wait a spin budget (bounded-wait option).

    Rewrites each ``WaitUntil`` the process yields so the engine raises
    a *diagnosed* DeadlockError once a single wait exceeds ``max_spin``
    cycles, instead of parking (or polling) forever.  Under fault
    injection a lost release then surfaces as a structured hazard in
    bounded time; for correct schemes on clean hardware the budget is
    never hit as long as it exceeds the longest legitimate wait.  Waits
    that already carry their own budget are left alone.
    """
    try:
        op = next(process)
        while True:
            if isinstance(op, WaitUntil) and op.max_spin is None:
                op = replace(op, max_spin=max_spin)
            value = yield op
            op = process.send(value)
    except StopIteration:
        return


class InstrumentedLoop(Workload):
    """A loop wrapped in one scheme's synchronization, ready to simulate.

    A :class:`repro.sim.machine.Workload` that adds scheme metadata
    (synchronization-variable counts) plus :meth:`validate`, which checks
    a run against sequential semantics.
    """

    #: True when the scheme renames storage (instance-based): final-state
    #: and per-element ordering checks do not apply, value checks do.
    renames_storage: bool = False

    #: when True, signal ops carry checkpoint payloads so the recovery
    #: layer can journal per-iteration sync progress at dispatch time.
    #: The one body walker per scheme then yields a copy of each
    #: compiled signal op with its payload attached.  Off by default:
    #: clean runs yield the compiled ops unchanged, keeping the
    #: no-fault event stream byte-identical (zero-overhead pin).
    checkpoints_enabled: bool = False

    def __init__(self, loop: Loop, graph: DependenceGraph) -> None:
        self.loop = loop
        self.graph = graph
        self.iterations: Sequence[int] = [
            loop.lpid(index) for index in loop.iteration_space()]
        #: memory contents present before the loop runs (set by callers
        #: chaining loops into programs; see repro.compiler.program)
        self.seed_memory: Dict[Address, Any] = {}

    def recompile(self) -> None:
        """Rebuild precompiled op streams from the loop's current state.

        Schemes compile their op streams once at instrument time, and
        clean runs and crash replay both walk them, so mutating scheme
        state afterwards (sabotage tests, ablations that rewrite the
        sync plan or the arcs) has no effect on either until this is
        called.  Default: nothing precompiled.
        """

    def enable_checkpoints(self) -> None:
        """Turn on checkpoint emission for crash recovery (see base attr)."""
        self.checkpoints_enabled = True

    def make_replay_process(self, iteration: int,
                            checkpoint: Optional[dict] = None) -> Generator:
        """Replay an iteration from a journalled checkpoint.

        Called by the recovery layer when a crashed task's unfinished
        iteration is rescheduled onto a survivor.  The default replays
        from the top (``checkpoint`` ignored): sound for any scheme
        whose signal ops are idempotent under re-execution, but schemes
        override this to skip already-signalled statements so
        non-idempotent signals (key increments, consuming reads) are
        never re-issued.
        """
        return self.make_process(iteration)

    def bound_waits(self, max_spin: int) -> None:
        """Bound every wait this loop emits (see :func:`bound_waits`)."""
        original = self.make_process
        self.make_process = (  # type: ignore[method-assign]
            lambda iteration: bound_waits(original(iteration), max_spin))
        original_replay = self.make_replay_process
        self.make_replay_process = (  # type: ignore[method-assign]
            lambda iteration, checkpoint=None: bound_waits(
                original_replay(iteration, checkpoint), max_spin))

    def initial_memory(self) -> Dict[Address, Any]:
        """Pre-run contents of shared memory (the seed, by default)."""
        return dict(self.seed_memory)

    def arrays(self) -> List[str]:
        """Names of the program arrays this loop touches."""
        return sorted({ref.array for stmt in self.loop.body
                       for _kind, ref in stmt.refs()})

    def extract_final_state(self, result: RunResult) -> Dict[Address, Any]:
        """Program-visible array contents after the run.

        For storage-preserving schemes this is the final memory filtered
        to the loop's arrays; the instance-based scheme overrides it
        with a copy-out from its renamed storage (the
        allocation/reclamation cost of single-assignment, the paper's
        [16]).
        """
        names = set(self.arrays())
        return {addr: value for addr, value in result.final_memory.items()
                if addr[0] in names}

    # -- validation ---------------------------------------------------------

    def validate(self, result: RunResult) -> None:
        """Check a finished run against the sequential semantics.

        Raises :class:`repro.sim.validate.ValidationError` on any
        divergence.  Requires the run to have been executed with
        ``record_trace=True``.
        """
        expected_final, expected_reads = self.loop.execute_sequential(
            self.initial_memory())
        if result.extra.get("recovery", {}).get("reincarnations"):
            # Crash replay legitimately duplicates tagged accesses; the
            # relaxed check still pins every read to sequential values.
            check_reads_match_recovered(result.trace, expected_reads)
        else:
            check_reads_match_sequential(result.trace, expected_reads)
        if not self.renames_storage:
            check_final_state(result.final_memory, expected_final,
                              self.arrays())
            check_dependence_instances(result.trace,
                                       self.graph.dependence_instances())


class SyncScheme(ABC):
    """Factory that instruments loops with one synchronization style."""

    #: registry name, e.g. "process-oriented"
    name: str = ""
    #: can a synchronization variable be indexed by a run-time value?
    #: (False for Alliant Advance/Await: "The index to a synchronization
    #: register accessed by Alliant's Advance and Await must be a
    #: constant.")
    supports_variable_index: bool = True

    @abstractmethod
    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None) -> InstrumentedLoop:
        """Wrap ``loop`` in this scheme's synchronization operations."""

    def run(self, loop: Loop,
            config: Optional[RunConfig] = None) -> RunResult:
        """Convenience: instrument, simulate, optionally validate.

        The run is described by a single :class:`RunConfig`::

            scheme.run(loop, config=RunConfig(machine=m, wait_bound=500))

        Counters mode is a machine setting; validating a counters run
        raises :class:`ValueError` (it records no trace).
        """
        config = config or RunConfig()
        machine = config.machine or Machine(MachineConfig())
        instrumented = self.instrument(loop, config.graph)
        if config.wait_bound is not None:
            instrumented.bound_waits(config.wait_bound)
        result = machine.run(instrumented)
        if config.validate:
            if not machine.config.record_trace:
                raise ValueError("validation requires record_trace=True")
            instrumented.validate(result)
        return result
