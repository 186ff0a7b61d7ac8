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
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, Iterable, List,
                    Optional, Sequence, Tuple)

from ..depend.graph import DependenceGraph
from ..depend.model import Loop, LoweredStatement
from ..sim.machine import Machine, MachineConfig, Workload
from ..sim.metrics import RunResult
from ..sim.ops import Address, Compute, Fence, MemRead, MemWrite, Tag
from ..sim.validate import (check_dependence_instances, check_final_state,
                            check_reads_match_recovered,
                            check_reads_match_sequential, mix)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one instrumented run, as a single immutable value.

    Collapses the kwarg pile :meth:`SyncScheme.run` had grown
    (``graph``, ``machine``, ``validate``) into one object that can be
    built once and fanned across schemes and loops -- the unit the
    :mod:`repro.lab` sweep engine iterates over.  Frozen so
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


class CompiledStatement:
    """One statement instance's operation stream, compiled once.

    Everything about the instance except its read *values* is known at
    instrument time: the tag, the read addresses, the compute cost and
    the write addresses.  Compiling those into reusable frozen ops (via
    :func:`statement_instances`) keeps operation construction out of the
    simulated run's hot path -- the ops are immutable, so one compiled
    instance serves every execution and replay of the stream.  The tag
    and addresses are the loop's lowered ones (:meth:`Loop.lowered`),
    and the read and compute ops come from the loop's tables of them
    (:func:`shared_ops`).
    """

    __slots__ = ("sid", "lpid", "tag_op", "read_ops", "compute_op",
                 "write_addrs")

    def __init__(self, lowered: LoweredStatement,
                 read_ops: Tuple[MemRead, ...], compute_op: Compute) -> None:
        self.sid, self.lpid = lowered.tag
        self.tag_op = Tag(lowered.tag)
        self.read_ops = read_ops
        self.compute_op = compute_op
        self.write_addrs = lowered.writes

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


def loop_memo(loop: Loop, name: str) -> Dict[Any, Any]:
    """The value memo ``name`` kept on ``loop``, created empty on first use.

    Every instrumentation of one loop shares these memos: compiled
    statements, guard outcomes and immutable sync ops are pure
    functions of their key, so a placement that needs one already built
    for another placement of the same loop reuses it.  The memos live
    and die with the loop.
    """
    memo = loop.__dict__.get(name)
    if memo is None:
        memo = loop.__dict__[name] = {}
    return memo


def shared_ops(loop: Loop, name: str,
               build: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """A lookup of ``build(value)`` in the loop's table ``name``.

    For ops that are a pure function of one value (a read of one
    address, a computation of one cost, an increment of one key): every
    access with that value, in every placement of the loop, yields the
    same op object, built on first use.
    """
    memo = loop_memo(loop, name)

    def op(value: Any) -> Any:
        found = memo.get(value)
        if found is None:
            found = memo[value] = build(value)
        return found

    return op


def loop_pids(loop: Loop) -> Tuple[int, ...]:
    """The loop's process ids in sequential order, computed once per loop."""
    pids = loop.__dict__.get("_pids")
    if pids is None:
        pids = loop.__dict__["_pids"] = tuple(
            row.lpid for row in loop.lowered())
    return pids


def sequential_reference(loop: Loop, initial: Dict[Address, Any]
                         ) -> Tuple[Dict[Address, Any],
                                    Dict[Tuple[str, int], List[Any]]]:
    """``loop.execute_sequential(initial)``, computed once per loop and
    initial memory and memoized on the loop.

    Every validation of a placement of the loop (an optimizer's
    admission replay, the cell's own run) checks against the same
    reference.  Callers only read it.
    """
    memo = loop_memo(loop, "_sequential")
    key = frozenset(initial.items())
    reference = memo.get(key)
    if reference is None:
        reference = memo[key] = loop.execute_sequential(initial)
    return reference


def statement_instances(loop: Loop, lpid: int
                        ) -> Dict[str, Optional[CompiledStatement]]:
    """Iteration ``lpid``'s compiled statement instances by sid, in
    textual order, None where a guard skips the statement.

    Compiled once per loop from its lowered row and memoized on it:
    every placement of the loop, and every run and replay of each,
    share the instances.
    """
    memo = loop_memo(loop, "_statement_instances")
    instances = memo.get(lpid)
    if instances is None:
        read_op = shared_ops(loop, "_read_ops", MemRead)
        compute_op = shared_ops(loop, "_compute_ops", Compute)
        row = loop.lowered()[lpid - 1]
        instances = memo[lpid] = {
            stmt.sid: (None if lowered is None else CompiledStatement(
                lowered, tuple(map(read_op, lowered.reads)),
                compute_op(lowered.cost)))
            for stmt, lowered in zip(loop.body, row.statements)}
    return instances


#: every statement instance ends by clearing its tag; the record is
#: immutable to the engine, so one shared instance serves all of them
_CLEAR_TAG = Tag(None)

#: the one fence every scheme yields before publishing a signal
_FENCE = Fence()

#: workers the memory-resident schemes split their initialization over
INIT_WORKERS = 8


def split_init(items: Sequence[Any],
               emit: Callable[[Any], Iterable]) -> List[Generator]:
    """Initialization prologue split round-robin over the init workers.

    Item ``k`` goes to worker ``k mod INIT_WORKERS`` and each worker
    emits its items' ops in sequence order; there are as many workers as
    items, at most :data:`INIT_WORKERS` and at least one.
    """
    def init(worker: int) -> Generator:
        for item in items[worker::INIT_WORKERS]:
            yield from emit(item)

    return [init(worker)
            for worker in range(min(INIT_WORKERS, max(1, len(items))))]


class InstrumentedLoop(Workload):
    """A loop wrapped in one scheme's synchronization, ready to simulate.

    A :class:`repro.sim.machine.Workload` that adds scheme metadata
    (synchronization-variable counts) plus :meth:`validate`, which checks
    a run against sequential semantics.

    Every scheme's loop shares one skeleton: its settings live on
    ``self.scheme`` (the factory that built it), :meth:`_compile` turns
    one iteration into a precompiled program, and :meth:`_body` walks
    that program -- from the top for a clean run, or past the signals a
    journalled checkpoint names for a crash replay.
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

    def __init__(self, scheme: SyncScheme, loop: Loop,
                 graph: DependenceGraph) -> None:
        self.scheme = scheme
        self.loop = loop
        self.graph = graph
        self.iterations: Sequence[int] = loop_pids(loop)
        #: memory contents present before the loop runs (set by callers
        #: chaining loops into programs; see repro.compiler.program)
        self.seed_memory: Dict[Address, Any] = {}
        self._programs: Dict[int, Any] = {}

    @abstractmethod
    def _compile(self, pid: int) -> Any:
        """Compile iteration ``pid``'s program, walked by :meth:`_body`."""

    @abstractmethod
    def _body(self, pid: int, checkpoint: Optional[dict] = None
              ) -> Generator:
        """Walk ``pid``'s program, resuming after ``checkpoint`` if given."""

    def recompile(self) -> None:
        """Rebuild the precompiled programs from the loop's current state.

        Schemes compile their op streams once at instrument time, and
        clean runs and crash replay both walk them, so mutating scheme
        state afterwards (sabotage tests, ablations that rewrite the
        sync plan or the arcs) has no effect on either until this is
        called.
        """
        self._programs = {pid: self._compile(pid)
                          for pid in self.iterations}

    def make_process(self, iteration: int) -> Generator:
        return self._body(iteration)

    def make_replay_process(self, iteration: int,
                            checkpoint: Optional[dict] = None) -> Generator:
        """Replay an iteration from a journalled checkpoint.

        Called by the recovery layer when a crashed task's unfinished
        iteration is rescheduled onto a survivor.  Without a checkpoint
        the iteration replays from the top; with one, each scheme's
        :meth:`_body` skips the signals already issued so non-idempotent
        ones (key increments, consuming reads, Advances) are never
        re-issued.
        """
        return self._body(iteration, checkpoint)

    def enable_checkpoints(self) -> None:
        """Turn on checkpoint emission for crash recovery (see base attr)."""
        self.checkpoints_enabled = True

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
        divergence.  Requires a run with ``metrics="full"`` (the
        default), which records the access trace.
        """
        expected_final, expected_reads = sequential_reference(
            self.loop, self.initial_memory())
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

            scheme.run(loop, config=RunConfig(machine=m, validate=False))

        Counters mode and the wait bound are machine settings;
        validating a counters run raises :class:`ValueError` (it
        records no trace).
        """
        config = config or RunConfig()
        machine = config.machine or Machine(MachineConfig())
        if config.validate and machine.config.metrics != "full":
            raise ValueError('validation requires metrics="full"')
        instrumented = self.instrument(loop, config.graph)
        result = machine.run(instrumented)
        if config.validate:
            instrumented.validate(result)
        return result
