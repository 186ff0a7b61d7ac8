"""The simulated multiprocessor: processors + memory + sync fabric.

:class:`Machine` glues the pieces together: it builds an engine over a
fresh :class:`~repro.sim.memory.SharedMemory` and the workload's choice of
synchronization fabric, runs the workload's prologue (e.g. key
initialization for data-oriented schemes), then runs one coroutine per
processor which repeatedly grabs a loop iteration from the scheduler and
executes it.  The result is a :class:`~repro.sim.metrics.RunResult`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..recovery import RecoveryManager, RecoveryPolicy
from .engine import Engine, HazardError
from .memory import MemoryConfig, SharedMemory
from .metrics import EXTRA_SCHEMA_VERSION, RunResult
from .ops import Address, MemRead
from .scheduler import (ChunkSelfScheduler, GuidedSelfScheduler,
                        Scheduler, SelfScheduler, StaticScheduler)
from .sync_bus import SyncFabric

#: shared self-scheduling counter lives at this address (one hot word)
SCHED_COUNTER: Address = ("__sched__", 0)

#: the iteration-scheduling policies, in ``--schedule`` choice order
SCHEDULES = ("self", "chunk", "guided", "cyclic", "block")


class Workload(ABC):
    """What a synchronization scheme hands to the machine.

    ``iterations`` is the ordered list of process ids; ``make_process``
    turns a process id into an operation generator.  ``prologue``
    generators run to completion (in parallel) before the loop starts and
    model per-run setup such as initializing data-oriented keys; by
    default there is none, and shared memory starts empty.  The machine
    only calls these methods, so any object providing them runs too.
    """

    iterations: Sequence[int]

    @abstractmethod
    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        """Create the fabric this workload's variables live on."""

    @abstractmethod
    def make_process(self, iteration: int) -> Generator:
        """The op generator for process ``iteration``."""

    def prologue(self) -> List[Generator]:
        """Setup processes run before the loop; default: none."""
        return []

    def initial_memory(self) -> Dict[Address, Any]:
        """Pre-run contents of shared memory; default: empty."""
        return {}

    @property
    @abstractmethod
    def sync_vars(self) -> int:
        """How many synchronization variables the workload uses."""


@dataclass
class MachineConfig:
    """Size and timing of the simulated multiprocessor.

    The defaults sketch a small bus-based shared-memory machine of the
    Alliant FX/8 class (the paper's stated target: "small scale
    multiprocessor systems such as the Cray X-MP, the Alliant FX/8, the
    Encore Multimax").
    """

    processors: int = 8
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: one of :data:`SCHEDULES`
    schedule: str = "self"
    #: chunk size for schedule="chunk" (Tang & Yew chunked
    #: self-scheduling)
    chunk_size: int = 4
    max_cycles: int = 50_000_000
    #: seeded fault plan to inject (None or an empty plan: clean run,
    #: no injector is built and the event sequence is byte-identical)
    fault_plan: Optional[FaultPlan] = None
    #: recovery policy: when set *and* a non-empty fault plan is active,
    #: a RecoveryManager converts recoverable hazards into completed
    #: runs (retransmission, reincarnation, degraded fallback).  With no
    #: injector the layer is never constructed, so configuring recovery
    #: on a clean run changes nothing (zero-overhead pin).
    recovery: Optional[RecoveryPolicy] = None
    #: max consecutive engine events without process progress before a
    #: diagnosed DeadlockError (catches poll-mode livelocks early);
    #: None disables the stagnation watchdog
    stagnation_limit: Optional[int] = None
    #: max cycles any single wait may spin, parked or polling, before a
    #: diagnosed DeadlockError (a lost release surfaces as a hazard in
    #: bounded time); None leaves waits unbounded
    wait_bound: Optional[int] = None
    #: what a run records.  "full" (default): the access trace, sync
    #: trace, activity segments and Annotate events, as validation and
    #: timelines need.  "counters": opt-in fast path -- only end-of-run
    #: counters, with per-event collection skipped entirely.
    metrics: str = "full"
    #: record the lightweight sanitizer stream (``RunResult.tap``):
    #: (kind, where, task) tuples in issue order, three words per event
    #: instead of a full AccessRecord -- works in any metrics mode, and
    #: is how counters-mode runs stay race-checkable
    sync_tap: bool = False

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("need at least one processor")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1 (or None)")
        if self.wait_bound is not None and self.wait_bound < 1:
            raise ValueError("wait_bound must be >= 1 (or None)")
        if self.metrics not in ("full", "counters"):
            raise ValueError(f"unknown metrics mode {self.metrics!r}")


class Machine:
    """A P-processor shared-memory multiprocessor simulator."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        #: side-channel diagnostics from the most recent :meth:`run`
        #: (e.g. ``events_processed``); not part of the RunResult, so
        #: result files and their schema are unaffected
        self.last_run_info: Dict[str, Any] = {}

    def _make_scheduler(self, iterations: Sequence[int]) -> Scheduler:
        if self.config.schedule == "self":
            return SelfScheduler(iterations)
        if self.config.schedule == "chunk":
            return ChunkSelfScheduler(iterations,
                                      chunk=self.config.chunk_size)
        if self.config.schedule == "guided":
            return GuidedSelfScheduler(iterations,
                                       self.config.processors)
        return StaticScheduler(iterations, self.config.processors,
                               policy=self.config.schedule)

    def _processor(self, pid: int, scheduler: Scheduler,
                   workload: Workload, recovery=None) -> Generator:
        name = f"cpu{pid}"
        while True:
            if scheduler.needs_shared_grab(pid):
                # fetch&add on the shared iteration counter
                yield MemRead(SCHED_COUNTER)
            iteration = scheduler.next_for(pid)
            if iteration is None:
                return
            if recovery is not None:
                # In-flight tracking: a crash mid-iteration turns into a
                # replay job from the journalled checkpoint.
                recovery.iteration_started(name, iteration)
            yield from workload.make_process(iteration)
            if recovery is not None:
                recovery.iteration_finished(name)

    def run(self, workload: Workload) -> RunResult:
        """Simulate ``workload`` to completion and return its metrics."""
        memory = SharedMemory(self.config.memory)
        memory.preload(workload.initial_memory())
        fabric = workload.build_fabric(memory)
        injector = None
        plan = self.config.fault_plan
        if plan is not None and not plan.is_empty:
            injector = FaultInjector(plan)
        engine = Engine(memory, fabric,
                        max_cycles=self.config.max_cycles,
                        record=(self.config.metrics == "full"),
                        injector=injector,
                        stagnation_limit=self.config.stagnation_limit,
                        sync_tap=self.config.sync_tap,
                        wait_bound=self.config.wait_bound)
        recovery = None
        if injector is not None and self.config.recovery is not None:
            recovery = RecoveryManager(self.config.recovery, plan)
            recovery.attach(engine, workload)
            recovery._grab_op = MemRead(SCHED_COUNTER)
            enable = getattr(workload, "enable_checkpoints", None)
            if enable is not None:
                enable()

        # Prologue: run setup processes (e.g. key initialization) spread
        # over the machine's processors before the loop begins.
        prologue = workload.prologue()
        if prologue:
            for index, gen in enumerate(prologue):
                engine.spawn(gen, name=f"init{index}")
                if recovery is not None:
                    recovery.register_worker(f"init{index}", index,
                                             f"init{index}")
            engine.run()
        init_cycles = engine.now

        scheduler = self._make_scheduler(workload.iterations)
        if recovery is not None:
            recovery.set_scheduler(scheduler)
        stats = [
            engine.spawn(self._processor(pid, scheduler, workload,
                                         recovery),
                         name=f"cpu{pid}")
            for pid in range(self.config.processors)
        ]
        if recovery is not None:
            for pid in range(self.config.processors):
                recovery.register_worker(f"cpu{pid}", pid, f"cpu{pid}")
        try:
            makespan = engine.run()
        except HazardError as err:
            # Enrich the diagnosis with scheduler state: how much loop
            # work was never even handed out when the run died.
            if err.report is not None:
                err.report.unclaimed_iterations = scheduler.remaining()
            raise

        covered = getattr(fabric, "covered_writes", 0)
        self.last_run_info = {"events_processed": engine.events_processed}
        extra: Dict[str, Any] = {"schema_version": EXTRA_SCHEMA_VERSION,
                                 "events": engine.events,
                                 "activity": engine.activity}
        if injector is not None:
            extra["faults"] = dict(injector.counters)
        if recovery is not None:
            extra["recovery"] = dict(recovery.counters)
        return RunResult(
            makespan=makespan,
            processors=stats,
            memory_transactions=memory.transactions,
            memory_hotspot=memory.max_module_traffic(),
            sync_transactions=fabric.transactions,
            covered_writes=covered,
            sync_vars=workload.sync_vars,
            sync_storage_words=fabric.storage_words,
            init_cycles=init_cycles,
            trace=engine.trace,
            sync_trace=engine.sync_trace,
            final_memory=memory.snapshot(),
            extra=extra,
            tap=engine.tap,
        )
