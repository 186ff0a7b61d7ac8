"""Dynamic race sanitizer -- the verifier's oracle.

Runs an instrumented loop on the simulated machine and replays the
recorded event stream through a happens-before race analysis.  The
stream is ``(seq, kind, where, task)`` tuples: data accesses (``"R"`` /
``"W"`` at an address) merged with synchronization events (``"rel"`` /
``"acq"`` / ``"upd"`` on a sync variable) by their shared issue-order
``seq`` numbers.  It comes from either

* the lightweight **sync tap** (``RunResult.tap``, recorded by the
  engine in any metrics mode, including ``"counters"`` where the full
  trace is off) -- the tap appends at exactly the points the trace
  recorder allocates ``seq`` numbers, so list index *is* issue order; or
* the full ``RunResult.trace`` + ``RunResult.sync_trace`` pair, merged
  and sorted by ``seq`` (the pre-tap path, kept for recorded runs).

The engine is a single-threaded discrete-event simulator that commits a
synchronization write before resuming any waiter it satisfies, so issue
order is consistent with program order and with every
release-before-acquire edge -- replaying in ``seq`` order is sound.

The oracle is FastTrack-style vector clocks.  ``rel`` joins the
releaser's clock into the variable's clock then advances the releaser;
``acq`` joins the variable's clock into the acquirer (with a
per-(task, variable) revision cache so re-acquiring an unchanged
variable does not re-walk its whole clock); ``upd`` does both.  A data
write must be ordered after the location's last write *and* every read
since it; a read after the last write.  The clocks out-ran a
DePa-style order-maintenance checker on every measured workload
(``docs/analysis.md``); that checker lives in the test suite as the
independent differential reference.

Verdicts fold in the machine's own failure modes so one call answers
"did this schedule kill the mutant": a diagnosed deadlock or hazard is
``"deadlock"``, a validation mismatch against the sequential semantics
is ``"corruption"``, an unordered conflicting pair is ``"race"``,
otherwise ``"clean"``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import HazardError
from ..sim.machine import Machine, MachineConfig
from ..sim.metrics import RunResult
from ..sim.validate import ValidationError
from ..schemes.base import InstrumentedLoop

__all__ = ["RaceEvent", "DynamicVerdict", "event_stream", "check_trace",
           "dynamic_check"]

#: addresses owned by the harness, not the program under test
_HARNESS_SPACES = ("__sched__",)

#: generous watchdog: poll-mode fabrics never report an empty event
#: queue, so stagnation is how their deadlocks are diagnosed
_STAGNATION_LIMIT = 100_000

#: kinds naming a sync variable rather than a data address
_SYNC_KINDS = ("rel", "acq", "upd")


@dataclass(frozen=True)
class RaceEvent:
    """One unordered conflicting access pair found in a trace."""

    addr: Tuple[str, int]
    first_task: str
    first_kind: str
    first_seq: int
    second_task: str
    second_kind: str
    second_seq: int

    def describe(self) -> str:
        return (f"{self.first_kind} by {self.first_task} (seq "
                f"{self.first_seq}) unordered with {self.second_kind} "
                f"by {self.second_task} (seq {self.second_seq}) on "
                f"{self.addr}")


@dataclass
class DynamicVerdict:
    """Outcome of one sanitized execution."""

    verdict: str                      # clean | race | deadlock | corruption
    races: List[RaceEvent] = field(default_factory=list)
    detail: str = ""
    result: Optional[RunResult] = None

    @property
    def killed(self) -> bool:
        return self.verdict != "clean"


class _Clocks:
    """Vector clocks keyed by task name (sparse dicts)."""

    def __init__(self) -> None:
        self.tasks: Dict[str, Dict[str, int]] = {}
        self.boot: Dict[str, int] = {}
        self._booted = False

    def of(self, task: str) -> Dict[str, int]:
        clock = self.tasks.get(task)
        if clock is None:
            if not self._booted and not task.startswith("init"):
                # The machine runs every prologue task to completion
                # before the loop starts: loop tasks begin after all of
                # the initialization work.
                self._booted = True
                for init in self.tasks.values():
                    _join(self.boot, init)
            clock = dict(self.boot) if self._booted else {}
            clock[task] = 1
            self.tasks[task] = clock
        return clock


def _join(into: Dict[str, int], other: Dict[str, int]) -> None:
    for task, tick in other.items():
        if tick > into.get(task, 0):
            into[task] = tick


def event_stream(result: RunResult) -> List[Tuple[int, str, Any, str]]:
    """Merged, harness-filtered ``(seq, kind, where, task)`` stream.

    Filtering (and therefore task-boot order) is decided here, once.
    Prefers the engine's sync tap when the run carries one -- it is
    already in issue order and exists even in counters mode; otherwise
    merges the full trace with the sync trace by ``seq``.
    """
    tap = getattr(result, "tap", None)
    if tap:
        return [(seq, kind, where, task)
                for seq, (kind, where, task) in enumerate(tap)
                if kind in _SYNC_KINDS or where[0] not in _HARNESS_SPACES]
    events: List[Tuple[int, str, Any, str]] = []
    for record in result.trace:
        if record.addr[0] in _HARNESS_SPACES:
            continue
        events.append((record.seq, record.kind, record.addr, record.task))
    for seq, kind, var, _value, task in result.sync_trace:
        events.append((seq, kind, var, task))
    events.sort(key=lambda event: event[0])
    return events


def check_trace(result: RunResult) -> List[RaceEvent]:
    """Replay a run's event stream through the vector clocks."""
    # The pass allocates many small, acyclic clock and read-map dicts;
    # with the generational collector on, collections triggered by them
    # re-scan the caller's whole (often large) heap.  Nothing here can
    # form a cycle, so pause collection for the duration of the pass.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _check_events(event_stream(result))
    finally:
        if was_enabled:
            gc.enable()


def _check_events(events: List[Tuple[int, str, Any, str]]
                  ) -> List[RaceEvent]:
    clocks = _Clocks()
    var_clocks: Dict[Any, Dict[str, int]] = {}
    var_revision: Dict[Any, int] = {}                  # bumped per release
    acquired: Dict[str, Dict[Any, int]] = {}           # task -> var -> rev
    last_write: Dict[Any, Tuple[str, int, int]] = {}   # task, tick, seq
    reads: Dict[Any, Dict[str, Tuple[int, int]]] = {}  # task -> tick, seq
    races: List[RaceEvent] = []

    for seq, kind, where, task in events:
        clock = clocks.of(task)
        if kind == "acq":
            # Joining a variable whose clock has not changed since this
            # task last joined it is a no-op: skip the dict walk.
            revision = var_revision.get(where, 0)
            seen = acquired.setdefault(task, {})
            if seen.get(where) != revision:
                _join(clock, var_clocks.get(where, {}))
                seen[where] = revision
        elif kind == "rel":
            _join(var_clocks.setdefault(where, {}), clock)
            clock[task] = clock.get(task, 0) + 1
            var_revision[where] = var_revision.get(where, 0) + 1
        elif kind == "upd":
            _join(clock, var_clocks.setdefault(where, {}))
            _join(var_clocks[where], clock)
            clock[task] = clock.get(task, 0) + 1
            var_revision[where] = var_revision.get(where, 0) + 1
        elif kind == "R":
            writer = last_write.get(where)
            if writer is not None and writer[0] != task \
                    and writer[1] > clock.get(writer[0], 0):
                races.append(RaceEvent(
                    addr=where, first_task=writer[0], first_kind="W",
                    first_seq=writer[2], second_task=task,
                    second_kind="R", second_seq=seq))
            reads.setdefault(where, {})[task] = (clock.get(task, 0), seq)
        else:  # "W"
            writer = last_write.get(where)
            if writer is not None and writer[0] != task \
                    and writer[1] > clock.get(writer[0], 0):
                races.append(RaceEvent(
                    addr=where, first_task=writer[0], first_kind="W",
                    first_seq=writer[2], second_task=task,
                    second_kind="W", second_seq=seq))
            for reader, (tick, rseq) in reads.get(where, {}).items():
                if reader != task and tick > clock.get(reader, 0):
                    races.append(RaceEvent(
                        addr=where, first_task=reader, first_kind="R",
                        first_seq=rseq, second_task=task,
                        second_kind="W", second_seq=seq))
            last_write[where] = (task, clock.get(task, 0), seq)
            reads[where] = {}  # this write orders all earlier reads
    return races


def dynamic_check(instrumented: InstrumentedLoop, *,
                  processors: Optional[int] = None,
                  schedule: str = "self",
                  validate: bool = True,
                  max_races: int = 20) -> DynamicVerdict:
    """Run one schedule and report how (whether) it kills the placement.

    ``processors`` defaults to one per iteration -- the maximally
    parallel schedule, which exposes the most interleavings the sync
    placement must defend against.
    """
    if processors is None:
        processors = max(1, len(instrumented.iterations))
    machine = Machine(MachineConfig(
        processors=processors, schedule=schedule, record_trace=True,
        stagnation_limit=_STAGNATION_LIMIT))
    try:
        result = machine.run(instrumented)
    except HazardError as err:  # includes diagnosed DeadlockError
        return DynamicVerdict(verdict="deadlock", detail=str(err))
    races = check_trace(result)
    if races:
        detail = "; ".join(r.describe() for r in races[:max_races])
        return DynamicVerdict(verdict="race", races=races,
                              detail=detail, result=result)
    if validate:
        try:
            instrumented.validate(result)
        except ValidationError as err:
            return DynamicVerdict(verdict="corruption", detail=str(err),
                                  result=result)
    return DynamicVerdict(verdict="clean", result=result)
