"""Operation vocabulary for simulated processes.

A simulated *process* (for example one iteration of a ``DOACROSS`` loop) is
a Python generator.  Each value it yields is one of the operation records
defined here; the :class:`~repro.sim.engine.Engine` interprets the record,
advances simulated time, charges the appropriate hardware resources, and
resumes the generator (sending back a result for value-producing
operations such as :class:`MemRead`).

The vocabulary is deliberately small -- it is the contract between the
synchronization schemes (which *emit* operations) and the hardware
substrate (which *executes* them):

``Compute``
    Local computation; occupies the processor, touches nothing shared.
``MemRead`` / ``MemWrite``
    Shared-memory data accesses.  They go through the interleaved memory
    model, so they observe module latency and contention (hot spots).
``SyncRead`` / ``SyncWrite``
    Accesses to a synchronization variable through a
    :class:`~repro.sim.sync_bus.SyncFabric`.  Depending on the fabric the
    variable may live in shared memory (data-oriented keys) or in
    broadcast registers with free local reads (statement/process
    counters).
``WaitUntil``
    Busy-wait until a predicate over a synchronization variable becomes
    true.  The engine accounts the elapsed time as *spin* cycles and, when
    the fabric requires it, charges one transaction per poll.
``Fence``
    Marks the point where a process's previous writes are globally
    visible; schemes issue it before signalling completion of a source
    statement (requirement (1) of section 2.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

#: A shared-memory address: an (array name, flat element index) pair.
Address = Tuple[str, int]


@dataclass(frozen=True, slots=True)
class Compute:
    """Occupy the processor for ``cycles`` cycles of local work."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"negative compute time: {self.cycles}")


@dataclass(frozen=True, slots=True)
class MemRead:
    """Read one word from shared memory; the engine sends the value back."""

    addr: Address


@dataclass(frozen=True, slots=True)
class MemWrite:
    """Write one word to shared memory."""

    addr: Address
    value: Any


@dataclass(frozen=True, slots=True)
class SyncRead:
    """Read a synchronization variable; the engine sends the value back."""

    var: int


@dataclass(frozen=True, slots=True)
class SyncWrite:
    """Write a synchronization variable.

    ``coverable`` marks writes that a later write to the same variable may
    overwrite while still queued for the broadcast bus (the write-coverage
    optimization of section 6: "an issued write need not be sent out if a
    second write to the same PC arrives before the former has gained the
    bus access").

    ``checkpoint`` optionally carries a recovery journal entry that the
    engine records *atomically with the issue of this write*: either both
    the signal and its journal entry happen, or neither.  A checkpoint on
    a separate, later op would open a crash window in which a
    non-idempotent signal had been issued but not journalled, making
    replay re-issue it.  Schemes only attach checkpoints when a
    :class:`~repro.recovery.manager.RecoveryManager` is active.
    """

    var: int
    value: Any
    coverable: bool = False
    checkpoint: Optional[dict] = None


@dataclass(frozen=True, slots=True)
class SyncUpdate:
    """Atomic read-modify-write of a synchronization variable.

    ``fn`` maps the committed value to the new value at commit time; the
    whole update is one fabric transaction.  Models the Cedar-style
    synchronization processor in each global memory module, which can
    test-and-increment a key atomically at the memory side.

    ``checkpoint`` is journalled atomically with the issue, exactly as
    for :class:`SyncWrite`.
    """

    var: int
    fn: Callable[[Any], Any]
    checkpoint: Optional[dict] = None


@dataclass(frozen=True, slots=True)
class WaitUntil:
    """Busy-wait until ``predicate(value_of_var)`` is true.

    The predicate must be monotonic: once true it stays true.  This mirrors
    the paper's primitives, which always wait for a counter to *exceed* a
    value, never to equal one transiently.
    """

    var: int
    predicate: Callable[[Any], bool]
    #: human-readable reason, kept in the trace (e.g. "wait_PC(2,1)").
    reason: str = ""
    #: optional spin budget in cycles: when set, the engine raises a
    #: diagnosed DeadlockError if the wait is still unsatisfied after
    #: this many cycles (bounded wait; see schemes.base.bound_waits).
    max_spin: Optional[int] = None


def at_least(threshold: int) -> Callable[[int], bool]:
    """Monotone :class:`WaitUntil` predicate: value >= ``threshold``."""
    predicate = _AT_LEAST.get(threshold)
    if predicate is None:
        def predicate(value: int, _threshold: int = threshold) -> bool:
            return value >= _threshold
        _AT_LEAST[threshold] = predicate
    return predicate


#: threshold -> predicate memo; thresholds are small ints, and reusing
#: the closure keeps compiled op streams allocation-free
_AT_LEAST: Dict[int, Callable[[int], bool]] = {}


def increment(value: int) -> int:
    """:class:`SyncUpdate` function: add one."""
    return value + 1


@dataclass(frozen=True, slots=True)
class Fence:
    """Drain this process's pending shared-memory writes.

    Completion of a source statement may be signalled only after its
    effect is observable by other processes; ``Fence`` models the wait for
    that visibility.
    """


@dataclass(frozen=True, slots=True)
class Annotate:
    """Record a zero-cost marker in the trace (used by the validator)."""

    kind: str
    payload: dict = field(default_factory=dict)


#: Union of every record a process may yield.
Operation = (Compute, MemRead, MemWrite, SyncRead, SyncWrite, SyncUpdate,
             WaitUntil, Fence, Annotate)
