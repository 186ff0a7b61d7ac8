"""Process counters: the paper's synchronization variable.

A *process counter* (PC) is the state of one process (loop iteration):
a pair ``<owner, step>`` where ``owner`` is the process id currently
holding the counter and ``step`` counts how many of its source statements
that process has completed.  Values are ordered lexicographically::

    <w, x> >= <y, z>   iff   w > y, or w = y and x >= z

so a counter released to the *next* owner (``<i+X, 0>``) compares above
every step of the previous owner -- that is how ``release_PC`` signals
"process i finished all its sources".

Only ``X`` counters exist; iterations fold onto them so that processes
``i, X+i, 2X+i, ...`` share slot ``i`` and ownership is handed forward by
``release_PC`` / ``transfer_PC``.  The paper recommends X be a power of
two ("a small multiple of the number of processors") so the modulus is a
bit-mask; :func:`repro.core.folding.choose_counters` implements that
sizing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Tuple

from ..sim.ops import SyncWrite
from ..sim.sync_bus import SyncFabric

#: a PC value: (owner pid, step)
PCValue = Tuple[int, int]


def pc_at_least(target: PCValue) -> Callable[[PCValue], bool]:
    """Predicate factory: committed PC value >= ``target``.

    Python tuple comparison is exactly the paper's ordering on
    ``<owner, step>`` pairs.  The predicate is monotone because a PC is
    only ever increased (step bumps, then ownership moves forward).
    Memoized by target, as :func:`repro.sim.ops.at_least` is, so every
    wait on one PC value shares one predicate across folds and loops.
    """
    predicate = _PC_AT_LEAST.get(target)
    if predicate is None:
        def predicate(value: PCValue, _target: PCValue = target) -> bool:
            return value >= _target
        _PC_AT_LEAST[target] = predicate
    return predicate


#: target -> predicate memo; targets are (pid, step) pairs bounded by
#: the largest loop a process has instrumented
_PC_AT_LEAST: Dict[PCValue, Callable[[PCValue], bool]] = {}


@dataclass
class ProcessCounterFile:
    """``X`` folded process counters backed by a synchronization fabric.

    ``first_pid`` is the id of the first process of the loop (the paper
    numbers iterations from 1).  Slot ``s`` initially belongs to process
    ``first_pid + s``; process ``pid`` uses slot ``(pid - first_pid) mod X``.

    ``split_fields`` models the narrow-bus option of section 6: the two
    fields of a PC "need not be updated simultaneously", so an ownership
    transfer is broadcast as two writes.  ``split_order`` chooses which
    field goes first; the paper's argument shows ``"step_first"`` is safe
    (transition ``<i,j1> -> <i,0> -> <i+X,0>``) while owner-first exposes
    the dangerous intermediate ``<i+X, j1>`` -- a test demonstrates the
    difference.
    """

    n_counters: int
    first_pid: int = 1
    split_fields: bool = False
    split_order: str = "step_first"

    def __post_init__(self) -> None:
        if self.n_counters < 1:
            raise ValueError("need at least one process counter")
        if self.split_order not in ("step_first", "owner_first"):
            raise ValueError(f"unknown split_order {self.split_order!r}")
        self._vars: Optional[range] = None
        self._fabric: Optional[SyncFabric] = None

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def slot(self, pid: int) -> int:
        """Counter slot used by process ``pid`` (the folding modulus)."""
        return (pid - self.first_pid) % self.n_counters

    def initial_owner(self, slot: int) -> int:
        """Process that owns ``slot`` before any release."""
        return self.first_pid + slot

    def allocate(self, fabric: SyncFabric) -> None:
        """Allocate and initialize the counters on ``fabric``.

        Initialization is free (register reset at loop setup), matching
        the paper's point that the PC scheme avoids the per-key
        initialization overhead of data-oriented schemes.
        """
        self._fabric = fabric
        words = 2 if self.split_fields else 1
        start = fabric.alloc(1, init=(self.initial_owner(0), 0),
                             words_per_var=words)[0]
        for s in range(1, self.n_counters):
            fabric.alloc(1, init=(self.initial_owner(s), 0),
                         words_per_var=words)
        self._vars = range(start, start + self.n_counters)

    def var_of(self, pid: int) -> int:
        """Fabric variable id of the counter ``pid`` folds onto."""
        if self._vars is None:
            raise RuntimeError("counter file not allocated on a fabric yet")
        return self._vars[self.slot(pid)]

    def value_of(self, pid: int) -> PCValue:
        """Committed value of ``pid``'s counter (for inspection/tests)."""
        if self._fabric is None:
            raise RuntimeError("counter file not allocated on a fabric yet")
        return self._fabric.value(self.var_of(pid))

    # ------------------------------------------------------------------
    # write helpers (yield simulator ops)
    # ------------------------------------------------------------------

    def write_step(self, pid: int, step: int,
                   checkpoint: Optional[dict] = None) -> Generator:
        """Publish ``<pid, step>`` on ``pid``'s counter (one broadcast).

        Marked coverable: a later write to the same PC may overwrite it
        while queued (section 6's bus-traffic reduction).
        ``checkpoint`` rides on the write so the recovery layer journals
        it atomically with the signal's issue.
        """
        yield SyncWrite(self.var_of(pid), (pid, step), coverable=True,
                        checkpoint=checkpoint)

    def write_release(self, pid: int, current_step: int = 0,
                      checkpoint: Optional[dict] = None) -> Generator:
        """Hand the counter to process ``pid + X`` (``<pid+X, 0>``).

        ``current_step`` is the last step this process published; it only
        matters in split-field owner-first mode, where the transient value
        ``<pid+X, current_step>`` becomes visible.  In split-field mode
        the transfer is two broadcasts; it is never coverable -- it must
        reach every processor.  ``checkpoint`` attaches to the *final*
        write: only the completed ownership transfer is journalled, so a
        crash between the two split writes replays the whole (idempotent)
        transfer."""
        var = self.var_of(pid)
        next_owner = pid + self.n_counters
        if not self.split_fields:
            yield SyncWrite(var, (next_owner, 0), coverable=False,
                            checkpoint=checkpoint)
            return
        if self.split_order == "step_first":
            yield SyncWrite(var, (pid, 0), coverable=False)
            yield SyncWrite(var, (next_owner, 0), coverable=False,
                            checkpoint=checkpoint)
        else:  # owner-first: exposes <next_owner, old step> transiently
            yield SyncWrite(var, (next_owner, current_step), coverable=False)
            yield SyncWrite(var, (next_owner, 0), coverable=False,
                            checkpoint=checkpoint)


def split_owner_first_intermediate(current: PCValue,
                                   next_owner: int) -> PCValue:
    """The transient value an owner-first split update exposes.

    Used by tests to show why the paper prescribes updating ``step``
    first: ``<i+X, j1>`` with ``j1 > 0`` satisfies waits for early steps
    of process ``i+X`` before that process has run at all.
    """
    _owner, step = current
    return (next_owner, step)
