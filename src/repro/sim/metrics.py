"""Result records for simulated runs.

A :class:`RunResult` gathers everything the benchmark harness reports:
makespan, per-processor cycle breakdown, memory and synchronization-bus
traffic, and the synchronization-variable footprint.  These are exactly
the quantities the paper argues about (number of synchronization
variables, initialization overhead, busy-wait traffic, bus transactions,
processor utilization), so the benches can print paper-shaped rows
directly from this record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .engine import AccessRecord, TaskStats

#: Version of the ``RunResult.extra`` payload schema.  The machine
#: stamps every result with it (``extra["schema_version"]``) and cached
#: :mod:`repro.lab` records carry it, so records produced by older code
#: -- whose counter names or nesting may differ -- are *detected and
#: invalidated* instead of silently mixed into fresh sweeps.  Bump it
#: whenever the shape of ``extra`` (key names, counter semantics,
#: nesting) changes.
EXTRA_SCHEMA_VERSION = 1


@dataclass(slots=True)
class RunResult:
    """Everything measured in one simulated execution."""

    makespan: int
    processors: List[TaskStats]
    #: shared-memory data transactions (reads + writes)
    memory_transactions: int
    #: peak per-module request count (hot-spot indicator)
    memory_hotspot: int
    #: synchronization fabric transactions (charged reads + broadcasts)
    sync_transactions: int
    #: broadcasts avoided by the write-coverage optimization
    covered_writes: int
    #: number of synchronization variables the scheme allocated
    sync_vars: int
    #: words of synchronization storage
    sync_storage_words: int
    #: cycles spent before the loop body started (key initialization etc.)
    init_cycles: int
    trace: List[AccessRecord] = field(default_factory=list)
    #: synchronization events (seq, kind, var, value, task) sharing seq
    #: numbers with ``trace`` (full metrics mode only; the race
    #: sanitizer reads ``tap``).  Not part of ``summary()``, so records
    #: and their schema are unaffected.
    sync_trace: List[Any] = field(default_factory=list)
    final_memory: Dict[Any, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: lightweight sanitizer stream from the engine's sync tap:
    #: (kind, where, task) tuples whose list index is issue order --
    #: present (possibly empty) when the run had ``sync_tap=True``,
    #: None otherwise.  Recorded in any metrics mode, which is what
    #: makes counters-mode runs race-checkable.
    tap: Any = None

    @property
    def total_busy(self) -> int:
        return sum(p.busy for p in self.processors)

    @property
    def total_spin(self) -> int:
        return sum(p.spin for p in self.processors)

    @property
    def total_stall(self) -> int:
        return sum(p.stall for p in self.processors)

    @property
    def total_sync_ops(self) -> int:
        return sum(p.sync_ops for p in self.processors)

    @property
    def schema_version(self) -> int:
        """Version of the ``extra`` payload this result carries.

        Results produced before the schema was versioned report ``0``;
        the lab cache treats any mismatch with
        :data:`EXTRA_SCHEMA_VERSION` as stale and re-simulates.
        """
        return int(self.extra.get("schema_version", 0))

    @property
    def faults(self) -> Dict[str, int]:
        """Fault-injection counters (empty when the run was clean).

        Populated by the machine from the
        :class:`~repro.faults.injector.FaultInjector` when a non-empty
        fault plan was active; keys are counter names such as
        ``injected_stalls`` or ``lost_broadcasts``.
        """
        return self.extra.get("faults", {})

    @property
    def fault_events(self) -> int:
        """Total injected fault events (cycle sums excluded)."""
        return sum(count for key, count in self.faults.items()
                   if not key.endswith("_cycles"))

    @property
    def recovery(self) -> Dict[str, int]:
        """Recovery-layer counters (empty when no recovery ran).

        Populated by the machine from the
        :class:`~repro.recovery.RecoveryManager` when both a non-empty
        fault plan and a recovery policy were configured; keys are
        counter names such as ``retransmissions``, ``reincarnations``
        or ``fallback_epochs``.
        """
        return self.extra.get("recovery", {})

    @property
    def recovery_events(self) -> int:
        """Total recovery actions taken (cycle sums excluded)."""
        return sum(count for key, count in self.recovery.items()
                   if not key.endswith("_cycles"))

    @property
    def utilization(self) -> float:
        """Fraction of processor-cycles doing useful computation."""
        capacity = self.makespan * len(self.processors)
        return self.total_busy / capacity if capacity else 0.0

    @property
    def spin_fraction(self) -> float:
        """Fraction of processor-cycles burnt busy-waiting."""
        capacity = self.makespan * len(self.processors)
        return self.total_spin / capacity if capacity else 0.0

    def speedup_over(self, serial_cycles: int) -> float:
        """Speedup relative to a serial execution taking ``serial_cycles``."""
        return serial_cycles / self.makespan if self.makespan else float("inf")

    def summary(self) -> Dict[str, Any]:
        """Flat dict of headline numbers (for table printing)."""
        return {
            "makespan": self.makespan,
            "utilization": round(self.utilization, 4),
            "spin_fraction": round(self.spin_fraction, 4),
            "sync_vars": self.sync_vars,
            "sync_storage_words": self.sync_storage_words,
            "init_cycles": self.init_cycles,
            "sync_transactions": self.sync_transactions,
            "covered_writes": self.covered_writes,
            "memory_transactions": self.memory_transactions,
            "memory_hotspot": self.memory_hotspot,
            "sync_ops": self.total_sync_ops,
        }
