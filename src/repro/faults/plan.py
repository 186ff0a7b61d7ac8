"""Declarative fault plans.

A :class:`FaultPlan` says *which* hardware misbehaviours to inject and
how often; the :class:`~repro.faults.injector.FaultInjector` decides the
*when* by drawing from ``random.Random(plan.seed)`` in engine-event
order.  Because the engine itself is deterministic, a plan pins down one
exact faulty execution: re-running the same plan replays the same
stalls, losses and crashes cycle-for-cycle.

An all-zero plan (``FaultPlan().is_empty``) installs no hooks at all --
the machine skips building an injector, so default runs reproduce the
pre-fault event sequence and metrics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: inclusive (low, high) cycle range; (0, 0) disables the knob
CycleSpan = Tuple[int, int]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject into one run.

    Probabilities are per *opportunity*: ``stall_prob`` and
    ``crash_prob`` per interpreted process operation, ``broadcast_loss``
    per synchronization-bus broadcast, ``update_drop``/``update_dup``
    per atomic read-modify-write commit.  Jitter spans are inclusive
    uniform ranges of extra cycles.
    """

    seed: int = 0
    #: preset name (or free-form label) for reports
    name: str = ""
    #: chance that a process step is preceded by a stall window
    stall_prob: float = 0.0
    stall_cycles: CycleSpan = (10, 120)
    #: deterministic stalls: ((task, start, end), ...) -- the task's
    #: first step inside cycle window [start, end) stalls until ``end``
    stall_windows: Tuple[Tuple[str, int, int], ...] = ()
    #: chance that a process step kills its task for good
    crash_prob: float = 0.0
    #: deterministic crashes: ((task name, op count), ...) -- the task
    #: dies when it has interpreted that many operations
    crash_after_ops: Tuple[Tuple[str, int], ...] = ()
    #: deterministic crashes: ((task, start, end), ...) -- the task dies
    #: on its first step inside cycle window [start, end)
    crash_windows: Tuple[Tuple[str, int, int], ...] = ()
    #: chance a sync-bus broadcast never reaches the local images
    broadcast_loss: float = 0.0
    #: extra propagation delay added to each broadcast
    broadcast_jitter: CycleSpan = (0, 0)
    #: extra wire latency added to each shared-memory data access
    memory_jitter: CycleSpan = (0, 0)
    #: chance a SyncUpdate commit is lost (the value never changes)
    update_drop: float = 0.0
    #: chance a SyncUpdate commit applies twice (e.g. a replayed message)
    update_dup: float = 0.0

    def __post_init__(self) -> None:
        for label in ("stall_prob", "crash_prob", "broadcast_loss",
                      "update_drop", "update_dup"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        for label in ("stall_cycles", "broadcast_jitter", "memory_jitter"):
            low, high = getattr(self, label)
            if low < 0 or high < low:
                raise ValueError(
                    f"{label} must be a 0 <= low <= high span, "
                    f"got ({low}, {high})")
        for task, ops in self.crash_after_ops:
            if ops < 1:
                raise ValueError(
                    f"crash_after_ops for {task!r} must be >= 1, got {ops}")
        seen_tasks = set()
        for task, _ops in self.crash_after_ops:
            if task in seen_tasks:
                raise ValueError(
                    f"duplicate crash_after_ops entry for task {task!r}: "
                    f"a task can only die once")
            seen_tasks.add(task)
        self._check_windows("stall_windows", self.stall_windows)
        self._check_windows("crash_windows", self.crash_windows)

    @staticmethod
    def _check_windows(label: str,
                       windows: Tuple[Tuple[str, int, int], ...]) -> None:
        """Reject malformed (task, start, end) cycle windows."""
        per_task: Dict[str, List[Tuple[int, int]]] = {}
        for task, start, end in windows:
            if start < 0:
                raise ValueError(
                    f"{label} for {task!r}: start must be >= 0, "
                    f"got ({start}, {end})")
            if end <= start:
                raise ValueError(
                    f"{label} for {task!r}: end must be > start, "
                    f"got ({start}, {end})")
            per_task.setdefault(task, []).append((start, end))
        for task, spans in per_task.items():
            spans.sort()
            for (_s0, e0), (s1, e1) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"{label} for {task!r} overlap: "
                        f"[..., {e0}) and [{s1}, {e1}) -- windows for one "
                        f"task must be disjoint")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (zero-overhead default)."""
        return (self.stall_prob == 0.0 and self.crash_prob == 0.0
                and not self.crash_after_ops
                and not self.stall_windows and not self.crash_windows
                and self.broadcast_loss == 0.0
                and self.broadcast_jitter[1] == 0
                and self.memory_jitter[1] == 0
                and self.update_drop == 0.0 and self.update_dup == 0.0)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same fault mix under a different random stream."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line human summary of the active knobs."""
        parts: List[str] = []
        if self.stall_prob:
            parts.append(f"stalls p={self.stall_prob} "
                         f"x{self.stall_cycles}")
        if self.crash_prob:
            parts.append(f"crashes p={self.crash_prob}")
        if self.stall_windows:
            parts.append(f"stall_windows={list(self.stall_windows)}")
        if self.crash_after_ops:
            parts.append(f"crash_after={dict(self.crash_after_ops)}")
        if self.crash_windows:
            parts.append(f"crash_windows={list(self.crash_windows)}")
        if self.broadcast_loss:
            parts.append(f"bus loss p={self.broadcast_loss}")
        if self.broadcast_jitter[1]:
            parts.append(f"bus jitter {self.broadcast_jitter}")
        if self.memory_jitter[1]:
            parts.append(f"mem jitter {self.memory_jitter}")
        if self.update_drop:
            parts.append(f"rmw drop p={self.update_drop}")
        if self.update_dup:
            parts.append(f"rmw dup p={self.update_dup}")
        label = self.name or "custom"
        body = ", ".join(parts) if parts else "no faults"
        return f"{label}(seed={self.seed}): {body}"


#: named fault mixes ``python -m repro chaos`` sweeps by default ("none"
#: is the zero-overhead control and excluded from plan_names())
_PRESETS: Dict[str, Dict] = {
    "none": {},
    # pure timing noise: legal under any correct scheme, so every run
    # must still validate -- catches hidden timing assumptions
    "jitter": {"memory_jitter": (0, 7), "broadcast_jitter": (0, 5)},
    # long per-task stall windows: models preempted/slow processors
    "stalls": {"stall_prob": 0.02, "stall_cycles": (10, 200)},
    # the sync bus drops and delays broadcasts: lost releases must end in
    # a diagnosed deadlock, never a hang
    "lossy-bus": {"broadcast_loss": 0.08, "broadcast_jitter": (0, 3)},
    # faulty memory-side synchronization processor: RMW commits vanish
    # (starved waiters) or replay (premature releases the validator
    # must catch)
    "flaky-rmw": {"update_drop": 0.05, "update_dup": 0.05},
    # processors die mid-loop; dependents and unclaimed iterations show
    # up in the hazard report
    "crashy": {"crash_prob": 0.001},
    # deterministic mid-loop processor deaths: with recovery enabled,
    # every killed iteration must be reincarnated on a survivor (unlike
    # "crashy", which can kill all processors and is unrecoverable by
    # construction)
    "crash-task": {"crash_after_ops": (("cpu1", 40), ("cpu2", 90))},
}


def plan_names() -> List[str]:
    """Preset names worth sweeping (everything but the empty control)."""
    return [name for name in _PRESETS if name != "none"]


def make_plan(name: str, seed: int = 0) -> FaultPlan:
    """Instantiate a preset fault plan under ``seed``."""
    try:
        knobs = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; known: {sorted(_PRESETS)}"
        ) from None
    return FaultPlan(seed=seed, name=name, **knobs)
