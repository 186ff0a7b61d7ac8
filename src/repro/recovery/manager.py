"""Recovery layer: convert recoverable hazards into completed runs.

Sits between the fault injector and the engine.  The injector decides
*what goes wrong* (drawing from its own seeded stream, exactly as
without recovery); this layer decides *how the machine fights back*,
drawing every recovery decision from a **separate** seeded stream so
that enabling recovery never perturbs fault-replay determinism.

Three mechanisms, mirroring what real synchronization hardware does when
its lossy fast path misbehaves:

**Broadcast retransmission**
    Every sync-bus broadcast carries a per-variable sequence number.
    When a broadcast is lost, the receivers' gap detection NACKs it and
    the sender retransmits with capped exponential backoff; stale or
    duplicated deliveries are deduplicated by the sequence guard
    (install only if newer than the installed sequence).  A lost
    release therefore arrives late instead of never.

**Task reincarnation**
    Schemes journal per-iteration sync progress (PC/SC positions, key
    counters, operand values) via checkpoints attached to their signal
    ops; the engine records each checkpoint atomically with the signal's
    issue.  When a task crashes, its obligations are adopted: a rescue
    task replays the unfinished iteration from the journal --
    idempotently, skipping already-issued non-idempotent signals -- and
    then takes the dead processor's place in the scheduler.

**Degraded-mode fallback**
    Broadcast outcomes feed a sliding window; when observed loss
    crosses ``fallback_enter`` the engine stops trusting the local
    register images and busy-waits by *polling the authoritative home
    copy through shared memory* (charged reads), returning to free
    local-image waits once the loss rate drops below ``fallback_exit``
    (hysteresis).  Liveness is bought with cycles.

The manager is only constructed when a non-empty fault plan *and* a
:class:`RecoveryPolicy` are both configured; clean runs never touch any
of this (the zero-overhead pin extends to recovery-configured no-fault
runs).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunable thresholds of the recovery layer (all deterministic)."""

    #: NACK detection delay before the first retransmission, in cycles
    nack_delay: int = 6
    #: base and cap of the exponential retransmission backoff, in cycles
    backoff_base: int = 4
    backoff_cap: int = 64
    #: retransmission attempts before the delivery is forced through
    #: (models escalating to a reliable, slower path)
    max_retransmits: int = 6
    #: reincarnations allowed per worker lineage before abandonment
    max_reincarnations: int = 3
    #: sliding-window size for the broadcast-loss estimator
    window: int = 16
    #: enter degraded (shared-memory polling) mode at this loss fraction
    fallback_enter: float = 0.25
    #: leave degraded mode again at or below this loss fraction
    fallback_exit: float = 0.05
    #: cost of one shared-memory poll of the home copy, in cycles
    fallback_read_cost: int = 6
    #: cycles between degraded-mode polls
    fallback_poll_interval: int = 8
    #: extra delay before retrying a dropped read-modify-write commit
    rmw_retry_delay: int = 8

    def __post_init__(self) -> None:
        for label in ("nack_delay", "backoff_base", "backoff_cap",
                      "fallback_read_cost", "fallback_poll_interval",
                      "rmw_retry_delay"):
            if getattr(self, label) < 1:
                raise ValueError(f"{label} must be >= 1")
        if self.max_retransmits < 1 or self.max_reincarnations < 0:
            raise ValueError("retry budgets must be positive")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not 0.0 < self.fallback_exit <= self.fallback_enter <= 1.0:
            raise ValueError(
                "need 0 < fallback_exit <= fallback_enter <= 1 "
                "(hysteresis)")


@dataclass
class ReplayJob:
    """One unfinished iteration waiting to be reincarnated."""

    iteration: int
    checkpoint: Optional[dict]
    #: worker lineage the job belongs to ("cpu3", "init0", ...)
    lineage: str


#: seed salt separating the recovery stream from the injector's stream
_RECOVERY_STREAM_SALT = 0x5EC0_7E57


class RecoveryManager:
    """Runtime state of the recovery layer for one simulation.

    Duck-types against the engine (no import of :mod:`repro.sim`), like
    the hazard watchdog: ``attach`` hands it the engine, the workload
    and the scheduler.  Counters land in ``RunResult.extra["recovery"]``
    and the ``actions`` log rides on hazard reports when a run dies
    anyway, enumerating what was attempted before death.
    """

    #: keep the actions log bounded; a report does not need more
    MAX_ACTIONS = 256

    def __init__(self, policy: RecoveryPolicy, plan) -> None:
        self.policy = policy
        self.plan = plan
        #: dedicated stream: never shares draws with the fault injector
        self._rng = random.Random((plan.seed << 4) ^ _RECOVERY_STREAM_SALT)
        self._engine = None
        self._workload = None
        self._scheduler = None
        self.counters: Dict[str, int] = {
            "retransmissions": 0,
            "forced_deliveries": 0,
            "deduplicated_broadcasts": 0,
            "rmw_retries": 0,
            "deduplicated_updates": 0,
            "reincarnations": 0,
            "reclaimed_iterations": 0,
            "fallback_epochs": 0,
            "fallback_polls": 0,
            "recovery_overhead_cycles": 0,
        }
        self.actions: List[str] = []
        #: per-iteration journal: latest checkpoint payload
        self._journal: Dict[Any, dict] = {}
        #: task name -> in-flight iteration
        self._in_flight: Dict[str, int] = {}
        #: task name -> worker lineage key ("cpu3" / "init1")
        self._lineage: Dict[str, str] = {}
        #: task name -> scheduling pid (rescues inherit the dead pid)
        self._pid: Dict[str, int] = {}
        #: reincarnations spent per lineage
        self._attempts: Dict[str, int] = {}
        self._jobs: deque = deque()
        #: adopted-but-unfinished obligations (jobs queued or running)
        self._outstanding = 0
        #: iterations currently counted in ``_outstanding`` -- guards
        #: against double counting when a rescue crashes mid-replay and
        #: its job is re-adopted
        self._counted: set = set()
        #: sliding window of recent broadcast outcomes (True = lost)
        self._loss_window: deque = deque(maxlen=policy.window)
        self.degraded = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, engine, workload, scheduler=None) -> None:
        self._engine = engine
        self._workload = workload
        self._scheduler = scheduler
        engine.recovery = self

    def set_scheduler(self, scheduler) -> None:
        self._scheduler = scheduler

    def register_worker(self, name: str, pid: int, lineage: str) -> None:
        """Declare a worker task (processor or prologue) the layer may
        have to reincarnate."""
        self._lineage[name] = lineage
        self._pid[name] = pid

    def _log(self, message: str) -> None:
        if len(self.actions) < self.MAX_ACTIONS:
            self.actions.append(message)

    # ------------------------------------------------------------------
    # mechanism 1: broadcast retransmission
    # ------------------------------------------------------------------

    def note_broadcast(self, lost: bool) -> None:
        """Feed the loss estimator; flip degraded mode hysteretically."""
        self._loss_window.append(lost)
        window = self._loss_window
        if len(window) < window.maxlen:
            return
        rate = sum(window) / len(window)
        if not self.degraded and rate >= self.policy.fallback_enter:
            self.degraded = True
            self.counters["fallback_epochs"] += 1
            self._log(f"entered degraded mode at t={self._engine.now} "
                      f"(observed loss {rate:.2f})")
        elif self.degraded and rate <= self.policy.fallback_exit:
            self.degraded = False
            self._log(f"left degraded mode at t={self._engine.now} "
                      f"(observed loss {rate:.2f})")

    def backoff(self, attempt: int) -> int:
        """NACK delay + capped exponential backoff for retry ``attempt``."""
        delay = min(self.policy.backoff_cap,
                    self.policy.backoff_base * (2 ** (attempt - 1)))
        return self.policy.nack_delay + delay

    def retransmit_fate(self, attempt: int) -> bool:
        """Is retry ``attempt`` lost too?  Forced through at the cap."""
        if attempt >= self.policy.max_retransmits:
            self.counters["forced_deliveries"] += 1
            return False
        loss = getattr(self.plan, "broadcast_loss", 0.0)
        return loss > 0.0 and self._rng.random() < loss

    def rmw_retry_at(self, now: int) -> int:
        """When to retry a dropped read-modify-write commit."""
        return now + self.policy.rmw_retry_delay

    # ------------------------------------------------------------------
    # mechanism 2: task reincarnation
    # ------------------------------------------------------------------

    def record_checkpoint(self, payload: dict) -> None:
        """Journal a checkpoint (called by the engine at signal issue)."""
        key = payload.get("iter")
        self._journal[key] = payload

    def iteration_started(self, task: str, iteration: int) -> None:
        self._in_flight[task] = iteration

    def iteration_finished(self, task: str) -> None:
        iteration = self._in_flight.pop(task, None)
        if iteration is not None:
            self._journal.pop(iteration, None)

    def claim_replay(self) -> Optional[ReplayJob]:
        return self._jobs.popleft() if self._jobs else None

    def job_done(self, job: ReplayJob) -> None:
        self._journal.pop(job.iteration, None)
        if job.iteration in self._counted:
            self._counted.discard(job.iteration)
            self._outstanding -= 1

    def outstanding(self) -> int:
        """Adopted obligations not yet replayed to completion."""
        return self._outstanding

    def on_crash(self, task: str) -> bool:
        """A task died: adopt its obligations if the budget allows.

        Returns True when the dead task's work was adopted (the engine
        then stops counting the corpse as live); False when the lineage
        is out of reincarnations and the run must die diagnosed.
        """
        lineage = self._lineage.get(task)
        if lineage is None:
            return False  # not a worker we know how to replace
        attempt = self._attempts.get(lineage, 0) + 1
        pid = self._pid[task]
        iteration = self._in_flight.pop(task, None)
        if attempt > self.policy.max_reincarnations:
            lost = []
            if iteration is not None:
                lost.append(iteration)
            if self._scheduler is not None:
                lost.extend(self._scheduler.reclaim(pid))
            abandoned = 0
            for it in lost:
                if it not in self._counted:
                    self._counted.add(it)
                    abandoned += 1
            self._outstanding += abandoned
            self._log(f"abandoned lineage {lineage} at "
                      f"t={self._engine.now}: reincarnation budget "
                      f"({self.policy.max_reincarnations}) exhausted, "
                      f"{len(lost)} iteration(s) lost")
            return False
        self._attempts[lineage] = attempt
        if iteration is not None:
            self._jobs.append(ReplayJob(
                iteration=iteration,
                checkpoint=self._journal.get(iteration),
                lineage=lineage))
            if iteration not in self._counted:
                self._counted.add(iteration)
                self._outstanding += 1
        name = f"{lineage}~r{attempt}"
        self.counters["reincarnations"] += 1
        self._log(f"reincarnated {task} as {name} at "
                  f"t={self._engine.now}"
                  + (f" (replaying iteration {iteration})"
                     if iteration is not None else ""))
        self.register_worker(name, pid, lineage)
        if lineage.startswith("init"):
            gen = self._prologue_replay(int(lineage[4:]))
        else:
            gen = self._rescue(name, pid)
        self._engine.spawn(gen, name=name)
        return True

    def _prologue_replay(self, index: int):
        """Re-run a crashed prologue worker from the start.

        Prologue generators only write constant initial values, so a
        partial first run followed by a full re-run is idempotent.
        """
        yield from self._workload.prologue()[index]

    def _rescue(self, name: str, pid: int):
        """Replay the adopted work, then stand in as processor ``pid``."""
        workload = self._workload
        while True:
            job = self.claim_replay()
            if job is None:
                break
            self.counters["reclaimed_iterations"] += 1
            self.iteration_started(name, job.iteration)
            yield from workload.make_replay_process(job.iteration,
                                                    job.checkpoint)
            self.iteration_finished(name)
            self.job_done(job)
        scheduler = self._scheduler
        if scheduler is None:
            return
        grab = self._grab_op
        while True:
            if grab is not None and scheduler.needs_shared_grab(pid):
                yield grab
            iteration = scheduler.next_for(pid)
            if iteration is None:
                return
            self.iteration_started(name, iteration)
            yield from workload.make_process(iteration)
            self.iteration_finished(name)

    #: the shared-counter grab op rescues issue (set by the machine so
    #: this module needs no import from repro.sim)
    _grab_op = None

    # ------------------------------------------------------------------
    # mechanism 3: degraded-mode accounting
    # ------------------------------------------------------------------

    def home_read_cost(self, var: int, now: int,
                       requester: Any = None) -> int:
        """Charge one degraded-mode poll of ``var``'s home copy; return
        when the shared-memory read completes (the fabric's
        ``read_cost`` contract, at the policy's cost)."""
        cycles = self.policy.fallback_read_cost
        self.counters["fallback_polls"] += 1
        self.counters["recovery_overhead_cycles"] += cycles
        return now + cycles

    def charge_retransmission(self, cycles: int) -> None:
        self.counters["retransmissions"] += 1
        self.counters["recovery_overhead_cycles"] += cycles
