"""Sync-placement mutants: delete or weaken one synchronization op.

The mutation-kill suite proves the verifier and the sanitizer are not
vacuous: every placement with one load-bearing sync op removed must be
flagged.  Mutants are expressed *structurally* -- "the k-th op in
iteration ``pid``'s stream matching this signature" -- so the same
mutant is applied identically by the static dry run and by the engine
at run time.

Eligibility is deliberately narrow, because not every deletion is a
bug:

* a **coverable** counter write (``set_PC`` / a mark) is a progress
  hint; schemes tolerate its loss by design, so deleting it proves
  nothing;
* a sync write nobody waits for (a consume bit with no later writer in
  the window) has no reader to starve;
* ops whose presence differs between the optimistic and pessimistic
  dry-run policies are run-time conditional -- a structural index into
  their stream could hit a different op than the one analyzed (see
  :func:`repro.analyze.placement.stable_signatures`).

What remains: deleting a sync write that some *other* task's wait
counts among its candidate satisfiers (starves the waiter -> static
deadlock), deleting a counted update another task waits on (same), and
weakening a wait into a no-op (the waiter barges ahead -> static race).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..schemes.base import InstrumentedLoop
from ..sim.ops import Compute, SyncUpdate, SyncWrite, Tag, WaitUntil
from .hbgraph import WaitInfo, _early_updates, solve
from .placement import extract, stable_signatures
from .verifier import choose_window

__all__ = ["Mutant", "MutatedLoop", "enumerate_mutants", "apply_mutant",
           "kill_mutant"]


@dataclass(frozen=True)
class Mutant:
    """One structural mutation of a sync placement."""

    kind: str          # "delete-write" | "delete-update" | "weaken-wait"
    pid: int           # iteration whose stream is mutated
    signature: Tuple   # placement._signatures key the op must match
    occurrence: int    # k-th matching op in the stream (0-based)

    @property
    def label(self) -> str:
        var = self.signature[1]
        return f"{self.kind}:var{var}:p{self.pid}#{self.occurrence}"


def _matches(op: Any, signature: Tuple) -> bool:
    tag = signature[0]
    if tag == "W":
        return (isinstance(op, SyncWrite) and op.var == signature[1]
                and op.value == signature[2]
                and op.coverable == signature[3])
    if tag == "U":
        return isinstance(op, SyncUpdate) and op.var == signature[1]
    return isinstance(op, WaitUntil) and op.var == signature[1]


class MutatedLoop:
    """An instrumented loop with one mutant applied (and, optionally,
    delays injected to provoke the witness interleaving: ``slow_pid``
    delays a whole iteration's start, ``slow_tag`` delays one statement
    instance just before it computes).

    Everything except ``make_process`` delegates to the wrapped loop, so
    the static extractor and the machine both see the mutation through
    the identical code path.
    """

    def __init__(self, inner: InstrumentedLoop, mutant: Mutant,
                 slow_pid: Optional[int] = None,
                 slow_tag: Optional[Tuple[str, int]] = None,
                 slow_cost: int = 3000,
                 start_cost: int = 8000) -> None:
        self._inner = inner
        self.mutant = mutant
        self.slow_pid = slow_pid
        self.slow_tag = slow_tag
        self.slow_cost = slow_cost
        self.start_cost = start_cost

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def make_process(self, iteration: int) -> Generator:
        gen = self._inner.make_process(iteration)
        if iteration == self.mutant.pid:
            gen = self._mutate(gen)
        if self.slow_tag is not None and iteration == self.slow_tag[1]:
            gen = self._slow_at_tag(gen)
        if iteration == self.slow_pid:
            gen = self._slow(gen)
        return gen

    def _slow(self, gen: Generator) -> Generator:
        yield Compute(self.start_cost)
        send = None
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                return
            send = yield op

    def _slow_at_tag(self, gen: Generator) -> Generator:
        send = None
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                return
            if isinstance(op, Tag) and op.tag == self.slow_tag:
                yield Compute(self.slow_cost)
            send = yield op

    def _mutate(self, gen: Generator) -> Generator:
        mutant = self.mutant
        seen = 0
        send: Any = None
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                return
            send = None
            if _matches(op, mutant.signature):
                hit = seen == mutant.occurrence
                seen += 1
                if hit:
                    if mutant.kind == "weaken-wait":
                        op = WaitUntil(
                            op.var, lambda value: True,
                            reason=f"[mutated to no-op] {op.reason}")
                    else:
                        # Deleted: swallow the op.  The generator still
                        # expects a SyncUpdate's result value.
                        if isinstance(op, SyncUpdate):
                            send = 0
                        continue
            send = yield op


def enumerate_mutants(instrumented: InstrumentedLoop, *,
                      pid: Optional[int] = None,
                      window: Optional[int] = None) -> List[Mutant]:
    """Eligible mutants for one representative (mid-window) iteration."""
    fold = getattr(getattr(instrumented, "counters", None),
                   "n_counters", 1) or 1
    if window is None:
        window = choose_window(instrumented.loop, instrumented.graph,
                               fold)
    pids = list(instrumented.iterations[:window])
    if pid is None:
        pid = pids[len(pids) // 2]

    placement = extract(instrumented, pids)
    hb = solve(placement)
    nodes = placement.nodes

    # Writes some other task's wait counts among its candidate
    # satisfiers: deleting one can starve the waiter.
    candidate_nids: Set[int] = set()
    for wid, info in hb.waits.items():
        wtask = nodes[wid].task
        for cand in info.candidates:
            if cand is not None and nodes[cand].task != wtask:
                candidate_nids.add(cand)

    # Counted updates a threshold wait in another task cannot reach its
    # count without: removal starves it (a read-side key increment that
    # no later write waits on is NOT here -- deleting it is harmless).
    needed_updates: Set[int] = set()
    for wid, info in hb.waits.items():
        if not info.threshold:
            continue
        early = _early_updates(info, hb.past, wid, hb.co_waits)
        if len(early) <= info.threshold:
            wtask = nodes[wid].task
            needed_updates.update(u for u in early
                                  if nodes[u].task != wtask)

    # First runtime (non-synthetic) wait per (task, var): the node a
    # weaken-wait mutant with occurrence 0 lands on.
    first_wait: Dict[Tuple[int, int], WaitInfo] = {}
    for wid in sorted(hb.waits):
        node = nodes[wid]
        if node.synthetic:
            continue
        first_wait.setdefault((node.task, hb.waits[wid].var),
                              hb.waits[wid])

    mutants: List[Mutant] = []
    for sig in sorted(stable_signatures(instrumented, pid), key=repr):
        tag, var = sig[0], sig[1]
        if tag == "W":
            if sig[3]:  # coverable: a hint, deletion is tolerated
                continue
            load_bearing = any(
                nid in candidate_nids
                and nodes[nid].op.value == sig[2]
                for nid in placement.write_nodes.get(var, ())
                if nodes[nid].task == pid)
            if load_bearing:
                mutants.append(Mutant("delete-write", pid, sig, 0))
        elif tag == "U":
            if any(nodes[u].task == pid
                   for u in needed_updates
                   if placement.nodes[u].op.var == var):
                mutants.append(Mutant("delete-update", pid, sig, 0))
        else:
            info = first_wait.get((pid, var))
            if info is None or info.never_satisfiable:
                continue
            vacuous = (info.threshold == 0
                       or (info.threshold is None
                           and None in info.candidates))
            if not vacuous:
                mutants.append(Mutant("weaken-wait", pid, sig, 0))
    return mutants


def apply_mutant(instrumented: InstrumentedLoop, mutant: Mutant, *,
                 slow_pid: Optional[int] = None,
                 slow_tag: Optional[Tuple[str, int]] = None) -> MutatedLoop:
    """Wrap ``instrumented`` with ``mutant`` applied."""
    return MutatedLoop(instrumented, mutant, slow_pid=slow_pid,
                       slow_tag=slow_tag)


def kill_mutant(instrumented: InstrumentedLoop, mutant: Mutant,
                report: Any, *, schedule: str = "self") -> Any:
    """Search witness-guided provocations until one kills the mutant.

    The static report steers the search: a race finding names the
    source iteration to delay (so the sink really does read early); a
    deadlock finding first delays the blocked iteration, then tries the
    value-regression pattern -- delay the mutated iteration's
    predecessor at each statement (opening the overtake window in which
    the weakened wait publishes out of order) with a late-arriving
    successor that misses the transient value.  Returns the first
    killing :class:`~repro.analyze.sanitizer.DynamicVerdict`, or the
    last clean one when nothing worked.
    """
    from .sanitizer import dynamic_check

    variants: List[MutatedLoop] = [MutatedLoop(instrumented, mutant)]
    for finding in getattr(report, "races", [])[:3]:
        variants.append(MutatedLoop(
            instrumented, mutant,
            slow_tag=(finding.src_sid, finding.src_lpid)))
    if getattr(report, "deadlocks", []):
        variants.append(MutatedLoop(instrumented, mutant,
                                    slow_pid=report.deadlocks[0].lpid))
        iterations = list(instrumented.iterations)
        prev_pid = mutant.pid - 1
        next_pid = mutant.pid + 1
        if prev_pid in iterations and next_pid in iterations:
            for stmt in instrumented.loop.body:
                variants.append(MutatedLoop(
                    instrumented, mutant,
                    slow_tag=(stmt.sid, prev_pid), slow_pid=next_pid))
    verdict = None
    for variant in variants:
        verdict = dynamic_check(variant, schedule=schedule)
        if verdict.killed:
            return verdict
    return verdict
