"""Order-maintenance reference checker: property-tested against brute force.

The OM structure answers ``precedes`` in O(1) from two-word labels; the
reference model here is the obvious O(#tasks)-per-event fine-grained
vector clock that ticks on *every* event and snapshots the full clock
per event.  Hypothesis drives both over randomized fork/join/sync
traces (including the prologue boot rule) and compares every pair of
recorded labels, plus a second differential that runs the full
streaming race check against the sanitizer's vector clocks
(:func:`repro.analyze.check_trace`) on the same random streams.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import check_trace
from repro.analyze.sanitizer import RaceEvent

from .om_reference import OrderMaintenance, check_stream

#: two prologue tasks (exercise the boot rule) + three loop tasks
TASKS = ("init0", "init1", "p0", "p1", "p2")
VARS = ("v0", "v1")
ADDRS = (("A", 0), ("A", 1), ("B", 0))

#: one op: (task index, event kind, variable/address index)
OPS = st.lists(
    st.tuples(st.integers(0, len(TASKS) - 1),
              st.sampled_from(["R", "W", "acq", "rel", "upd"]),
              st.integers(0, 2)),
    min_size=1, max_size=50)

#: realistic prologue structure: every init-task event precedes every
#: loop-task event, as the machine guarantees (it runs each ``init*``
#: task to completion before the loop starts).  The epoch-granularity
#: vector clocks are only contracted to agree with OM on such streams:
#: an init task racing on *after* boot -- impossible in a real trace --
#: would be spuriously ordered by the boot join's epoch snapshot.
PHASED_OPS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1),                  # init tasks
                       st.sampled_from(["R", "W", "acq", "rel", "upd"]),
                       st.integers(0, 2)), max_size=15),
    st.lists(st.tuples(st.integers(2, len(TASKS) - 1),     # loop tasks
                       st.sampled_from(["R", "W", "acq", "rel", "upd"]),
                       st.integers(0, 2)), min_size=1, max_size=40),
).map(lambda phases: phases[0] + phases[1])


class _BruteForce:
    """Fine-grained vector clocks: tick on every event, full snapshots.

    Mirrors the OM semantics directly -- per-task knowledge of others,
    an own-event counter bumped at every recorded event, release
    accumulating (knowledge + own tick) into the variable, acquire
    joining the variable back, and the same prologue boot rule (first
    non-``init`` task joins everything every existing task has done).
    """

    def __init__(self) -> None:
        self.clocks = {}          # task -> knowledge {task: tick}
        self.ticks = {}           # task -> own event counter
        self.var_clocks = {}      # var -> accumulated released clock
        self.booted = False
        self.boot = {}

    def task(self, name):
        if name not in self.clocks:
            if not self.booted and not name.startswith("init"):
                self.booted = True
                for other, clock in self.clocks.items():
                    self._join(self.boot, clock)
                    if self.ticks[other] > self.boot.get(other, 0):
                        self.boot[other] = self.ticks[other]
            self.clocks[name] = dict(self.boot) if self.booted else {}
            self.ticks[name] = 0
        return self.clocks[name]

    @staticmethod
    def _join(into, other):
        for task, tick in other.items():
            if tick > into.get(task, 0):
                into[task] = tick

    def step(self, name):
        """Record one event; return ((name, tick), full snapshot)."""
        self.ticks[name] += 1
        snapshot = dict(self.clocks[name])
        snapshot[name] = self.ticks[name]
        return (name, self.ticks[name]), snapshot

    def acquire(self, name, var):
        self._join(self.clocks[name], self.var_clocks.get(var, {}))

    def release(self, name, var):
        target = self.var_clocks.setdefault(var, {})
        self._join(target, self.clocks[name])
        if self.ticks[name] > target.get(name, 0):
            target[name] = self.ticks[name]

    @staticmethod
    def precedes(a, b):
        """Event a=(task, tick) happens-before event b's snapshot."""
        (task_a, tick_a), (_label_b, snapshot_b) = a, b
        return snapshot_b.get(task_a, 0) >= tick_a


def _replay(ops):
    """Drive OM and brute force through one trace; collect labels.

    Per recorded event: (om_label, bf_label, bf_snapshot).  Sync ops
    follow exactly the shape ``check_stream`` uses: acq = acquire then
    step, rel = step then release, upd = acquire, step, release.
    """
    om = OrderMaintenance()
    bf = _BruteForce()
    events = []
    for task_idx, kind, where in ops:
        name = TASKS[task_idx]
        tid = om.task(name)
        bf.task(name)
        if kind == "acq":
            om.acquire(tid, VARS[where % len(VARS)])
            bf.acquire(name, VARS[where % len(VARS)])
        elif kind == "upd":
            om.acquire(tid, VARS[where % len(VARS)])
            bf.acquire(name, VARS[where % len(VARS)])
        om.step(tid)
        label = om.label(tid)
        bf_label, snapshot = bf.step(name)
        if kind in ("rel", "upd"):
            om.release(tid, VARS[where % len(VARS)])
            bf.release(name, VARS[where % len(VARS)])
        events.append((label, bf_label, snapshot))
    return om, events


@given(OPS)
@settings(max_examples=500, deadline=None)
def test_precedes_matches_brute_force_vector_clocks(ops):
    """O(1) precedes == brute-force clocks, every pair, both ways."""
    om, events = _replay(ops)
    for om_a, bf_a, _snap_a in events:
        for om_b, bf_b, snap_b in events:
            expected = _BruteForce.precedes(bf_a, (bf_b, snap_b))
            assert om.precedes(om_a, om_b) == expected, (
                f"precedes({bf_a}, {bf_b}): om says "
                f"{om.precedes(om_a, om_b)}, clocks say {expected}")


@given(PHASED_OPS)
@settings(max_examples=200, deadline=None)
def test_streaming_check_agrees_with_vector_clock_oracle(ops):
    """check_stream and check_trace: same races, same order."""
    events = []
    for seq, (task_idx, kind, where) in enumerate(ops):
        place = (ADDRS[where % len(ADDRS)] if kind in ("R", "W")
                 else VARS[where % len(VARS)])
        events.append((seq, kind, place, TASKS[task_idx]))

    class Tapped:  # a run whose sync tap recorded exactly ``events``
        tap = [(kind, where, task) for _seq, kind, where, task in events]

    om_races = [RaceEvent(*race) for race in check_stream(events)]
    assert om_races == check_trace(Tapped())


def test_update_is_acquire_step_release():
    """om.update composes the primitives (API-level sanity)."""
    om = OrderMaintenance()
    p0, p1 = om.task("p0"), om.task("p1")
    write = (om.step(p0), om.label(p0))[1]
    om.step(p0)
    om.release(p0, "v")
    om.update(p1, "v")           # acquires p0's release
    after_update = om.label(p1)
    assert om.precedes(write, after_update)
    om.step(p0)
    assert not om.precedes(om.label(p0), after_update)


def test_unreleased_acquire_is_a_noop():
    om = OrderMaintenance()
    p0, p1 = om.task("p0"), om.task("p1")
    om.step(p0)
    a = om.label(p0)
    om.acquire(p1, "never-released")
    om.step(p1)
    assert not om.precedes(a, om.label(p1))


def test_boot_rule_orders_prologue_before_loop_tasks():
    """Everything init tasks did precedes every loop task's events."""
    om = OrderMaintenance()
    init = om.task("init0")
    om.step(init)
    init_label = om.label(init)
    loop_task = om.task("p0")          # triggers the boot join
    om.step(loop_task)
    assert om.precedes(init_label, om.label(loop_task))
    # but later init work is NOT implied
    om.step(init)
    assert not om.precedes(om.label(init), om.label(loop_task))
