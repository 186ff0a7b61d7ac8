"""E-chaos -- graceful degradation under injected hardware faults.

The robustness claim behind the fault layer, as one sweep: for every
synchronization scheme, under every preset fault plan and several seeds,
a run must end in exactly one of

* ``ok`` -- completed and validated against sequential semantics
  (mandatory for the timing-only plans: jitter and stalls are legal
  executions of a correct scheme);
* ``deadlock-diagnosed`` / ``limit-diagnosed`` -- died with a structured
  :class:`HazardReport` naming each blocked task and, when one exists,
  the blocking wait-for cycle;
* ``corruption-detected`` -- the validator caught the damage.

Never a hang, never silent corruption.  The companion zero-overhead
check pins the fault layer's default-off contract: an empty plan must
reproduce the clean run's metrics and trace exactly.

The recovery-contract sweep raises the bar for *recoverable* plans:
with the recovery layer on (broadcast retransmission, task
reincarnation, degraded-mode fallback), every lossy-bus / flaky-rmw /
crash-task run must end ``ok`` -- completed and validated -- and the
zero-overhead pin extends to recovery: configuring a policy on a
clean run changes nothing, because the layer is only constructed when
a fault injector exists.
"""

from __future__ import annotations

from repro.apps.kernels import fig21_loop
from repro.faults import FaultPlan
from repro.faults.chaos import (ACCEPTABLE_OUTCOMES, fault_machine_config,
                                run_classified)
from repro.lab import SweepOptions, SweepSpec, run_sweep
from repro.recovery import RecoveryPolicy
from repro.report import print_table
from repro.schemes import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig

N = 16
P = 4
SEEDS = range(3)
PLANS = ["jitter", "stalls", "lossy-bus", "flaky-rmw", "crashy"]
TIMING_ONLY = {"jitter", "stalls"}
#: plans the recovery layer commits to fully recovering ("crashy" is
#: excluded: random crashes can kill every processor and every rescue,
#: which is a diagnosed death, not a recoverable hazard)
RECOVERABLE = ["lossy-bus", "flaky-rmw", "crash-task"]
RECOVERY_SEEDS = range(5)


def fault_records(plans, seeds, recover=False):
    """Every scheme under ``plans`` x ``seeds`` as one fault-plan sweep
    (the grid ``python -m repro chaos`` builds); records in grid order,
    merged into no store."""
    spec = SweepSpec.build(
        "fault-injection", apps=[("fig2.1", {"n": N, "cost": 8})],
        schemes=scheme_names(), processors=(P,), wait_bounds=(100_000,),
        plans=plans, seeds=seeds, recover=recover)
    return run_sweep(spec, SweepOptions(cache_dir=None)).records


def run_chaos_grid():
    return fault_records(PLANS, SEEDS)


def run_recovery_grid():
    return fault_records(RECOVERABLE, RECOVERY_SEEDS, recover=True)


def _case(record):
    config = record["config"]
    return f"{config['scheme']}/{config['plan']}/seed{config['seed']}"


def _events(counters):
    """Total actions in a counter dict (cycle sums excluded)."""
    return sum(count for key, count in counters.items()
               if not key.endswith("_cycles"))


def test_chaos_sweep_degrades_gracefully(once):
    records = once(run_chaos_grid)
    assert len(records) == 4 * len(PLANS) * len(SEEDS)

    bad = [r for r in records if r["outcome"] not in ACCEPTABLE_OUTCOMES]
    assert not bad, "degradation contract violated: " + "; ".join(
        f"{_case(r)}: {r['outcome']} ({r.get('error')})" for r in bad)

    # timing-only faults are legal executions: they must all validate
    for r in records:
        if r["config"]["plan"] in TIMING_ONLY:
            assert r["outcome"] == "ok", (_case(r), r.get("error"))

    # every diagnosed failure names at least one blocked task, and every
    # cycle-carrying diagnosis names tasks that are actually blocked
    for r in records:
        hazard = r.get("hazard") or {}
        if r["outcome"].endswith("-diagnosed"):
            assert hazard.get("blocked"), _case(r)
        if hazard.get("cycle"):
            assert set(hazard["cycle"]) <= set(hazard["blocked"])

    histogram: dict = {}
    for r in records:
        histogram[r["outcome"]] = histogram.get(r["outcome"], 0) + 1
    assert set(histogram) <= set(ACCEPTABLE_OUTCOMES)
    rows = []
    for r in records:
        config, metrics = r["config"], r["metrics"] or {}
        cycle = (r.get("hazard") or {}).get("cycle")
        detail = (" -> ".join(cycle) if cycle
                  else r.get("error", f"makespan {metrics.get('makespan')}"))
        rows.append([config["scheme"], config["plan"], config["seed"],
                     r["outcome"], _events(metrics.get("faults", {})),
                     detail[:44]])
    print_table(
        ["scheme", "plan", "seed", "outcome", "fault events", "detail"],
        rows,
        title=f"Chaos sweep: 4 schemes x {len(PLANS)} plans x "
              f"{len(SEEDS)} seeds, Fig 2.1 loop, N={N}, P={P} -- "
              + ", ".join(f"{k}={v}" for k, v in sorted(histogram.items())))


def test_recovery_contract_completes_every_recoverable_run(once):
    """Recovery on + recoverable plan => every run completes validated,
    and every plan shows aggregate recovery activity (memory-fabric
    schemes see no broadcasts, so the bound is per plan, not per run)."""
    records = once(run_recovery_grid)
    assert len(records) == 4 * len(RECOVERABLE) * len(RECOVERY_SEEDS)

    bad = [r for r in records if r["outcome"] != "ok"]
    assert not bad, "recovery contract violated: " + "; ".join(
        f"{_case(r)}: {r['outcome']} ({r.get('error')})" for r in bad)

    per_plan = {plan: 0 for plan in RECOVERABLE}
    totals: dict = {}
    for r in records:
        counters = r["metrics"].get("recovery", {})
        per_plan[r["config"]["plan"]] += _events(counters)
        for key, count in counters.items():
            totals[key] = totals.get(key, 0) + count
    for plan, events in per_plan.items():
        assert events > 0, f"plan {plan} exercised no recovery at all"
    # each mechanism fired somewhere in the sweep
    assert totals.get("retransmissions", 0) > 0
    assert totals.get("reincarnations", 0) > 0
    assert totals.get("rmw_retries", 0) > 0

    print_table(
        ["scheme", "plan", "seed", "outcome", "recovery events"],
        [[r["config"]["scheme"], r["config"]["plan"], r["config"]["seed"],
          r["outcome"], _events(r["metrics"].get("recovery", {}))]
         for r in records],
        title=f"Recovery contract: 4 schemes x {len(RECOVERABLE)} "
              f"recoverable plans x {len(RECOVERY_SEEDS)} seeds, all "
              "validated -- "
              + ", ".join(f"{k}={v}" for k, v in sorted(totals.items())
                          if v))


def test_sustained_loss_flips_to_degraded_fallback():
    """A very lossy bus must push a broadcast-fabric scheme into
    shared-memory polling of the home copy (and back out), and the run
    must still validate."""
    instrumented = make_scheme("statement-oriented").instrument(
        fig21_loop(n=N, cost=8))
    machine = Machine(fault_machine_config(
        FaultPlan(name="very-lossy", seed=0, broadcast_loss=0.5),
        recover=True, processors=P, wait_bound=100_000))
    run = run_classified(machine, instrumented)
    assert run.outcome == "ok", run.error
    assert run.result.recovery["fallback_epochs"] >= 1
    assert run.result.recovery["fallback_polls"] > 0


def run_identity_check():
    rows = []
    for name in scheme_names():
        loop = fig21_loop(n=24, cost=8)
        scheme = make_scheme(name)
        clean = Machine(MachineConfig(processors=P)).run(
            scheme.instrument(loop))
        empty = Machine(MachineConfig(processors=P,
                                      fault_plan=FaultPlan())).run(
            scheme.instrument(loop))
        recovery = Machine(MachineConfig(processors=P,
                                         fault_plan=FaultPlan(),
                                         recovery=RecoveryPolicy())).run(
            scheme.instrument(loop))
        rows.append((name, clean, empty, recovery))
    return rows


def test_empty_plan_is_zero_overhead(once):
    """The fault layer must be invisible when unused: an all-zero plan
    reproduces the clean run's metrics and trace byte-for-byte -- with
    or without a recovery policy configured on top of it."""
    for name, clean, empty, recovery in once(run_identity_check):
        for other in (empty, recovery):
            assert clean.makespan == other.makespan, name
            assert clean.summary() == other.summary(), name
            assert [(r.commit, r.kind, r.addr, r.value)
                    for r in clean.trace] \
                == [(r.commit, r.kind, r.addr, r.value)
                    for r in other.trace], name
            assert "faults" not in other.extra, name
            assert other.fault_events == 0
        assert "recovery" not in recovery.extra, name


def test_step_dispatch_is_bound_once():
    """Mechanism behind the zero-overhead pin: the per-step fault probes
    live in a separate ``_step_fault`` method, selected once at engine
    construction.  Without an injector the hot loop steps through
    ``_step_clean``, which carries no ``injector is None`` branch."""
    from repro.faults import FaultInjector
    from repro.sim import (BroadcastSyncFabric, Engine, MemoryConfig,
                           SharedMemory)

    clean = Engine(SharedMemory(MemoryConfig()), BroadcastSyncFabric())
    assert clean._step.__func__ is Engine._step_clean

    faulty = Engine(SharedMemory(MemoryConfig()), BroadcastSyncFabric(),
                    injector=FaultInjector(FaultPlan(seed=1,
                                                     stall_prob=0.5)))
    assert faulty._step.__func__ is Engine._step_fault
