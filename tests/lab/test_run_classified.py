"""``python -m repro chaos`` and sweep fault cells share one runner.

``repro.lab.runner.execute_cell`` runs every fault cell through
``repro.faults.chaos.run_classified``; these tests pin that the chaos
mode's store is the store of the same grid run as a sweep spec, and
that the rule for an undiagnosed hazard reaches sweep records too.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.faults.chaos import ACCEPTABLE_OUTCOMES, run_classified
from repro.faults.watchdog import HazardReport, WaitForGraph
from repro.lab import SweepOptions, SweepSpec, make_spec, run_sweep
from repro.lab.apps import build_app
from repro.lab.record import make_record
from repro.lab.runner import execute_cell
from repro.schemes import make_scheme, scheme_names
from repro.sim import DeadlockError
from repro.sim.machine import Machine, MachineConfig

PLANS = ("lossy-bus", "crash-task", "jitter")


def fault_spec(recover: bool) -> SweepSpec:
    """The chaos mode's default case as a sweep grid."""
    return SweepSpec.build(
        "chaos-parity", apps=[("fig2.1", {"n": 12, "cost": 8})],
        schemes=scheme_names(), processors=(4,), wait_bounds=(100_000,),
        plans=PLANS, seeds=(0,), recover=recover)


@pytest.mark.parametrize("recover", [False, True])
def test_sweep_records_match_chaos_cases(tmp_path, capsys, recover):
    sweep_json, chaos_json = tmp_path / "sweep.json", tmp_path / "chaos.json"
    report = run_sweep(fault_spec(recover),
                       SweepOptions(procs=1, cache_dir=None,
                                    json_path=sweep_json))
    assert len(report.records) == len(scheme_names()) * len(PLANS)
    assert main(["chaos", "--seeds", "1", "--n", "12", "--processors", "4",
                 "--plans", ",".join(PLANS), "--json", str(chaos_json)]
                + (["--recover"] if recover else [])) == 0
    assert f"merged {len(report.records)} record(s)" in \
        capsys.readouterr().out
    assert chaos_json.read_bytes() == sweep_json.read_bytes()


def _empty_report() -> HazardReport:
    return HazardReport(now=0, live_tasks=0, tasks=[],
                        graph=WaitForGraph(), cycle=None)


@pytest.mark.parametrize("report", [None, "empty"])
def test_undiagnosed_deadlock_in_chaos_and_sweep(monkeypatch, capsys,
                                                report):
    hazard = _empty_report() if report == "empty" else None

    def stuck(self, workload):
        raise DeadlockError("stuck without a diagnosis", report=hazard)

    monkeypatch.setattr(Machine, "run", stuck)
    cell = fault_spec(False).cells()[0]
    record = execute_cell(cell.config())
    assert record["key"] == cell.key
    assert record["outcome"] == "deadlock-undiagnosed"
    assert record["outcome"] not in ACCEPTABLE_OUTCOMES
    assert record["error"].startswith("stuck without a diagnosis")
    assert set(record["metrics"]) == {"serial_cycles"}
    # an undiagnosed report has no task rows, so nothing is blocked
    assert record.get("hazard", {}).get("blocked", {}) == {}
    assert ("hazard" in record) == (hazard is not None)

    # the chaos mode names the violation and exits 1
    assert main(["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
                 "--schemes", "process-oriented", "--plans", "jitter"]) == 1
    out = capsys.readouterr().out
    assert "DEGRADATION CONTRACT VIOLATED by 1 run(s)" in out
    assert ("process-oriented / jitter / seed 0: deadlock-undiagnosed -- "
            "stuck without a diagnosis") in out


@pytest.mark.parametrize(
    "cell", make_spec("speedup").cells(), ids=lambda cell: cell.key)
def test_unvalidated_cells_record_the_same_in_both_metrics_modes(cell):
    """A cell that skips validation reads only end-of-run counters, so a
    counters-mode machine must seal the same record as a full one."""
    config = cell.config()
    assert config["validate"] is False
    loop = build_app(config["app"], config["app_params"])
    records = []
    for metrics in ("full", "counters"):
        machine = Machine(MachineConfig(processors=config["processors"],
                                        schedule=config["schedule"],
                                        metrics=metrics))
        instrumented = make_scheme(config["scheme"]).instrument(loop)
        run = run_classified(machine, instrumented, validate=False)
        records.append(make_record(cell.key, config, outcome=run.outcome,
                                   result=run.result,
                                   serial_cycles=loop.serial_cycles()))
    full, counters = records
    assert full["outcome"] == "ok"
    assert full == counters
