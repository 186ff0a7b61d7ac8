"""The four workloads: seeded grids and the client that runs each one.

Every workload is a closed loop with a single client: the client submits
its next job only after the previous one has returned.  A *job* is one
submission the client waits on -- one ``run_sweep`` call per figure or
app family for the sweep workloads, one service job for
``service-fanout``, and one app's cells for ``race-check``.

The seed changes the inputs without changing how much host work they
take: every app size ``n`` is jittered by at most :data:`JITTER`, and
statement costs are drawn from fixed menus (the engine's event count
does not depend on the cost, only the simulated cycles do).  Grid shape
and cell count never change.  The jitter is kept small because the
benchmark's spread is measured across runs with different seeds: a
+-10% size jitter alone moves a p90 cell latency by about 10%.
"""

from __future__ import annotations

import collections
import hashlib
import json
import pathlib
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.analyze as analyze
import repro.lab.apps as lab_apps
import repro.schemes.registry as registry
from repro.lab import (AUTO_SCHEME, CellDone, CellStarted, SweepOptions,
                       SweepService, SweepSpec, execute_cell, run_sweep)
from repro.sim import Machine, MachineConfig

#: largest relative change the seed makes to an app size
JITTER = 0.02
#: statement-cost menus the seed draws from
COSTS = (8, 10, 12)
KERNEL_COSTS = (24, 30, 36)
FANOUT_COSTS = (4, 8, 12, 16)

#: service-fanout: jobs per pass, and worker processes (nproc on the
#: 2-core host the benchmark was sized on)
FANOUT_JOBS = 56
FANOUT_PROCS = 2

#: race-check: (app, base n) points, each crossed with every scheme and
#: these processor counts
RACE_APPS = (("fig2.1", 1400), ("fold-chain", 700), ("relaxation-loop", 24))
RACE_PROCESSORS = (2, 8, 32)

#: seconds a single job may take before the client gives up on it
JOB_TIMEOUT = 120.0


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_of(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _size(rng: random.Random, n: int) -> int:
    return max(1, round(n * (1 + rng.uniform(-JITTER, JITTER))))


# -- grids -------------------------------------------------------------------

def figures_jobs(seed: int) -> List[SweepSpec]:
    """The standing paper grids, scaled up: one job per figure."""
    rng = _rng("figures", seed)
    schemes = registry.scheme_names()
    fig31 = SweepSpec.build(
        "fig3.1",
        apps=[("fig2.1", {"n": _size(rng, n), "cost": rng.choice(COSTS)})
              for n in (200, 400, 800, 1600)],
        schemes=["reference-based", "instance-based"], processors=(4, 8))
    n, cost = _size(rng, 384), rng.choice(COSTS)
    fig32 = SweepSpec.build(
        "fig3.2",
        apps=[("fig2.1", {"n": n, "cost": cost})]
        + [("fig2.1-delay", {"n": n, "cost": cost, "slow_iteration": n // 3,
                             "slow_cost": slow})
           for slow in (400, 1600, 6400)],
        schemes=["statement-oriented", "process-oriented"],
        processors=(4, 8))
    speedup = SweepSpec.build(
        "speedup",
        apps=[("fig2.1", {"n": _size(rng, 320), "cost": rng.choice(COSTS)})],
        schemes=schemes, processors=(1, 2, 4, 8, 16), validate=False)
    kernels = SweepSpec.build(
        "kernels",
        apps=[(name, {"n": _size(rng, 256), "cost": rng.choice(KERNEL_COSTS)})
              for name in ("hydro", "tridiag", "state", "first-diff",
                           "prefix")]
        + [("adi", {"n": _size(rng, 20), "m": _size(rng, 16),
                    "cost": rng.choice(KERNEL_COSTS)})],
        schemes=[AUTO_SCHEME])
    return [fig31, fig32, speedup, kernels]


def optimizer_jobs(seed: int) -> List[SweepSpec]:
    """The scheme-comparison shape, scaled up: one job per app family."""
    rng = _rng("optimizer", seed)
    families = [("fig2.1", (120, 240, 360)), ("fold-chain", (60, 120, 180)),
                ("example3", (30, 60)), ("relaxation-loop", (12, 16))]
    apps = [[(app, {"n": _size(rng, n), "cost": rng.choice(COSTS)})
             for n in sizes] for app, sizes in families]
    apps.append([(app, {"cost": rng.choice(COSTS)})
                 for app in ("example2", "triple-nested")])
    return [SweepSpec.build(group[0][0], apps=group,
                            schemes=registry.scheme_names(), processors=(8,),
                            eliminate=True)
            for group in apps]


def fanout_jobs(seed: int) -> List[SweepSpec]:
    """Tiny single-app jobs: fig2.1 n in [8, 40) x 4 schemes x P in {2, 4}.

    The sizes are spread evenly over [8, 40) and the seed draws each
    job's cost and the submission order, so every job is a distinct grid
    (a cold pass misses on every cell) and total work does not depend on
    the seed.
    """
    rng = _rng("service-fanout", seed)
    sizes = collections.Counter(8 + (32 * i) // FANOUT_JOBS
                                for i in range(FANOUT_JOBS))
    points = [(n, cost) for n, count in sorted(sizes.items())
              for cost in rng.sample(FANOUT_COSTS, count)]
    rng.shuffle(points)
    return [SweepSpec.build(f"fanout-{index:03d}",
                            apps=[("fig2.1", {"n": n, "cost": cost})],
                            schemes=registry.scheme_names(),
                            processors=(2, 4))
            for index, (n, cost) in enumerate(points)]


@dataclass(frozen=True)
class RaceJob:
    """One app's race-check cells: every (scheme, processors) pair."""

    app: str
    params: Tuple[Tuple[str, Any], ...]
    cells: Tuple[Tuple[str, int], ...]

    @property
    def name(self) -> str:
        return f"{self.app}({','.join(f'{k}={v}' for k, v in self.params)})"


def race_jobs(seed: int) -> List[RaceJob]:
    rng = _rng("race-check", seed)
    cells = tuple((scheme, processors)
                  for scheme in registry.scheme_names()
                  for processors in RACE_PROCESSORS)
    return [RaceJob(app, (("cost", rng.choice(COSTS)), ("n", _size(rng, n))),
                    cells)
            for app, n in RACE_APPS]


def grid(workload: str, seed: int) -> list:
    """The jobs one pass of ``workload`` submits, in order."""
    builders = {"figures": figures_jobs, "optimizer": optimizer_jobs,
                "service-fanout": fanout_jobs, "race-check": race_jobs}
    return builders[workload](seed)


# -- clients -----------------------------------------------------------------

class PassResult:
    """What one timed pass measured and what its checks found."""

    def __init__(self) -> None:
        self.cells = 0
        #: the timed region; ``cold_wall_s`` is the part that simulated
        self.wall_s = 0.0
        self.cold_wall_s = 0.0
        #: (start, end, cell key, job index) of every simulated cell
        self.windows: List[Tuple[float, float, str, int]] = []
        #: (start, end) of every cold job
        self.jobs: List[Tuple[float, float]] = []
        self.records: List[Dict[str, Any]] = []
        #: operations checked (cells, warm cells) and why any failed
        self.attempted = 0
        self.violations: List[str] = []
        self.extra: Dict[str, Any] = {}

    def check(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.violations.append(why)


def _expected_outcomes(record: Dict[str, Any]) -> Tuple[str, ...]:
    # the compiler may legitimately decline to parallelize an auto cell
    if record["config"]["scheme"] == AUTO_SCHEME:
        return ("ok", "serial")
    return ("ok",)


def _check_record(result: PassResult, record: Dict[str, Any]) -> None:
    problems = []
    if record.get("outcome") not in _expected_outcomes(record):
        problems.append(f"outcome {record.get('outcome')!r}")
    column = (record.get("metrics") or {}).get("elimination")
    if column and column.get("supported") and \
            column["sync_ops_after"] > column["sync_ops_before"]:
        problems.append(f"optimizer raised sync ops "
                        f"{column['sync_ops_before']} -> "
                        f"{column['sync_ops_after']}")
    result.check(not problems, f"{record.get('key')}: {'; '.join(problems)}")


def _collect(result: PassResult, report: Any) -> None:
    """Fold one sweep report's records and quarantined cells in."""
    result.cells += len(report.records) + len(report.failed)
    result.records.extend(report.records)
    for record in report.records:
        _check_record(result, record)
    for failure in report.failed:
        result.check(False, f"{failure.key}: quarantined ({failure.reason})")


class _CellClock:
    """Times each cell from its ``cell-start`` to its ``cell-done`` event."""

    def __init__(self, result: PassResult) -> None:
        self.result = result
        self.job = -1
        self._started: Dict[str, float] = {}

    def __call__(self, event: Any) -> None:
        now = time.perf_counter()
        if isinstance(event, CellStarted):
            self._started[event.key] = now
        elif isinstance(event, CellDone):
            start = self._started.pop(event.key)
            self.result.windows.append((start, now, event.key, self.job))


class SweepClient:
    """figures / optimizer: ``run_sweep`` at procs=1 with no cache."""

    procs = 1

    def __init__(self, jobs: Sequence[SweepSpec]) -> None:
        self.jobs = list(jobs)

    def setup(self) -> None:
        pass

    def run(self) -> PassResult:
        result = PassResult()
        clock = _CellClock(result)
        options = SweepOptions(procs=1, cache_dir=None, on_event=clock)
        begin = time.perf_counter()
        for index, spec in enumerate(self.jobs):
            clock.job = index
            start = time.perf_counter()
            report = run_sweep(spec, options)
            result.jobs.append((start, time.perf_counter()))
            _collect(result, report)
        result.wall_s = result.cold_wall_s = time.perf_counter() - begin
        return result

    def close(self) -> None:
        pass


class FanoutClient:
    """service-fanout: one in-process service, a cold pass, a warm pass."""

    procs = FANOUT_PROCS

    def __init__(self, jobs: Sequence[SweepSpec],
                 workdir: pathlib.Path) -> None:
        self.jobs = list(jobs)
        self.workdir = workdir
        self.service: Optional[SweepService] = None
        self.result = PassResult()
        self._clock = _CellClock(self.result)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True)
        self.service = SweepService(SweepOptions(
            procs=FANOUT_PROCS, cache_dir=self.workdir / "cache",
            json_path=self.workdir / "store.json",
            on_event=self._clock)).start()

    def _submit_all(self, clock: Optional[_CellClock]) -> List[Any]:
        reports = []
        for index, spec in enumerate(self.jobs):
            if clock is not None:
                clock.job = index
            start = time.perf_counter()
            reports.append(self.service.submit(spec).result(JOB_TIMEOUT))
            if clock is not None:
                self.result.jobs.append((start, time.perf_counter()))
        return reports

    def run(self) -> PassResult:
        result = self.result
        begin = time.perf_counter()
        cold = self._submit_all(self._clock)
        middle = time.perf_counter()
        # warm cells land as cell-shared events, which the clock ignores
        warm = self._submit_all(None)
        end = time.perf_counter()
        result.wall_s = end - begin
        result.cold_wall_s = middle - begin
        for report in cold:
            _collect(result, report)
        warm_cells = 0
        for spec, before, after in zip(self.jobs, cold, warm):
            warm_cells += len(after.records)
            result.check(after.misses == 0 and after.records == before.records,
                         f"{spec.name}: warm pass differs from cold pass "
                         f"({after.misses} miss(es))")
        store = self.workdir / "store.json"
        result.extra = {
            "warm_cells": warm_cells, "warm_wall_s": end - middle,
            "store_sha256": hashlib.sha256(store.read_bytes()).hexdigest(),
            "store_bytes": store.stat().st_size,
            "cache_bytes": sum(path.stat().st_size for path in
                               (self.workdir / "cache").glob("*.json")),
        }
        return result

    def serial_cell_seconds(self) -> Dict[str, float]:
        """Each cold cell's ``execute_cell`` time, measured in-process."""
        seconds = {}
        for spec in self.jobs:
            for cell in spec.cells():
                start = time.perf_counter()
                execute_cell(cell.config(), cell.key)
                seconds[cell.key] = time.perf_counter() - start
        return seconds

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class RaceClient:
    """race-check: instrument, counters-mode run with the sync tap, check."""

    procs = 1

    def __init__(self, jobs: Sequence[RaceJob]) -> None:
        self.jobs = list(jobs)

    def setup(self) -> None:
        pass

    def run(self) -> PassResult:
        result = PassResult()
        races = 0
        begin = time.perf_counter()
        for index, job in enumerate(self.jobs):
            start = time.perf_counter()
            # module-attribute lookups, so the traced repeat's wrappers
            # see these calls
            loop = lab_apps.build_app(job.app, dict(job.params))
            for scheme, processors in job.cells:
                key = f"{job.name}/{scheme}/p{processors}"
                result.cells += 1
                cell_start = time.perf_counter()
                try:
                    instrumented = registry.make_scheme(scheme).instrument(loop)
                    run = Machine(MachineConfig(
                        processors=processors, metrics="counters",
                        sync_tap=True)).run(instrumented)
                    found = analyze.check_trace(run)
                except Exception as err:  # noqa: BLE001 - a failed cell
                    result.check(False, f"{key}: {type(err).__name__}: {err}")
                    continue
                cell_end = time.perf_counter()
                result.windows.append((cell_start, cell_end, key, index))
                races += len(found)
                result.records.append({"key": key, "metrics": run.summary(),
                                       "tap_events": len(run.tap),
                                       "races": len(found)})
                result.check(not found, f"{key}: {len(found)} race(s)")
            result.jobs.append((start, time.perf_counter()))
        result.wall_s = result.cold_wall_s = time.perf_counter() - begin
        result.extra = {"races": races}
        return result

    def close(self) -> None:
        pass


def make_client(workload: str, seed: int, workdir: pathlib.Path):
    """The client for one pass of ``workload`` over its seeded grid."""
    jobs = grid(workload, seed)
    if workload == "service-fanout":
        return FanoutClient(jobs, workdir)
    if workload == "race-check":
        return RaceClient(jobs)
    return SweepClient(jobs)
