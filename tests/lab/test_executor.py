"""The supervised executor contract: retry, timeout, quarantine, resume.

The acceptance bar (pinned here and in the ``executor-chaos`` CI job):
under injected orchestration faults -- worker crashes, hangs, flaky
exceptions, corrupted results -- the merged sweep store is
byte-identical to a fault-free run at any worker count, and a sweep
interrupted mid-flight resumes recomputing zero completed cells.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.__main__ import main
from repro.lab import (CellClaims, ClaimPolicy, ExecutionOutcome,
                       ExecutorChaos, IncompleteSweepError, PoolSupervisor,
                       ResultCache, SweepOptions, SweepSpec, run_sweep)
from repro.lab import runner as runner_module
from repro.lab.executor import backoff_delay


def grid_spec():
    """A 4-cell grid: 2 apps x 2 schemes, cheap enough to retry often."""
    return SweepSpec.build(
        "executor-grid",
        apps=[("fig2.1", {"n": n, "cost": 4}) for n in (10, 14)],
        schemes=["process-oriented", "statement-oriented"],
        processors=(2,))


@pytest.fixture(scope="module")
def clean_bytes(tmp_path_factory):
    """The fault-free merged store, the byte-identity reference."""
    root = tmp_path_factory.mktemp("clean")
    path = root / "clean.json"
    report = run_sweep(grid_spec(), options=SweepOptions(procs=2,
                       cache_dir=root / "cache", json_path=path))
    assert not report.failed
    return path.read_bytes()


# -- retry / backoff determinism --------------------------------------------


def test_backoff_schedule_is_deterministic_and_capped():
    assert backoff_delay(0) == 0.0
    assert backoff_delay(1, base=0.05, cap=2.0) == 0.05
    assert backoff_delay(2, base=0.05, cap=2.0) == 0.10
    assert backoff_delay(3, base=0.05, cap=2.0) == 0.20
    assert backoff_delay(10, base=0.05, cap=2.0) == 2.0
    schedule = [backoff_delay(a) for a in range(1, 8)]
    assert schedule == sorted(schedule)
    assert schedule == [backoff_delay(a) for a in range(1, 8)]


def test_chaos_draws_are_pure_and_order_independent():
    chaos = ExecutorChaos(seed=7, flaky_prob=0.5, crash_prob=0.25)
    keys = [f"cell-{i}" for i in range(32)]
    first = [chaos.draw(key, 0) for key in keys]
    # same draws re-queried in any order, any number of times
    assert [chaos.draw(key, 0) for key in reversed(keys)] == first[::-1]
    # a drawn fault stops firing past fault_attempts
    assert all(chaos.draw(key, 1) is None for key in keys)
    # always_fail fragments fail on every attempt
    sticky = ExecutorChaos(always_fail=("cell-3",))
    assert sticky.draw("cell-3", 99) == "flaky"
    assert sticky.draw("cell-4", 0) is None


def test_chaos_parse_round_trip():
    chaos = ExecutorChaos.parse(
        "crash=0.2,hang=0.1,flaky=0.3,attempts=2,always-fail=frag",
        seed=5)
    assert chaos.seed == 5
    assert chaos.crash_prob == 0.2
    assert chaos.hang_prob == 0.1
    assert chaos.flaky_prob == 0.3
    assert chaos.fault_attempts == 2
    assert chaos.always_fail == ("frag",)
    with pytest.raises(ValueError):
        ExecutorChaos.parse("bogus=1.0")
    with pytest.raises(ValueError):
        ExecutorChaos.parse("crash")
    with pytest.raises(ValueError):
        ExecutorChaos(crash_prob=1.5)


@pytest.mark.parametrize("seconds", ["nan", "inf", "-1"])
def test_chaos_rejects_a_hang_the_worker_cannot_sleep(seconds, capsys):
    """``time.sleep`` raises on nan and inf, which would settle an
    injected hang as an error attempt: only a finite hang >= 0 parses."""
    with pytest.raises(ValueError,
                       match=f"hang_seconds {float(seconds)} must be finite"):
        ExecutorChaos.parse(f"hang=1,hang-seconds={seconds}")
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--spec", "smoke", "--no-cache", "--chaos",
              f"hang=1,hang-seconds={seconds}"])
    assert exit_info.value.code == 2
    assert "hang_seconds" in capsys.readouterr().err


# -- executor semantics, no simulator involved ------------------------------


def _double(item):
    return item * 2


def _fail_on_three(item):
    if item == 3:
        raise ValueError("item 3 always fails")
    return item * 2


def test_inline_path_retries_and_quarantines():
    with PoolSupervisor(_fail_on_three, procs=0, max_retries=1,
                        backoff_base=0.001) as pool:
        outcome = pool.run_batch([1, 2, 3, 4])
    assert outcome.results == {0: 2, 1: 4, 3: 8}
    assert [f.index for f in outcome.failures] == [2]
    assert outcome.failures[0].reason == "error"
    assert outcome.failures[0].attempts == 2
    assert "item 3 always fails" in outcome.failures[0].detail
    assert outcome.attempts[0] == 1 and outcome.attempts[2] == 2


def test_supervised_streams_results_with_index_tags():
    chaos = ExecutorChaos(seed=3, flaky_prob=1.0)
    landed = []
    with PoolSupervisor(_double, procs=2, chaos=chaos,
                        backoff_base=0.001) as pool:
        outcome = pool.run_batch(
            list(range(6)), keys=[f"cell-{i}" for i in range(6)],
            on_result=lambda i, key, r: landed.append((i, r)))
    assert outcome.results == {i: i * 2 for i in range(6)}
    assert not outcome.failures
    # every cell failed its first (injected-flaky) attempt
    assert outcome.retries == 6
    assert sorted(landed) == [(i, i * 2) for i in range(6)]


def test_validate_hook_rejects_bad_results():
    with PoolSupervisor(
            _double, procs=0, max_retries=0,
            validate=lambda result, key: ("too big" if result > 4
                                          else None)) as pool:
        outcome = pool.run_batch([1, 2, 3])
    assert outcome.results == {0: 2, 1: 4}
    assert outcome.failures[0].reason == "bad-result"
    assert outcome.failures[0].detail == "too big"


# -- byte-identity under orchestration faults -------------------------------


@pytest.mark.parametrize("procs", [1, 4, 8])
def test_merged_json_byte_identical_under_faults(tmp_path, clean_bytes,
                                                 procs):
    """Crash + hang + flaky injection must not perturb the store."""
    chaos = ExecutorChaos(seed=11, crash_prob=0.4, hang_prob=0.3,
                          flaky_prob=0.4, hang_seconds=30.0)
    path = tmp_path / f"chaos-{procs}.json"
    report = run_sweep(grid_spec(), options=SweepOptions(procs=procs,
                       cache_dir=tmp_path / f"cache-{procs}", json_path=path,
                       chaos=chaos, cell_timeout=1.0, max_retries=3))
    assert not report.failed
    assert path.read_bytes() == clean_bytes


def test_worker_crash_respawns_and_completes(tmp_path, clean_bytes):
    chaos = ExecutorChaos(seed=1, crash_prob=1.0)
    path = tmp_path / "crash.json"
    report = run_sweep(grid_spec(), options=SweepOptions(procs=2,
                       cache_dir=tmp_path / "cache", json_path=path, chaos=chaos))
    assert not report.failed
    # every cell's first attempt died with the worker
    assert report.notes["retries"] == 4
    assert report.notes["respawns"] >= 4
    assert path.read_bytes() == clean_bytes


def test_corrupted_and_oversized_results_are_retried(tmp_path, clean_bytes):
    for label, chaos in [
            ("corrupt", ExecutorChaos(seed=1, corrupt_prob=1.0)),
            ("oversize", ExecutorChaos(seed=1, oversize_prob=1.0,
                                       oversize_bytes=9 * 2 ** 20))]:
        path = tmp_path / f"{label}.json"
        report = run_sweep(grid_spec(), options=SweepOptions(procs=2,
                           cache_dir=tmp_path / f"cache-{label}", json_path=path,
                           chaos=chaos))
        assert not report.failed, label
        assert report.notes["retries"] == 4, label
        assert path.read_bytes() == clean_bytes, label


# -- per-cell timeout -------------------------------------------------------


def test_hung_worker_is_killed_and_cell_retried(tmp_path, clean_bytes):
    chaos = ExecutorChaos(seed=1, hang_prob=1.0, hang_seconds=60.0)
    path = tmp_path / "hang.json"
    report = run_sweep(grid_spec(), options=SweepOptions(procs=4,
                       cache_dir=tmp_path / "cache", json_path=path, chaos=chaos,
                       cell_timeout=0.8))
    assert not report.failed
    assert report.notes["respawns"] >= 4
    assert path.read_bytes() == clean_bytes


def test_permanent_hang_quarantines_as_timeout(tmp_path):
    spec = SweepSpec.build(
        "one-cell", apps=[("fig2.1", {"n": 10, "cost": 4})],
        schemes=["process-oriented"], processors=(2,))
    chaos = ExecutorChaos(seed=1, hang_prob=1.0, hang_seconds=60.0,
                          fault_attempts=99)
    report = run_sweep(spec, options=SweepOptions(procs=1, cache_dir=tmp_path / "cache",
                       chaos=chaos, cell_timeout=0.5, max_retries=0))
    assert not report.records
    [failure] = report.failed
    assert failure.reason == "timeout"
    assert failure.attempts == 1
    assert "0.5" in failure.detail


# -- quarantine + graceful degradation + resume -----------------------------


def test_quarantine_keeps_rest_of_grid_and_resume_completes(tmp_path,
                                                            clean_bytes):
    cache_dir = tmp_path / "cache"
    path = tmp_path / "store.json"
    chaos = ExecutorChaos(seed=1, always_fail=("statement-oriented",))
    degraded = run_sweep(grid_spec(), options=SweepOptions(procs=2, cache_dir=cache_dir,
                         json_path=path, chaos=chaos, max_retries=1))
    assert degraded.degraded
    assert len(degraded.records) == 2
    assert len(degraded.failed) == 2
    for failure in degraded.failed:
        assert "statement-oriented" in failure.key
        assert failure.attempts == 2
    # the journal survives a degraded run as the durable trail
    journal_files = list((cache_dir / "journal").glob("*.jsonl"))
    assert len(journal_files) == 1
    # successful cells merged, quarantined cells kept out of the store
    merged = json.loads(path.read_text())
    assert len(merged["records"]) == 2

    # resume: the 2 completed cells come from cache, only the 2
    # quarantined cells recompute, and the store converges to the
    # fault-free bytes
    resumed = run_sweep(grid_spec(), options=SweepOptions(procs=2, cache_dir=cache_dir,
                        json_path=path, resume=True))
    assert resumed.hits == 2 and resumed.misses == 2
    assert "resumed" in resumed.notes
    assert not resumed.failed
    assert path.read_bytes() == clean_bytes
    assert not journal_files[0].exists()


def test_interrupt_mid_sweep_preserves_landed_work(tmp_path, clean_bytes):
    cache_dir = tmp_path / "cache"
    seen = []

    def interrupt_after_two(event):
        if event.kind != "cell-done":
            return
        seen.append(event.key)
        if len(seen) == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep(grid_spec(), options=SweepOptions(
            procs=1, cache_dir=cache_dir, chaos=ExecutorChaos(seed=0),
            on_event=interrupt_after_two))
    # the two landed cells were journaled and cached before the
    # interrupt propagated
    journal_files = list((cache_dir / "journal").glob("*.jsonl"))
    assert len(journal_files) == 1

    path = tmp_path / "resumed.json"
    resumed = run_sweep(grid_spec(), options=SweepOptions(procs=2, cache_dir=cache_dir,
                        json_path=path, resume=True))
    assert resumed.hits == 2 and resumed.misses == 2
    assert path.read_bytes() == clean_bytes
    # a fully-successful sweep clears its journal
    assert not journal_files[0].exists()


def test_resume_requires_cache(tmp_path):
    with pytest.raises(ValueError, match="resume"):
        run_sweep(grid_spec(), options=SweepOptions(cache_dir=None, resume=True))


# -- the strict merge guard -------------------------------------------------


def test_lost_cells_raise_typed_error_naming_keys(tmp_path, monkeypatch):
    """A record-less, failure-less cell must fail loudly, never misalign."""
    monkeypatch.setattr(
        runner_module.PoolSupervisor, "run_batch",
        lambda self, items, keys=None, **hooks: ExecutionOutcome())
    with pytest.raises(IncompleteSweepError) as excinfo:
        run_sweep(grid_spec(), options=SweepOptions(procs=1,
                  cache_dir=tmp_path / "cache"))
    assert len(excinfo.value.missing_keys) == 4
    assert "process-oriented" in str(excinfo.value)


# -- the private supervisor of a sweep --------------------------------------


def _spy_supervisors(monkeypatch):
    """Record the worker count of every supervisor a sweep builds, and
    the supervisor each batch runs on."""
    built, batches = [], []
    real_make = runner_module.make_supervisor
    real_run = runner_module.PoolSupervisor.run_batch

    def make(options, procs):
        built.append(procs)
        return real_make(options, procs)

    def run_batch(self, items, *args, **kwargs):
        batches.append(self)
        return real_run(self, items, *args, **kwargs)

    monkeypatch.setattr(runner_module, "make_supervisor", make)
    monkeypatch.setattr(runner_module.PoolSupervisor, "run_batch",
                        run_batch)
    return built, batches


@pytest.mark.parametrize("options, procs", [
    (SweepOptions(procs=1, cache_dir=None), 0),
    (SweepOptions(procs=1, cache_dir=None,
                  chaos=ExecutorChaos(seed=0)), 1),
    (SweepOptions(procs=1, cache_dir=None, cell_timeout=30.0), 1),
    (SweepOptions(procs=2, cache_dir=None), 2),
    (SweepOptions(procs=8, cache_dir=None), 4),
])
def test_sweep_picks_inline_or_workers_once(monkeypatch, options, procs):
    built, batches = _spy_supervisors(monkeypatch)
    report = run_sweep(grid_spec(), options=options)
    assert len(report.records) == 4 and not report.failed
    assert built == [procs]
    assert len(batches) == 1


def test_warm_sweep_builds_no_supervisor(monkeypatch, tmp_path):
    options = SweepOptions(procs=2, cache_dir=tmp_path / "cache")
    run_sweep(grid_spec(), options=options)
    built, _batches = _spy_supervisors(monkeypatch)
    assert run_sweep(grid_spec(), options=options).all_cached
    assert built == []


def test_takeover_batch_reuses_the_sweep_supervisor(monkeypatch, tmp_path):
    """A cell held by another writer past the wait budget is recomputed
    in a second batch on the same private supervisor."""
    cache = ResultCache(tmp_path)
    key = cache.key_for(grid_spec().cells()[0].config())
    foreign = CellClaims(tmp_path, ClaimPolicy(heartbeat_interval=0.05))
    built, batches = _spy_supervisors(monkeypatch)
    try:
        assert foreign.acquire(key)
        report = run_sweep(grid_spec(), options=SweepOptions(
            procs=2, cache=cache, claim_policy=ClaimPolicy(
                heartbeat_interval=0.05, wait_timeout=0.3,
                poll_base=0.05, poll_cap=0.1)))
    finally:
        foreign.close()
    assert report.misses == 4 and not report.failed
    assert report.notes.get("forced") == 1
    assert built == [2]
    assert len(batches) == 2 and batches[0] is batches[1]
    assert multiprocessing.active_children() == []


# -- CLI surface ------------------------------------------------------------


def _write_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(grid_spec().to_json()))
    return spec_path


def test_cli_quarantine_exits_3_with_failures_json(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    failures_path = tmp_path / "failures.json"
    rc = main(["sweep", "--spec", str(spec_path), "--no-cache",
               "--procs", "2", "--chaos", "always-fail=statement-oriented",
               "--max-retries", "0",
               "--failures-json", str(failures_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "DEGRADED" in out
    payload = json.loads(failures_path.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["failures"]) == 2
    assert all("statement-oriented" in failure["key"]
               for failure in payload["failures"])


def test_cli_chaos_run_matches_fault_free_bytes(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    base, chaotic = tmp_path / "base.json", tmp_path / "chaos.json"
    assert main(["sweep", "--spec", str(spec_path), "--no-cache",
                 "--procs", "2", "--json", str(base)]) == 0
    assert main(["sweep", "--spec", str(spec_path), "--no-cache",
                 "--procs", "2", "--json", str(chaotic),
                 "--chaos", "crash=0.5,flaky=0.5", "--chaos-seed", "2",
                 "--max-retries", "3"]) == 0
    assert base.read_bytes() == chaotic.read_bytes()


def test_cli_no_cache_really_disables_the_cache(tmp_path, monkeypatch,
                                                capsys):
    """--no-cache must not fall back to the default cache directory."""
    monkeypatch.chdir(tmp_path)
    spec_path = _write_spec(tmp_path)
    assert main(["sweep", "--spec", str(spec_path), "--no-cache"]) == 0
    assert not (tmp_path / ".repro-cache").exists()


def test_cli_resume_conflicts_with_no_cache(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", "smoke", "--no-cache", "--resume"])


def test_cli_rejects_bad_chaos_spec(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", "smoke", "--chaos", "nope=1"])
