"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import DEMO_SOURCE, MODES, build_parser, main

#: the modes taking the --json/--seed/--procs trio, with their --procs
#: default
TRIO_MODES = {None: 1, "chaos": 1, "sweep": 1, "serve": 2, "analyze": 1,
              "doctor": 1}


def test_demo_runs(capsys):
    assert main(["--demo", "--processors", "4"]) == 0
    out = capsys.readouterr().out
    assert "doacross" in out
    assert "<== chosen" in out
    assert "validated against sequential semantics" in out
    assert "#=compute" in out


def test_file_input(tmp_path, capsys):
    source = tmp_path / "loop.f"
    source.write_text("DO I = 1, N\n  A(I) = A(I-1)\nEND DO\n")
    assert main([str(source), "--bind", "N=20",
                 "--processors", "2"]) == 0
    out = capsys.readouterr().out
    assert "loop 'loop'" in out


def test_forced_scheme(capsys):
    assert main(["--demo", "--scheme", "statement-oriented",
                 "--processors", "2"]) == 0
    out = capsys.readouterr().out
    assert "forced by caller" in out


def test_serial_loop_reports_and_exits(tmp_path, capsys):
    source = tmp_path / "serial.f"
    # A(2*I) vs A(I): non-constant distance -> serial classification
    source.write_text("DO I = 1, 9\n  A(I) = ...\n  B(I) = A(2*I)\n"
                      "END DO\n")
    assert main([str(source)]) == 0
    out = capsys.readouterr().out
    assert "runs serially" in out


def test_bad_bind_rejected(tmp_path, capsys):
    for binding in ("oops", "N=abc", "=3"):
        with pytest.raises(SystemExit) as exit_info:
            main(["--demo", "--bind", binding])
        assert exit_info.value.code == 2
        assert "NAME=VALUE" in capsys.readouterr().err
    # the other run-mode inputs are parser errors too, never tracebacks
    for argv, message in [
            (["--processors", "0"], "--processors: must be > 0"),
            (["--timeline-width", "0"], "--timeline-width: must be > 0"),
            (["--scheme", "nosuch"], "--scheme: invalid choice: 'nosuch'"),
            (["--procs", "0"], "--procs: must be > 0"),
            (["--bind", "N=0"], "empty loop bounds"),
            (["--program", "--bind", "N=0"], "empty loop bounds")]:
        with pytest.raises(SystemExit) as exit_info:
            main(["--demo"] + argv)
        assert exit_info.value.code == 2, argv
        assert message in capsys.readouterr().err, argv
    unparsable = tmp_path / "bad.f"
    unparsable.write_text("A(I) = B(I)\n")
    for argv, message in [
            ([str(unparsable)], "statement outside any DO loop"),
            ([str(unparsable), "--program"], "unterminated DO nest"),
            ([str(tmp_path / "missing.f")], "cannot read")]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_missing_source_rejected(capsys):
    assert main([]) == 2
    assert "--demo" in capsys.readouterr().err


def test_objective_and_schedule_flags(capsys):
    assert main(["--demo", "--objective", "storage",
                 "--schedule", "cyclic", "--processors", "2"]) == 0
    out = capsys.readouterr().out
    assert "cyclic scheduling" in out


def test_parser_defaults():
    args = build_parser().parse_args(["--demo"])
    assert args.processors == 8
    assert args.objective == "time"
    assert args.schedule == "self"


def test_demo_source_is_fig21():
    assert "A(I+3)" in DEMO_SOURCE
    assert DEMO_SOURCE.count(":") == 5


def test_chaos_mode_smoke(capsys):
    assert main(["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
                 "--schemes", "process-oriented",
                 "--plans", "jitter,lossy-bus"]) == 0
    out = capsys.readouterr().out
    assert "chaos sweep" in out
    assert "degradation contract holds" in out
    assert "process-oriented" in out


CHAOS_PIN_ARGV = ["chaos", "--schemes", "statement-oriented,process-oriented",
                  "--plans", "jitter,lossy-bus,crash-task", "--seeds", "2",
                  "--n", "8", "--processors", "2"]

CHAOS_PIN_STDOUT = {False: """
chaos sweep: 2 scheme(s) x 3 plan(s) x 2 seed(s) on 2 processors
scheme              plan        seed  outcome             detail
------------------  ----------  ----  ------------------  ------------------------------------------------
statement-oriented  jitter      0     ok                  makespan 430
statement-oriented  jitter      1     ok                  makespan 437
statement-oriented  lossy-bus   0     deadlock-diagnosed  cycle: cpu0
statement-oriented  lossy-bus   1     deadlock-diagnosed  cycle: cpu1
statement-oriented  crash-task  0     deadlock-diagnosed  cycle: cpu0
statement-oriented  crash-task  1     deadlock-diagnosed  cycle: cpu0
process-oriented    jitter      0     ok                  makespan 425
process-oriented    jitter      1     ok                  makespan 440
process-oriented    lossy-bus   0     ok                  makespan 337
process-oriented    lossy-bus   1     ok                  makespan 338
process-oriented    crash-task  0     deadlock-diagnosed  bounded wait expired: task 'cpu0' spent over 100
process-oriented    crash-task  1     deadlock-diagnosed  bounded wait expired: task 'cpu0' spent over 100

outcomes: deadlock-diagnosed=6, ok=6
degradation contract holds: every run validated or died with a diagnosed structured error
""", True: """
chaos sweep: 2 scheme(s) x 3 plan(s) x 2 seed(s) on 2 processors [recovery on]
scheme              plan        seed  outcome  detail
------------------  ----------  ----  -------  ------------
statement-oriented  jitter      0     ok       makespan 430
statement-oriented  jitter      1     ok       makespan 437
statement-oriented  lossy-bus   0     ok       makespan 347
statement-oriented  lossy-bus   1     ok       makespan 326
statement-oriented  crash-task  0     ok       makespan 334
statement-oriented  crash-task  1     ok       makespan 334
process-oriented    jitter      0     ok       makespan 425
process-oriented    jitter      1     ok       makespan 440
process-oriented    lossy-bus   0     ok       makespan 339
process-oriented    lossy-bus   1     ok       makespan 340
process-oriented    crash-task  0     ok       makespan 346
process-oriented    crash-task  1     ok       makespan 346

outcomes: ok=12
recovery totals: reclaimed_iterations=4, recovery_overhead_cycles=78, \
reincarnations=4, retransmissions=6
degradation contract holds: every run validated or died with a diagnosed structured error
"""}


@pytest.mark.parametrize("recover", [False, True])
def test_chaos_mode_stdout_is_pinned(capsys, recover):
    """The chaos table, outcome histogram, recovery totals, verdict and
    exit code of a fixed grid, byte for byte."""
    argv = CHAOS_PIN_ARGV + (["--recover"] if recover else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == CHAOS_PIN_STDOUT[recover]


def test_chaos_mode_recover_writes_json(tmp_path, capsys):
    out_path = tmp_path / "chaos.json"
    assert main(["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
                 "--schemes", "statement-oriented",
                 "--plans", "lossy-bus,crash-task",
                 "--recover", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "[recovery on]" in out
    assert "recovery totals:" in out
    assert f"merged 2 record(s) into {out_path}" in out
    records = list(json.loads(out_path.read_text())["records"].values())
    assert len(records) == 2
    for record in records:
        assert record["outcome"] == "ok"
        assert record["config"]["recover"] is True
        # a completed run keeps its counters; only a death lists actions
        assert "recovery" in record["metrics"] and "hazard" not in record
    assert any(sum(r["metrics"]["recovery"].values()) > 0 for r in records)


def test_chaos_mode_runs_a_repeated_plan_once(tmp_path, capsys):
    out_path = tmp_path / "chaos.json"
    assert main(["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
                 "--schemes", "process-oriented", "--plans", "jitter,jitter",
                 "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "1 scheme(s) x 1 plan(s)" in out
    assert f"merged 1 record(s) into {out_path}" in out
    assert len(json.loads(out_path.read_text())["records"]) == 1


@pytest.mark.parametrize("flag, value", [("validate", "false"),
                                         ("recover", "no"),
                                         ("eliminate", 1)])
def test_sweep_spec_flag_must_be_a_json_boolean(tmp_path, capsys, flag,
                                                value):
    spec_path = tmp_path / "flag.json"
    spec_path.write_text(json.dumps({
        "name": "flag", "apps": [["fig2.1", {"n": 8}]],
        "schemes": ["process-oriented"], flag: value}))
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--spec", str(spec_path), "--no-cache"])
    assert exit_info.value.code == 2
    assert f"{flag} {value!r}" in capsys.readouterr().err


def test_chaos_json_is_identical_at_any_worker_count(tmp_path, capsys):
    """The store a chaos grid writes is the same bytes whether its cells
    ran inline or on supervised workers."""
    stores = []
    for procs in ("1", "2"):
        stores.append(tmp_path / f"chaos-{procs}.json")
        assert main(CHAOS_PIN_ARGV + ["--recover", "--procs", procs,
                                      "--json", str(stores[-1])]) == 0
    out = capsys.readouterr().out
    assert out.count("merged 12 record(s)") == 2
    assert stores[0].read_bytes() == stores[1].read_bytes()


def test_chaos_mode_quarantines_a_raising_cell(monkeypatch, capsys):
    """A cell that raises is quarantined, as in ``sweep``: the other
    cells still report, and the mode exits 3 without a verdict."""
    from repro.lab import runner

    real = runner.execute_cell

    def flaky(config, key=None):
        if config["plan"] == "lossy-bus":
            raise RuntimeError("injected cell failure")
        return real(config, key)

    monkeypatch.setattr(runner, "execute_cell", flaky)
    assert main(["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
                 "--schemes", "process-oriented",
                 "--plans", "jitter,lossy-bus"]) == 3
    out = capsys.readouterr().out
    assert "outcomes: ok=1" in out
    assert "DEGRADED: 1 cell(s) raised and were quarantined:" in out
    assert "injected cell failure" in out
    assert "degradation contract holds" not in out


@pytest.mark.parametrize("mode", ["chaos", "sweep"])
def test_unreadable_json_store_is_exit_2(tmp_path, capsys, mode):
    """A --json store that is not a record store is refused with exit 2
    and left as it was."""
    store = tmp_path / "store.json"
    store.write_text('{"records": {')
    argv = (["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
             "--schemes", "process-oriented", "--plans", "jitter"]
            if mode == "chaos" else ["sweep", "--spec", "smoke",
                                     "--no-cache"])
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--json", str(store)])
    assert excinfo.value.code == 2
    assert f"record store {store} is unreadable" in capsys.readouterr().err
    assert store.read_text() == '{"records": {'


def test_chaos_mode_rejects_unknown_plan(monkeypatch, capsys):
    """A --plans or --schemes typo is a parser error (exit 2) that
    lists the known names, never a traceback, and no cell runs."""
    import repro.lab

    def never(*_args, **_kwargs):
        raise AssertionError("a sweep ran despite an unknown name")

    monkeypatch.setattr(repro.lab, "run_sweep", never)
    for flag, name, expected in (
            ("--plans", "nope", "unknown fault plan 'nope'; known:"),
            ("--schemes", "bogus", "unknown scheme 'bogus'; known:")):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--seeds", "1", flag, name])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert expected in err
        assert "process-oriented" in err or "jitter" in err
    for flag in ("--processors", "--n", "--seeds"):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", flag, "0"])
        assert excinfo.value.code == 2
        assert f"{flag}: must be > 0" in capsys.readouterr().err
    # no mode can run on zero or fewer workers
    for mode in ("chaos", "sweep"):
        for value in ("0", "-2"):
            with pytest.raises(SystemExit) as excinfo:
                main([mode, "--procs", value])
            assert excinfo.value.code == 2
            assert "--procs: must be > 0" in capsys.readouterr().err


def test_common_options_uniform_across_modes():
    """--json/--seed/--procs mean the same thing in every mode that
    takes them."""
    for mode, procs in TRIO_MODES.items():
        required = ["--demo"] if mode is None else []
        args = build_parser(mode).parse_args(required)
        assert args.json is None, mode
        assert args.seed == 0, mode
        assert args.procs == procs, mode
        args = build_parser(mode).parse_args(
            required + ["--json", "out.json", "--seed", "7", "--procs", "3"])
        assert args.json == pathlib.Path("out.json"), mode
        assert args.seed == 7, mode
        assert args.procs == 3, mode
    # no other table-built mode takes the trio
    for mode, entry in MODES.items():
        if entry.options is not None:
            assert ("--procs" in build_parser(mode).format_help()) == \
                (mode in TRIO_MODES), mode


@pytest.mark.parametrize("mode", ["bench-engine", "bench-analyze"])
def test_bench_modes_take_the_common_trio(monkeypatch, tmp_path, mode):
    """The bench modes parse their own arguments, trio included."""
    from repro import bench

    monkeypatch.setattr(bench, "engine_cases", lambda *a, **k: {})
    monkeypatch.setattr(bench, "analyze_cases", lambda *a, **k: {})
    monkeypatch.setattr(bench, "calibration_score", lambda: 1.0)
    out = tmp_path / "trajectory.json"
    assert main([mode, "--json", str(out), "--seed", "7",
                 "--procs", "3"]) == 0
    assert json.loads(out.read_text())["entries"][0]["cases"] == {}


def test_sweep_list(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    for preset in ("fig3.1", "fig3.2", "scheme-comparison", "speedup",
                   "kernels", "smoke"):
        assert preset in out


def test_sweep_requires_spec(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sweep"])
    assert "--spec" in capsys.readouterr().err
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({
        "name": "bad", "apps": [["fig2.1", {"n": 8}]],
        "schemes": ["process-oriented"], "schedules": ["bogus"]}))
    # a bad spec token or executor budget is a parser error (exit 2)
    for argv, message in [
            (["sweep", "--spec", "nosuch"], "unknown sweep preset"),
            (["sweep", "--spec", "missing.json"], "No such file"),
            (["submit", "--spec", "nosuch"], "unknown sweep preset"),
            (["submit", "--spec", "missing.json"], "No such file"),
            # a bad value inside a spec file is named before any cell runs
            (["sweep", "--spec", str(bad_spec), "--no-cache"],
             "unknown schedule 'bogus'"),
            (["sweep", "--spec", "smoke", "--max-retries", "-1"],
             "--max-retries: must be >= 0"),
            (["sweep", "--spec", "smoke", "--cell-timeout", "-1"],
             "--cell-timeout: must be > 0"),
            # with no cache every cell is a miss: the check cannot pass
            (["sweep", "--spec", "smoke", "--assert-cached", "--no-cache"],
             "--assert-cached needs every cell served from the cache"),
            (["serve", "--resume"], "unrecognized arguments: --resume")]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("params, message", [
    ({"n": "8"}, "param n='8' of app 'fig2.1'"),
    ({"n": True}, "param n=True of app 'fig2.1'"),
    ({"n": [1, 2]}, "param n=[1, 2] of app 'fig2.1'"),
    ({"n": {"a": 1}}, "param n={'a': 1} of app 'fig2.1'"),
    ({"bogus": 3}, "unknown param bogus=3 of app 'fig2.1'"),
], ids=["string", "bool", "list", "object", "unknown-name"])
def test_sweep_rejects_bad_app_params_before_any_cell(tmp_path, capsys,
                                                      monkeypatch, params,
                                                      message):
    """An app param the builder does not take, or a value that is not an
    integer or null, is exit 2 from ``sweep`` before any cell runs."""
    import repro.lab.runner as runner_module

    def no_cell(*_args, **_kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(runner_module, "execute_grid", no_cell)
    spec = tmp_path / "params.json"
    spec.write_text(json.dumps({"name": "params",
                                "apps": [["fig2.1", params]],
                                "schemes": ["process-oriented"]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--spec", str(spec), "--no-cache"])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


_SPEC = {"name": "bad", "apps": [["fig2.1", {"n": 8}]],
         "schemes": ["process-oriented"]}


@pytest.mark.parametrize("body, message", [
    ([], "spec [] must be an object"),
    (7, "spec 7 must be an object"),
    ({"apps": _SPEC["apps"], "schemes": _SPEC["schemes"]},
     "spec is missing required key(s) name"),
    (dict(_SPEC, name=5), "name 5 in spec must be a string"),
    (dict(_SPEC, schemes="process-oriented"),
     "schemes 'process-oriented' in spec 'bad' must be a list"),
    (dict(_SPEC, processors=4), "processors 4 in spec 'bad' must be a list"),
    (dict(_SPEC, seeds="01"), "seeds '01' in spec 'bad' must be a list"),
    (dict(_SPEC, apps=[["fig2.1"]]), "app ['fig2.1'] in spec 'bad'"),
    (dict(_SPEC, apps={"fig2.1": {}}), "apps {'fig2.1': {}} in spec 'bad'"),
], ids=["list", "number", "no-name", "int-name", "scalar-schemes",
        "scalar-processors", "string-seeds", "short-app", "object-apps"])
def test_sweep_spec_file_names_its_bad_key_or_value(tmp_path, capsys,
                                                    monkeypatch, body,
                                                    message):
    """A spec file of the wrong shape is exit 2 naming the offending key
    or value, before any cell runs."""
    import repro.lab

    def never(*_args, **_kwargs):
        raise AssertionError("a sweep ran despite a bad spec")

    monkeypatch.setattr(repro.lab, "run_sweep", never)
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(body))
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--spec", str(spec), "--no-cache"])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_bench_rejects_inputs_that_disable_the_gate(capsys):
    """``--min-ratio`` <= 0 would make ``--check`` unable to fail and
    ``--repeat`` <= 0 would silently run once: both are parser errors,
    rejected before any case is timed."""
    for mode in ("bench-engine", "bench-analyze"):
        for flag, value in [("--min-ratio", "0"), ("--min-ratio", "-1"),
                            ("--repeat", "0"), ("--repeat", "-1")]:
            argv = [mode, flag, value]
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv
            assert f"{flag}: must be > 0" in capsys.readouterr().err, argv


def test_sweep_cold_then_warm(tmp_path, capsys):
    cache = tmp_path / "cache"
    store = tmp_path / "sweeps.json"
    argv = ["sweep", "--spec", "smoke", "--cache-dir", str(cache),
            "--json", str(store)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 hit(s), 8 miss(es)" in out
    assert "merged 8 record(s)" in out
    first = store.read_bytes()

    # warm: every cell a cache hit, byte-identical merged store
    assert main(argv + ["--assert-cached"]) == 0
    out = capsys.readouterr().out
    assert "8 hit(s), 0 miss(es)" in out
    assert store.read_bytes() == first
    records = json.loads(store.read_text())["records"]
    assert len(records) == 8
    assert all(r["outcome"] == "ok" for r in records.values())


def test_sweep_assert_cached_fails_cold(tmp_path, capsys):
    assert main(["sweep", "--spec", "smoke", "--cache-dir",
                 str(tmp_path / "cache"), "--assert-cached"]) == 1
    assert "--assert-cached: FAILED" in capsys.readouterr().out


def test_sweep_spec_file_and_seed_base(tmp_path, capsys):
    from repro.lab import SweepSpec

    spec = SweepSpec.build("filed", apps=[("fig2.1", {"n": 8, "cost": 4})],
                           schemes=["process-oriented"], processors=(2,))
    spec_path = tmp_path / "filed.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    assert main(["sweep", "--spec", str(spec_path), "--no-cache",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "filed" in out
    assert "cache: disabled" in out
    # --seed shifts every cell's seed, exactly like the chaos mode
    assert " 5 " in out


def test_program_mode(tmp_path, capsys):
    source = tmp_path / "prog.f"
    source.write_text("""
DO I = 1, N
  A(I) = ...
END DO
DO I = 2, N
  B(I) = A(I) + B(I-1)
END DO
""")
    assert main([str(source), "--program", "--bind", "N=12",
                 "--processors", "2"]) == 0
    out = capsys.readouterr().out
    assert "2-loop program" in out
    assert "validated" in out


def test_doctor_absent_cache_is_a_clean_no_op(tmp_path, capsys):
    assert main(["doctor", "--cache-dir", str(tmp_path / "nope")]) == 0
    assert "nothing to diagnose" in capsys.readouterr().out


def test_doctor_inject_diagnose_repair_cycle(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["sweep", "--spec", "smoke", "--cache-dir",
                 str(cache)]) == 0
    capsys.readouterr()
    assert main(["doctor", "--cache-dir", str(cache)]) == 0
    assert "healthy" in capsys.readouterr().out

    # injected damage: the dry run reports it and exits non-zero
    assert main(["doctor", "--cache-dir", str(cache), "--seed", "3",
                 "--inject", "bit-flips=2,truncations=1"]) == 1
    out = capsys.readouterr().out
    assert "injected bit-flips: 2 file(s)" in out
    assert "NEEDS REPAIR" in out

    # --repair quarantines and exits 0, with a machine-readable report
    report_path = tmp_path / "doctor.json"
    assert main(["doctor", "--cache-dir", str(cache), "--repair",
                 "--json", str(report_path)]) == 0
    assert "repaired" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["counts"]["corrupt"] == 3
    assert report["counts"]["quarantined"] == 3

    # the store is clean again, and the next sweep re-pays exactly
    # the damaged cells
    assert main(["doctor", "--cache-dir", str(cache)]) == 0
    assert "healthy" in capsys.readouterr().out
    assert main(["sweep", "--spec", "smoke", "--cache-dir",
                 str(cache)]) == 0
    assert "5 hit(s), 3 miss(es)" in capsys.readouterr().out


def test_doctor_rejects_bad_inject_spec(tmp_path, capsys):
    (tmp_path / "cache").mkdir()
    with pytest.raises(SystemExit):
        main(["doctor", "--cache-dir", str(tmp_path / "cache"),
              "--inject", "bogus=1"])
    assert "bad --inject spec" in capsys.readouterr().err


def test_service_client_verbs(tmp_path, capsys):
    """``submit`` / ``status`` / ``watch`` / ``cancel`` against an
    in-process service, and exit 2 with no service listening."""
    from repro.lab import ServiceServer, SweepOptions, SweepService

    socket_path = str(tmp_path / "svc.sock")
    options = SweepOptions(procs=1, cache_dir=tmp_path / "cache")
    with SweepService(options) as service, \
            ServiceServer(service, socket_path):
        assert main(["submit", "--spec", "smoke", "--socket", socket_path,
                     "--watch"]) == 0
        out = capsys.readouterr().out
        job = out.split()[0]
        assert out.startswith(f"{job}  smoke  (8 cell(s))")
        assert f"[{job}] done: 0 hit(s), 8 simulated, 0 failed" in out

        assert main(["status", "--socket", socket_path]) == 0
        out = capsys.readouterr().out
        assert "sweep service at" in out and "1 job(s)" in out
        assert job in out and "done" in out

        assert main(["watch", job, "--socket", socket_path]) == 0
        assert f"[{job}] done:" in capsys.readouterr().out

        assert main(["cancel", job, "--socket", socket_path]) == 0
        assert f"{job}: already finished" in capsys.readouterr().out

    missing = str(tmp_path / "nobody.sock")
    for argv in (["submit", "--spec", "smoke"], ["status"],
                 ["watch", "job-000001"], ["cancel", "job-000001"]):
        assert main(argv + ["--socket", missing]) == 2, argv
        assert "service error" in capsys.readouterr().err, argv
