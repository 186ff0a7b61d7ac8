"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.__main__ import (DEMO_SOURCE, build_chaos_parser, build_parser,
                            build_sweep_parser, main)


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


def test_chaos_mode_recover_writes_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "chaos.json"
    assert main(["chaos", "--seeds", "1", "--n", "8", "--processors", "2",
                 "--schemes", "statement-oriented",
                 "--plans", "lossy-bus,crash-task",
                 "--recover", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "[recovery on]" in out
    assert "recovery totals:" in out
    records = json.loads(out_path.read_text())
    assert len(records) == 2
    for record in records:
        assert record["outcome"] == "ok"
        assert "recovery" in record and "recovery_actions" in record
    assert any(sum(r["recovery"].values()) > 0 for r in records)


def test_chaos_mode_rejects_unknown_plan(capsys):
    """A --plans or --schemes typo is a parser error (exit 2) that
    lists the known names, never a traceback."""
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
    """--json/--seed/--procs mean the same thing in every subcommand."""
    for build in (build_parser, build_chaos_parser, build_sweep_parser):
        args = build().parse_args([] if build is not build_parser
                                  else ["--demo"])
        assert args.json is None
        assert args.seed == 0
        assert args.procs == 1
        args = build().parse_args(
            (["--demo"] if build is build_parser else [])
            + ["--json", "out.json", "--seed", "7", "--procs", "3"])
        assert args.json == pathlib.Path("out.json")
        assert args.seed == 7
        assert args.procs == 3


def test_sweep_list(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    for preset in ("fig3.1", "fig3.2", "scheme-comparison", "speedup",
                   "kernels", "smoke"):
        assert preset in out


def test_sweep_requires_spec(capsys):
    with pytest.raises(SystemExit):
        main(["sweep"])
    assert "--spec" in capsys.readouterr().err
    # a bad spec token or executor budget is a parser error (exit 2)
    for argv, message in [
            (["sweep", "--spec", "nosuch"], "unknown sweep preset"),
            (["sweep", "--spec", "missing.json"], "No such file"),
            (["submit", "--spec", "nosuch"], "unknown sweep preset"),
            (["submit", "--spec", "missing.json"], "No such file"),
            (["sweep", "--spec", "smoke", "--max-retries", "-1"],
             "--max-retries: must be >= 0"),
            (["sweep", "--spec", "smoke", "--cell-timeout", "-1"],
             "--cell-timeout: must be > 0"),
            (["serve", "--resume"], "unrecognized arguments: --resume")]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


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
    import json

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
    import json

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
    import json

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
