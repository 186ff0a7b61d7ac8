"""``python -m repro analyze``: the CLI face of the static analyzer."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import build_parser, main
from repro.analyze import ANALYZE_SCHEMA_VERSION, AnalysisReport


def test_gate_mode_passes_on_the_shipped_placements(capsys):
    assert main(["analyze", "--gate"]) == 0
    out = capsys.readouterr().out
    assert "0 failing" in out
    assert "fig2.1/statement-oriented" in out
    # the dynamic cross-check runs by default
    assert "dynamically cross-checked" in out
    assert "[dynamic: clean]" in out


def test_gate_mode_writes_versioned_reports(tmp_path, capsys):
    path = tmp_path / "gate.json"
    assert main(["analyze", "--gate", "--app", "fig2.1",
                 "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == ANALYZE_SCHEMA_VERSION
    assert len(payload["reports"]) == 4
    report = AnalysisReport.from_json(
        payload["reports"]["fig2.1/statement-oriented"])
    assert report.clean
    assert set(payload["dynamic"].values()) == {"clean"}
    capsys.readouterr()
    # --static-only skips the dynamic cross-check, as in pair mode
    assert main(["analyze", "--gate", "--app", "fig2.1", "--static-only",
                 "--json", str(path)]) == 0
    assert json.loads(path.read_text())["dynamic"] == {}
    assert "dynamically" not in capsys.readouterr().out


def test_pair_mode_with_elimination_and_findings_json(tmp_path, capsys):
    path = tmp_path / "optimization.json"
    assert main(["analyze", "--app", "fig2.1",
                 "--scheme", "statement-oriented", "--optimize",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "farthest-first baseline" in out
    assert "identical final state" in out
    payload = json.loads(path.read_text())
    assert payload["dropped"], "dropped arcs belong in the report JSON"
    assert payload["validation"]["final_state_identical"] is True


def test_optimize_json_keeps_the_dynamic_cross_check(tmp_path, capsys):
    """--json only writes results: with --optimize it must not skip the
    dynamic cross-check or change the exit code."""
    argv = ["analyze", "--app", "fig2.1", "--scheme", "statement-oriented",
            "--optimize"]
    path = tmp_path / "optimization.json"
    runs = []
    for extra in ([], ["--json", str(path)]):
        code = main(argv + extra)
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("dynamic cross-check")]
        runs.append((code, verdicts))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 1 and "agrees" in runs[0][1][0]
    # the JSON is still the optimization report
    assert json.loads(path.read_text())["dropped"]


def test_pair_mode_requires_app_and_scheme(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--app", "fig2.1"])
    assert "--gate" in capsys.readouterr().err
    # bad outside input is a parser error (exit 2), never a traceback
    for argv, message in [
            (["--app", "fig2.1", "--scheme", "statement-oriented",
              "--param", "n=abc"], "bad --param"),
            (["--app", "fig2.1", "--scheme", "statement-oriented",
              "--param", "bogus=3"], "bogus"),
            (["--app", "nosuch", "--scheme", "statement-oriented"],
             "unknown app"),
            (["--app", "fig2.1", "--scheme", "nosuch"], "unknown scheme"),
            (["--gate", "--app", "nosuch"], "unknown app"),
            (["--app", "fig2.1", "--scheme", "statement-oriented",
              "--processors", "0"], "--processors: must be > 0"),
            # a window of 0 or below unrolls nothing: "clean" is unsound
            (["--app", "fig2.1", "--scheme", "statement-oriented",
              "--window", "0", "--static-only"], "--window: must be > 0"),
            (["--app", "fig2.1", "--scheme", "statement-oriented",
              "--window", "-3", "--static-only"],
             "--window: must be > 0")]:
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze"] + argv)
        assert exit_info.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_param_overrides_the_gate_size(capsys):
    assert main(["analyze", "--app", "fig2.1",
                 "--scheme", "reference-based", "--param", "n=8",
                 "--static-only"]) == 0
    assert "window=" in capsys.readouterr().out


def test_analyze_parser_has_the_common_trio():
    args = build_parser("analyze").parse_args([])
    assert args.json is None and args.seed == 0 and args.procs == 1
    args = build_parser("analyze").parse_args(
        ["--json", "out.json", "--seed", "7", "--procs", "3"])
    assert args.json == pathlib.Path("out.json")
    assert args.seed == 7 and args.procs == 3


def test_sweep_preflight_and_elimination_column(tmp_path, capsys):
    spec = tmp_path / "mini.json"
    spec.write_text(json.dumps({
        "name": "mini",
        "apps": [["fig2.1", {"n": 12}]],
        "schemes": ["statement-oriented"],
        "eliminate": True,
    }))
    store = tmp_path / "sweeps.json"
    assert main(["sweep", "--spec", str(spec), "--no-cache",
                 "--preflight", "--json", str(store)]) == 0
    records = json.loads(store.read_text())["records"]
    (record,) = records.values()
    assert record["key"].endswith("/elim")
    elimination = record["metrics"]["elimination"]
    assert elimination["supported"] is True
    assert elimination["sync_ops_after"] < elimination["sync_ops_before"]
    assert elimination["dropped"]
