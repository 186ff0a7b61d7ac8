"""SweepSpec expansion, validation, presets, and JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.lab import (SweepCell, SweepOptions, SweepSpec, make_spec,
                       run_sweep, sweep_presets)
from repro.lab.apps import app_names, build_app
from repro.schemes import scheme_names


def test_presets_expand_to_valid_cells():
    for name in sweep_presets():
        spec = make_spec(name)
        cells = spec.cells()
        assert cells, name
        # deterministic expansion: same spec, same order
        assert [c.key for c in cells] == [c.key for c in spec.cells()]
        assert len({c.key for c in cells}) == len(cells)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown sweep preset"):
        make_spec("nope")


def test_cells_cross_product():
    spec = SweepSpec.build(
        "cross", apps=[("fig2.1", {"n": 8}), ("fig2.1", {"n": 12})],
        schemes=["process-oriented", "statement-oriented"],
        processors=(2, 4), seeds=(0, 1), wait_bounds=(None, 500))
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 2 * 2 * 2
    assert len({c.key for c in cells}) == len(cells)


def test_spec_validates_apps_and_schemes():
    with pytest.raises(ValueError, match="unknown app"):
        SweepSpec.build("bad", apps=[("nope", {})],
                        schemes=["process-oriented"])
    with pytest.raises(ValueError, match="unknown scheme"):
        SweepSpec.build("bad", apps=[("fig2.1", {"n": 8})],
                        schemes=["nope"])
    with pytest.raises(ValueError, match="empty grid"):
        SweepSpec.build("bad", apps=[], schemes=scheme_names())


def _spec_json(**fields):
    return dict({"name": "bad", "apps": [["fig2.1", {"n": 8}]],
                 "schemes": ["process-oriented"]}, **fields)


@pytest.mark.parametrize("fields, message", [
    ({"schedule": ["cyclic"]}, "unknown spec key(s) schedule"),
    ({"procesors": [4]}, "unknown spec key(s) procesors"),
    ({"processors": []}, "empty processors axis"),
    ({"schedules": []}, "empty schedules axis"),
    ({"seeds": []}, "empty seeds axis"),
    ({"wait_bounds": []}, "empty wait_bounds axis"),
    ({"plans": []}, "empty plans axis"),
    ({"processors": [4, 0]}, "processors 0"),
    ({"processors": [-2]}, "processors -2"),
    ({"schedules": ["bogus"]}, "unknown schedule 'bogus'"),
    ({"plans": [None, "nosuch"]}, "unknown plan 'nosuch'"),
    ({"apps": [["fig2.1", [8]]]}, "app params [8] must map"),
    ({"seeds": ["x"]}, "seed 'x'"),
    ({"seeds": [0, 1.5]}, "seed 1.5"),
    ({"seeds": [True]}, "seed True"),
    ({"wait_bounds": [-5]}, "wait bound -5"),
    ({"wait_bounds": [None, 0]}, "wait bound 0"),
    ({"wait_bounds": ["100"]}, "wait bound '100'"),
    ({"validate": "false"}, "validate 'false'"),
    ({"recover": "no"}, "recover 'no'"),
    ({"eliminate": 1}, "eliminate 1"),
    ({"processors": [True]}, "processors True"),
    ({"apps": [["fig2.1", {"n": "8"}]]},
     "param n='8' of app 'fig2.1' in spec 'bad' must be null or an integer"),
    ({"apps": [["fig2.1", {"n": True}]]}, "param n=True of app 'fig2.1'"),
    ({"apps": [["fig2.1", {"n": [1, 2]}]]}, "param n=[1, 2] of app"),
    ({"apps": [["fig2.1", {"n": {"a": 1}}]]}, "param n={'a': 1} of app"),
    ({"apps": [["fig2.1", {"n": 8.0}]]}, "param n=8.0 of app 'fig2.1'"),
    ({"apps": [["fig2.1", {"bogus": 3}]]},
     "unknown param bogus=3 of app 'fig2.1' in spec 'bad'; known: n, cost"),
    ({"apps": [["fig2.1", {"n": 8}], ["adi", {"k": 2}]]},
     "unknown param k=2 of app 'adi'"),
    # a scalar where a list belongs is named whole, never iterated
    ({"schemes": "process-oriented"},
     "schemes 'process-oriented' in spec 'bad' must be a list"),
    ({"processors": 4}, "processors 4 in spec 'bad' must be a list"),
    ({"seeds": "01"}, "seeds '01' in spec 'bad' must be a list"),
    ({"apps": [["fig2.1"]]},
     "app ['fig2.1'] in spec 'bad' must be an [app, params] pair"),
    ({"apps": {"fig2.1": {}}}, "apps {'fig2.1': {}} in spec 'bad' must be"),
    ({"name": 5}, "name 5 in spec must be a string"),
], ids=lambda value: str(value) if isinstance(value, str) else None)
def test_spec_rejects_bad_outside_input(fields, message):
    """Spec JSON comes from ``sweep --spec FILE.json`` and service
    ``submit``: a bad value is named at construction, before any cell
    runs, instead of falling back to a default or failing per cell."""
    with pytest.raises(ValueError) as info:
        SweepSpec.from_json(_spec_json(**fields))
    assert message in str(info.value)


def _cell_config(**fields):
    return dict({"app": "fig2.1", "app_params": {"n": 8},
                 "scheme": "process-oriented", "processors": 4}, **fields)


@pytest.mark.parametrize("fields, message", [
    ({"procesors": 4}, "unknown cell key(s) procesors"),
    ({"sched": "cyclic"}, "unknown cell key(s) sched"),
    ({"processors": 0}, "processors 0"),
    ({"processors": -1}, "processors -1"),
    ({"app": "nope"}, "unknown app 'nope'"),
    ({"scheme": "nope"}, "unknown scheme 'nope'"),
    ({"schedule": "bogus"}, "unknown schedule 'bogus'"),
    ({"plan": "nope"}, "unknown plan 'nope'"),
    ({"app_params": [8]}, "app params [8] must map"),
    ({"seed": "x"}, "seed 'x'"),
    ({"seed": None}, "seed None"),
    ({"wait_bound": -5}, "wait bound -5"),
    ({"wait_bound": 0}, "wait bound 0"),
    ({"wait_bound": 2.5}, "wait bound 2.5"),
    ({"validate": "false"}, "validate 'false'"),
    ({"recover": 0}, "recover 0"),
    ({"eliminate": "yes"}, "eliminate 'yes'"),
    ({"processors": True}, "processors True"),
    ({"app_params": {"n": "8"}}, "param n='8' of app 'fig2.1' in cell"),
    ({"app_params": {"n": False}}, "param n=False of app 'fig2.1'"),
    ({"app_params": {"n": [1, 2]}}, "param n=[1, 2] of app 'fig2.1'"),
    ({"app_params": {"bogus": 3}}, "unknown param bogus=3 of app 'fig2.1'"),
    ({"app": ["fig2.1"]}, "unknown app ['fig2.1'] in cell"),
    ({"schedule": ["self"]}, "unknown schedule ['self'] in cell"),
    ({"app_params": []}, "app params [] must map"),
], ids=lambda value: str(value) if isinstance(value, str) else None)
def test_cell_config_rejects_bad_outside_input(fields, message):
    """Cell configs come from service ``{"cells": [...]}`` submissions
    and journaled job files: a bad one is refused when it is read, with
    the checks a spec applies, not inside a worker."""
    with pytest.raises(ValueError) as info:
        SweepCell.from_config(_cell_config(**fields))
    assert message in str(info.value)


def test_app_params_may_be_null_or_any_builder_keyword():
    spec = SweepSpec.from_json(_spec_json(apps=[
        ["fig2.1-delay", {"n": 8, "cost": 4, "slow_iteration": 2,
                          "slow_cost": 50}],
        ["example3", {"n": 6, "branch": None}]]))
    assert [app for app, _params in spec.apps] == ["fig2.1-delay",
                                                   "example3"]
    cell = SweepCell.from_config(_cell_config(app_params={"n": None}))
    assert cell.app_params == (("n", None),)


def test_json_boolean_flags_are_taken_as_given():
    spec = SweepSpec.from_json(_spec_json(validate=False, recover=True,
                                          eliminate=True))
    assert (spec.validate, spec.recover, spec.eliminate) == \
        (False, True, True)
    cell = SweepCell.from_config(_cell_config(validate=False))
    assert cell.validate is False


def test_repeated_axis_values_expand_once():
    """A repeated axis value is one grid point, at its first position:
    no cell is simulated twice."""
    spec = SweepSpec.from_json(_spec_json(
        apps=[["fig2.1", {"n": 8}], ["fig2.1", {"n": 8}],
              ["fig2.1", {"n": 10}]],
        schemes=["process-oriented", "statement-oriented",
                 "process-oriented"],
        processors=[4, 2, 4], plans=["jitter", None, "jitter"],
        seeds=[1, 0, 1], wait_bounds=[None, 100, None]))
    assert spec.apps == (("fig2.1", (("n", 8),)), ("fig2.1", (("n", 10),)))
    assert spec.schemes == ("process-oriented", "statement-oriented")
    assert spec.processors == (4, 2)
    assert spec.plans == ("jitter", None)
    assert spec.seeds == (1, 0)
    assert spec.wait_bounds == (None, 100)
    keys = [cell.key for cell in spec.cells()]
    assert len(keys) == len(set(keys)) == 2 * 2 * 2 * 2 * 2 * 2
    written_once = SweepSpec.from_json(_spec_json(
        apps=[["fig2.1", {"n": 8}], ["fig2.1", {"n": 10}]],
        schemes=["process-oriented", "statement-oriented"],
        processors=[4, 2], plans=["jitter", None], seeds=[1, 0],
        wait_bounds=[None, 100]))
    assert spec.cells() == written_once.cells()


def test_grids_without_repeats_expand_as_written():
    for name in sweep_presets():
        spec = make_spec(name)
        cells = spec.cells()
        assert len(cells) == len({cell.key for cell in cells}), name
    two = SweepSpec.build("order", apps=[("fig2.1", {"n": 8})],
                          schemes=["statement-oriented", "process-oriented"],
                          processors=(8, 2))
    assert [(c.scheme, c.processors) for c in two.cells()] == [
        ("statement-oriented", 8), ("statement-oriented", 2),
        ("process-oriented", 8), ("process-oriented", 2)]


@pytest.mark.parametrize("data, message", [
    ([], "spec [] must be an object"),
    (7, "spec 7 must be an object"),
    ({"apps": [["fig2.1", {"n": 8}]], "schemes": ["process-oriented"]},
     "spec is missing required key(s) name"),
], ids=["list", "number", "no-name"])
def test_spec_must_be_an_object_with_a_name(data, message):
    with pytest.raises(ValueError) as info:
        SweepSpec.from_json(data)
    assert message in str(info.value)


def test_cell_config_must_be_an_object():
    for config in ("fig2.1", ["app", "fig2.1"]):
        with pytest.raises(ValueError, match="must be an object"):
            SweepCell.from_config(config)


def test_json_round_trip(tmp_path):
    spec = make_spec("smoke")
    assert SweepSpec.from_json(spec.to_json()) == spec
    assert SweepSpec.from_json(json.dumps(spec.to_json())) == spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    assert SweepSpec.from_json(path) == spec


def test_with_seed_base_shifts_seeds():
    spec = SweepSpec.build("seeded", apps=[("fig2.1", {"n": 8})],
                           schemes=["process-oriented"], seeds=(0, 1))
    shifted = spec.with_seed_base(10)
    assert shifted.seeds == (10, 11)
    assert spec.with_seed_base(0) is spec
    assert {c.seed for c in shifted.cells()} == {10, 11}


def test_cell_key_is_human_readable():
    spec = SweepSpec.build("keys", apps=[("fig2.1", {"n": 8})],
                           schemes=["process-oriented"],
                           processors=(4,), wait_bounds=(250,))
    (cell,) = spec.cells()
    assert cell.key == "fig2.1(n=8)/process-oriented/p4/self/seed0/wait250"


def test_every_registered_app_builds():
    for name in app_names():
        loop = build_app(name, {})
        assert loop.serial_cycles() > 0, name


def test_build_app_rejects_unknown():
    with pytest.raises(ValueError, match="unknown app"):
        build_app("nope", {})


def test_eliminate_flag_round_trips_and_marks_keys():
    spec = SweepSpec.build("elim", apps=[("fold-chain", {"n": 16})],
                           schemes=["statement-oriented"], eliminate=True)
    assert SweepSpec.from_json(spec.to_json()) == spec
    (cell,) = spec.cells()
    assert cell.eliminate
    assert cell.key.endswith("/elim")
    assert cell.config()["eliminate"] is True
    # the comparison preset opts in; a default-built spec does not
    assert make_spec("scheme-comparison").eliminate
    plain = SweepSpec.build("plain", apps=[("fig2.1", {"n": 8})],
                            schemes=["statement-oriented"])
    (cell,) = plain.cells()
    assert not cell.eliminate and "elim" not in cell.key


def test_auto_scheme_runs_through_compiler(tmp_path):
    spec = SweepSpec.build("auto-one", apps=[("fig2.1", {"n": 10})],
                           schemes=["auto"], processors=(2,))
    report = run_sweep(spec, options=SweepOptions(cache_dir=None))
    (record,) = report.records
    assert record["outcome"] == "ok"
    assert record["compile"]["classification"] == "doacross"
    assert record["compile"]["scheme"] in scheme_names()
