"""The chaos sweep's fan-out: the spec decoder checks every scheme and
fault-plan name as it builds the grid, so a typo never reaches a sweep
cell."""

from __future__ import annotations

import pytest

import repro.lab
from repro.__main__ import main


@pytest.mark.parametrize("field, name, message", [
    ("schemes", "nope", "unknown scheme 'nope'"),
    ("plans", "bogus", "unknown plan 'bogus'"),
])
def test_unknown_names_rejected_before_fan_out(monkeypatch, capsys, field,
                                               name, message):
    def never(*_args, **_kwargs):
        raise AssertionError("a sweep ran despite an unknown name")

    monkeypatch.setattr(repro.lab, "run_sweep", never)
    argv = ["chaos", "--seeds", "1", "--schemes", "process-oriented",
            "--plans", "jitter", f"--{field}", name]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
