"""A replay with no checkpoint walks exactly the clean op stream.

The recovery layer reschedules a crashed iteration through
``make_replay_process(pid, checkpoint)``; with no journalled
checkpoint the replay must re-run the iteration from the top, op for
op, as ``make_process(pid)`` does.  Every shipped app at its gate size
is instrumented with every scheme and both streams of every iteration
are driven engine-free and compared.

Ops are compared by their observable fields, not by identity: the
process-counter primitives build a fresh ``WaitUntil`` on every call,
so two identical streams hold distinct wait objects.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.analyze.gate import GATE_PARAMS
from repro.analyze.placement import dry_run_task, snapshot_fabric
from repro.depend.graph import DependenceGraph
from repro.lab.apps import APP_BUILDERS, build_app
from repro.schemes import make_scheme, scheme_names

PAIRS = [(app, scheme) for app in sorted(APP_BUILDERS)
         for scheme in scheme_names()]


def _observable(stream: List[Tuple[Any, Any]]) -> List[tuple]:
    return [(type(op).__name__, getattr(op, "var", None),
             getattr(op, "addr", None), repr(getattr(op, "value", None)),
             getattr(op, "reason", None), getattr(op, "cycles", None),
             tag)
            for op, tag in stream]


def _answer_initial(op: Any, pid: int, initial: Any) -> Any:
    return initial


@pytest.mark.parametrize("app,scheme_name", PAIRS,
                         ids=[f"{app}-{scheme}" for app, scheme in PAIRS])
def test_replay_without_checkpoint_is_the_clean_stream(app, scheme_name):
    loop = build_app(app, GATE_PARAMS.get(app, {}))
    instrumented = make_scheme(scheme_name).instrument(
        loop, DependenceGraph(loop))
    initial = snapshot_fabric(instrumented)
    assert instrumented.iterations
    for pid in instrumented.iterations:
        clean = dry_run_task(instrumented.make_process(pid), pid,
                             initial, _answer_initial)
        replay = dry_run_task(instrumented.make_replay_process(pid, None),
                              pid, initial, _answer_initial)
        assert clean, (app, scheme_name, pid)
        assert _observable(replay) == _observable(clean), \
            (app, scheme_name, pid)
