"""Benchmark harness: ``python -m repro bench-engine`` / ``bench-analyze``.

Two commands share one trajectory, calibration and regression core.

``bench-engine`` measures the :mod:`repro.sim.engine` event loop, which
every sweep cell bottoms out in: it expands the named preset grids (the
same ``repro.lab`` specs the sweeps run), simulates every cell serially,
and reports **events per second** -- engine events processed divided by
wall-clock time spent inside ``Machine.run`` -- per preset and metrics
mode (``full``: ``record_trace=True``, the default everywhere;
``counters``: the opt-in fast path with only end-of-run counters).

``bench-analyze`` measures the analysis stack's inner loops: race
sanitizer throughput (events checked per second) on counters-mode
traces recorded through the engine's sync tap, at a ladder of trace
sizes so the trajectory pins the *scaling*, and the placement optimizer
end to end on a few standing loops (candidates scored per second).

Results append to a JSON *trajectory* (``BENCH_engine.json`` /
``BENCH_analyze.json`` by convention): one schema-versioned entry per
invocation, so the file accumulates a performance history.  Every case
is keyed by a stable label (``<preset>/<mode>``,
``sanitize/<app>/n=<n>/vc`` or ``optimize/<app>/<scheme>``) and carries
a host ``calibration`` score (a fixed pure-Python workload) taken right
after its timing samples.  The regression check compares each case
against the most recent baseline entry measuring the same label and
flags it only when **both** raw and calibration-normalized throughput
drop: a genuine code regression shows up in both, while a slow CI
machine or a burst of host load moves only one of the two.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .analyze.gate import GATE_PARAMS
from .analyze.optimize import optimize
from .analyze.sanitizer import check_trace, event_stream
from .depend.graph import DependenceGraph
from .lab.apps import build_app
from .lab.spec import AUTO_SCHEME, SweepCell, make_spec
from .schemes import make_scheme
from .sim.machine import Machine, MachineConfig

#: bump when the shape of a trajectory entry changes
BENCH_SCHEMA_VERSION = 1

#: presets ``bench-engine`` measures by default (the fig3.x grids)
DEFAULT_PRESETS = ("fig3.1", "fig3.2")

DEFAULT_MODES = ("full", "counters")

#: the app whose counters-mode trace feeds the sanitizer ladder
#: (fig2.1 x statement-oriented: ~19 tap events per iteration)
SANITIZER_APP = "fig2.1"
SANITIZER_SCHEME = "statement-oriented"

#: trace-size ladder per --scale; "full" tops out past 10^6 events,
#: which is the point the committed trajectory pins
SANITIZER_SIZES: Dict[str, Sequence[int]] = {
    "small": (4_000, 16_000),
    "full": (4_000, 16_000, 60_000),
}

#: (app, scheme) pairs the optimizer is timed on, at GATE_PARAMS sizes
OPTIMIZER_CASES = (
    ("fig2.1", "statement-oriented"),
    ("fold-chain", "process-oriented"),
    ("example3", "process-oriented"),
)


def calibration_score(repeats: int = 3) -> float:
    """Relative speed of this host on a fixed pure-Python workload.

    Returns iterations/second of a deterministic arithmetic loop (best
    of ``repeats``).  Dividing a measured throughput by this score
    yields a hardware-normalized throughput, comparable across hosts.
    """
    n = 200_000
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    assert acc  # keep the loop honest
    return n / best


def _case(kind: str, size: Dict[str, int], work: int,
          wall: float) -> Dict[str, Any]:
    """One measured case, calibrated on the spot."""
    return dict(size, kind=kind, wall_s=round(wall, 6),
                score_per_s=round(work / wall, 1),
                calibration=round(calibration_score(), 1))


# -- bench-engine ------------------------------------------------------------

def _run_cell(cell: SweepCell, mode: str) -> Tuple[float, int, int]:
    """Simulate one grid cell; return (wall seconds, events, makespan).

    Only ``Machine.run`` is timed -- instrumentation and graph building
    are front-end cost, not engine cost.  Validation is skipped for the
    same reason (it replays the trace, it does not run the engine).
    """
    loop = build_app(cell.app, dict(cell.app_params))
    scheme = make_scheme(cell.scheme)
    machine = Machine(MachineConfig(
        processors=cell.processors, schedule=cell.schedule,
        record_trace=(mode == "full"), metrics=mode))
    instrumented = scheme.instrument(loop)
    if cell.wait_bound is not None:
        instrumented.bound_waits(cell.wait_bound)
    start = time.perf_counter()
    result = machine.run(instrumented)
    wall = time.perf_counter() - start
    events = int(machine.last_run_info["events_processed"])
    return wall, events, result.makespan


def engine_cases(presets: Sequence[str] = DEFAULT_PRESETS,
                 modes: Sequence[str] = DEFAULT_MODES,
                 repeats: int = 1) -> Dict[str, Dict[str, Any]]:
    """Measure every preset x mode as ``<preset>/<mode>`` cases.

    Each case holds ``wall_s`` (best total over ``repeats``),
    ``events``, ``cells``, ``cycles`` (summed simulated makespan) and
    ``score_per_s`` (events per second).  Event counts are exact and
    deterministic; only the wall clock varies between repeats.
    """
    cases: Dict[str, Dict[str, Any]] = {}
    for preset in presets:
        cells = [cell for cell in make_spec(preset).cells()
                 if cell.scheme != AUTO_SCHEME and cell.plan is None]
        for mode in modes:
            best_wall = float("inf")
            events = cycles = 0
            for _ in range(max(1, repeats)):
                runs = [_run_cell(cell, mode) for cell in cells]
                best_wall = min(best_wall, sum(run[0] for run in runs))
                events = sum(run[1] for run in runs)
                cycles = sum(run[2] for run in runs)
            cases[f"{preset}/{mode}"] = _case(
                "engine", {"cells": len(cells), "events": events,
                           "cycles": cycles}, events, best_wall)
    return cases


# -- bench-analyze -----------------------------------------------------------

class _Stream:
    """RunResult stand-in: a pre-built stream re-checked per repeat."""

    def __init__(self, events: List[Any]) -> None:
        self.tap = [(kind, where, task) for _seq, kind, where, task
                    in events]
        self.trace: List[Any] = []
        self.sync_trace: List[Any] = []


def _record_stream(n: int) -> _Stream:
    """One counters-mode run of the ladder app, as a re-checkable tap."""
    loop = build_app(SANITIZER_APP, {"n": n})
    machine = Machine(MachineConfig(processors=8, metrics="counters",
                                    sync_tap=True))
    result = machine.run(make_scheme(SANITIZER_SCHEME).instrument(loop))
    return _Stream(event_stream(result))


def analyze_cases(scale: str = "small",
                  repeats: int = 1) -> Dict[str, Dict[str, Any]]:
    """Measure the sanitizer ladder and the optimizer cases.

    Sanitizer cases report ``events``, ``races`` and ``score_per_s``
    (events checked per second, best of ``repeats``); their labels keep
    the ``/vc`` suffix the committed trajectory was recorded under.
    Optimizer cases report ``candidates`` (audit-trail length) and
    ``score_per_s`` (candidates scored per second).  Race and candidate
    counts are deterministic; only the wall clock varies.
    """
    cases: Dict[str, Dict[str, Any]] = {}
    for n in SANITIZER_SIZES[scale]:
        stream = _record_stream(n)
        best = float("inf")
        races = 0
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            races = len(check_trace(stream))
            best = min(best, time.perf_counter() - start)
        events = len(stream.tap)
        cases[f"sanitize/{SANITIZER_APP}/n={n}/vc"] = _case(
            "sanitizer", {"events": events, "races": races}, events, best)
    for app, scheme_name in OPTIMIZER_CASES:
        loop = build_app(app, GATE_PARAMS.get(app, {}))
        graph = DependenceGraph(loop)
        best = float("inf")
        candidates = 0
        # optimizer runs are tens of milliseconds: batch several calls
        # per timed sample so timer granularity and allocator state do
        # not swamp the measurement, then report the per-call average
        inner = 5
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for _ in range(inner):
                report = optimize(loop, make_scheme(scheme_name),
                                  graph=graph, app=app)
            best = min(best, (time.perf_counter() - start) / inner)
            candidates = len(report.audit)
        cases[f"optimize/{app}/{scheme_name}"] = _case(
            "optimizer", {"candidates": candidates}, candidates, best)
    return cases


# -- the shared trajectory core ----------------------------------------------

def make_entry(cases: Dict[str, Dict[str, Any]],
               note: str = "") -> Dict[str, Any]:
    """One schema-versioned trajectory entry around measured cases."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "note": note,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration": round(calibration_score(), 1),
        "cases": cases,
    }


def load_trajectory(path: pathlib.Path) -> Dict[str, Any]:
    """Read a trajectory file; an absent file is an empty trajectory."""
    if not path.exists():
        return {"schema_version": BENCH_SCHEMA_VERSION, "entries": []}
    data = json.loads(path.read_text())
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema "
            f"{data.get('schema_version')!r}")
    return data


def append_entry(path: pathlib.Path, entry: Dict[str, Any]) -> None:
    """Append ``entry`` to the trajectory at ``path`` (atomic rewrite)."""
    data = load_trajectory(path)
    data["entries"].append(entry)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def entry_cases(entry: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """An entry's results as ``{label: case}``.

    Engine entries recorded before the two harnesses merged nest their
    results as ``presets[preset][mode]`` with an ``events_per_s`` score;
    they read as ``<preset>/<mode>`` cases.
    """
    if "cases" in entry:
        return entry["cases"]
    return {f"{preset}/{mode}": dict(result,
                                     score_per_s=result["events_per_s"])
            for preset, by_mode in entry.get("presets", {}).items()
            for mode, result in by_mode.items()}


def check_regression(entry: Dict[str, Any], baseline: Dict[str, Any],
                     min_ratio: float = 0.8) -> List[str]:
    """Compare ``entry`` against the last matching baseline entries.

    For every case label the entry measured, find the most recent
    baseline entry that measured the same label and compare both raw
    and *calibration-normalized* throughput (per-case calibration when
    recorded, the entry-wide score otherwise).  A case regresses only
    when **both** ratios fall below ``min_ratio``.  Returns regression
    messages (empty: nothing fell below ``min_ratio`` of baseline).
    """
    problems: List[str] = []
    cal = float(entry["calibration"])
    for label, current in entry_cases(entry).items():
        ref = None
        for old in reversed(baseline.get("entries", [])):
            old_cases = entry_cases(old)
            if label in old_cases:
                ref = (old_cases[label], float(old["calibration"]))
                break
        if ref is None:
            continue
        ref_case, ref_cal = ref
        cur_cal = float(current.get("calibration", cal))
        ref_case_cal = float(ref_case.get("calibration", ref_cal))
        raw_ratio = current["score_per_s"] / ref_case["score_per_s"]
        norm_ratio = ((current["score_per_s"] / cur_cal)
                      / (ref_case["score_per_s"] / ref_case_cal))
        if max(raw_ratio, norm_ratio) < min_ratio:
            problems.append(
                f"{label}: throughput fell to {raw_ratio:.2f}x raw / "
                f"{norm_ratio:.2f}x normalized of baseline "
                f"({current['score_per_s']:.0f}/s now vs "
                f"{ref_case['score_per_s']:.0f}/s then; calibration "
                f"{cur_cal:.0f} vs {ref_case_cal:.0f})")
    return problems


def format_entry(entry: Dict[str, Any], title: str = "bench") -> str:
    """Human-readable table for one trajectory entry."""
    lines = [f"{title} ({entry['timestamp']}, python {entry['python']}, "
             f"calibration {entry['calibration']:.0f})"]
    if entry.get("note"):
        lines[0] += f" -- {entry['note']}"
    lines.append(f"{'case':<42} {'size':>9} {'wall s':>9} "
                 f"{'score/s':>11}")
    cases = entry_cases(entry)
    for label in sorted(cases):
        case = cases[label]
        size = case.get("events", case.get("candidates", 0))
        lines.append(f"{label:<42} {size:>9} {case['wall_s']:>9.3f} "
                     f"{case['score_per_s']:>11.0f}")
    return "\n".join(lines)


def main(command: str = "bench-engine",
         argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro bench-engine|bench-analyze``."""
    from .cli import add_common_options, make_parser, positive

    engine = command == "bench-engine"
    parser = make_parser(
        f"repro {command}",
        ("Measure engine throughput (events/sec) over the preset grids"
         if engine else "Measure sanitizer throughput (events/sec) and "
         "optimizer wall-clock") + ", appending to a benchmark trajectory.")
    add_common_options(parser)
    if engine:
        parser.add_argument(
            "--preset", action="append", default=None, metavar="NAME",
            help="preset grid to measure (repeatable; default fig3.1 + "
                 "fig3.2)")
        parser.add_argument(
            "--mode", action="append", default=None,
            choices=["full", "counters"],
            help="metrics mode to measure (repeatable; default both)")
    else:
        parser.add_argument(
            "--scale", choices=sorted(SANITIZER_SIZES), default="small",
            help="trace-size ladder: 'small' for CI, 'full' adds the "
                 ">=10^6-event top rung (default small)")
    parser.add_argument(
        "--repeat", type=positive(), default=1, metavar="N",
        help="time each case N times and keep the best wall clock")
    parser.add_argument(
        "--note", default="", metavar="TEXT",
        help="free-form label stored in the trajectory entry")
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="PATH",
        help="compare against the trajectory at PATH and exit non-zero "
             "on a regression")
    parser.add_argument(
        "--min-ratio", type=positive(float), default=0.8, metavar="R",
        help="regression threshold for --check: fail when raw and "
             "normalized throughput both drop below R x baseline "
             "(default 0.8)")
    args = parser.parse_args(argv)

    if engine:
        cases = engine_cases(tuple(args.preset or DEFAULT_PRESETS),
                             tuple(args.mode or DEFAULT_MODES),
                             repeats=args.repeat)
    else:
        cases = analyze_cases(args.scale, repeats=args.repeat)
    entry = make_entry(cases, note=args.note)
    print(format_entry(entry, title=command.replace("-", " ")))

    status = 0
    if args.check is not None:
        problems = check_regression(entry, load_trajectory(args.check),
                                    min_ratio=args.min_ratio)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            status = 1
        else:
            print("regression check: ok "
                  f"(threshold {args.min_ratio:.2f}x, "
                  f"baseline {args.check})")
    if args.json is not None:
        append_entry(args.json, entry)
        print(f"appended entry to {args.json}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main("bench-engine", sys.argv[1:]))
