"""Engine microbenchmark harness: ``python -m repro bench-engine``.

Every sweep cell bottoms out in the :mod:`repro.sim.engine` event loop,
so its per-event cost multiplies across the whole lab stack.  This
module measures that cost directly: it expands the named preset grids
(the same ``repro.lab`` specs the sweeps run), simulates every cell
serially, and reports **events per second** -- engine events processed
divided by wall-clock time spent inside ``Machine.run`` -- per preset
and metrics mode.

Results append to a JSON *trajectory* (``BENCH_engine.json`` by
convention): one schema-versioned entry per invocation, so the file
accumulates a performance history across PRs.  Because raw events/sec
is hardware-bound, every entry also records a ``calibration`` score (a
fixed pure-Python workload timed on the same host); the regression
check compares calibration-normalized throughput, so a slower CI
machine does not masquerade as a code regression.

Two metrics modes are measured:

``full``
    ``record_trace=True`` -- the default everywhere; per-access records
    and the event stream are collected.
``counters``
    the opt-in fast path (``metrics="counters"``): only end-of-run
    counters, no per-event collection.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .lab.apps import build_app
from .lab.spec import AUTO_SCHEME, SweepCell, make_spec
from .schemes import make_scheme
from .sim.machine import Machine, MachineConfig

#: bump when the shape of a trajectory entry changes
BENCH_SCHEMA_VERSION = 1

#: presets the default invocation measures (the ISSUE's fig3.x target)
DEFAULT_PRESETS = ("fig3.1", "fig3.2")

DEFAULT_MODES = ("full", "counters")


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


def calibration_score(repeats: int = 3) -> float:
    """Relative speed of this host on a fixed pure-Python workload.

    Returns iterations/second of a deterministic arithmetic loop (best
    of ``repeats``).  Dividing a measured events/sec by this score
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


def bench_presets(presets: Sequence[str] = DEFAULT_PRESETS,
                  modes: Sequence[str] = DEFAULT_MODES,
                  repeats: int = 1) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Measure every preset x mode; return nested result dicts.

    ``results[preset][mode]`` holds ``wall_s`` (best total over
    ``repeats``), ``events``, ``events_per_s``, ``cells`` and
    ``cycles`` (summed simulated makespan).  Event counts are exact and
    deterministic; only the wall clock varies between repeats.
    """
    results: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for preset in presets:
        spec = make_spec(preset)
        cells = [cell for cell in spec.cells()
                 if cell.scheme != AUTO_SCHEME and cell.plan is None]
        results[preset] = {}
        for mode in modes:
            best_wall = float("inf")
            events = cycles = 0
            for _ in range(max(1, repeats)):
                wall = 0.0
                events = cycles = 0
                for cell in cells:
                    cell_wall, cell_events, makespan = _run_cell(cell, mode)
                    wall += cell_wall
                    events += cell_events
                    cycles += makespan
                best_wall = min(best_wall, wall)
            results[preset][mode] = {
                "cells": len(cells),
                "wall_s": round(best_wall, 6),
                "events": events,
                "cycles": cycles,
                "events_per_s": round(events / best_wall, 1),
            }
    return results


def make_entry(presets: Sequence[str] = DEFAULT_PRESETS,
               modes: Sequence[str] = DEFAULT_MODES,
               note: str = "", repeats: int = 1) -> Dict[str, Any]:
    """One schema-versioned trajectory entry for the given grids."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "note": note,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration": round(calibration_score(), 1),
        "presets": bench_presets(presets, modes, repeats=repeats),
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


def check_regression(entry: Dict[str, Any], baseline: Dict[str, Any],
                     min_ratio: float = 0.8) -> List[str]:
    """Compare ``entry`` against the last matching baseline entries.

    For every (preset, mode) the entry measured, find the most recent
    baseline entry that measured the same pair and compare
    *calibration-normalized* events/sec.  Returns a list of regression
    messages (empty: no regression worse than ``min_ratio``).
    """
    problems: List[str] = []
    cal = float(entry["calibration"])
    for preset, by_mode in entry["presets"].items():
        for mode, current in by_mode.items():
            ref = None
            for old in reversed(baseline.get("entries", [])):
                old_modes = old.get("presets", {}).get(preset, {})
                if mode in old_modes:
                    ref = (old_modes[mode], float(old["calibration"]))
                    break
            if ref is None:
                continue
            ref_result, ref_cal = ref
            current_norm = current["events_per_s"] / cal
            ref_norm = ref_result["events_per_s"] / ref_cal
            ratio = current_norm / ref_norm
            if ratio < min_ratio:
                problems.append(
                    f"{preset}/{mode}: normalized events/sec fell to "
                    f"{ratio:.2f}x of baseline "
                    f"({current['events_per_s']:.0f}/s now vs "
                    f"{ref_result['events_per_s']:.0f}/s then; "
                    f"calibration {cal:.0f} vs {ref_cal:.0f})")
    return problems


def format_entry(entry: Dict[str, Any]) -> str:
    """Human-readable table for one trajectory entry."""
    lines = [f"engine bench ({entry['timestamp']}, "
             f"python {entry['python']}, "
             f"calibration {entry['calibration']:.0f})"]
    if entry.get("note"):
        lines[0] += f" -- {entry['note']}"
    lines.append(f"{'preset':<14} {'mode':<9} {'cells':>5} {'events':>9} "
                 f"{'wall s':>8} {'events/s':>10}")
    for preset in sorted(entry["presets"]):
        for mode, r in sorted(entry["presets"][preset].items()):
            lines.append(
                f"{preset:<14} {mode:<9} {r['cells']:>5} {r['events']:>9} "
                f"{r['wall_s']:>8.3f} {r['events_per_s']:>10.0f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro bench-engine``."""
    from .cli import make_parser, add_common_options

    parser = make_parser(
        "repro bench-engine",
        "Measure engine throughput (events/sec) over the preset grids "
        "and append the numbers to a benchmark trajectory.")
    add_common_options(parser)
    parser.add_argument(
        "--preset", action="append", default=None, metavar="NAME",
        help="preset grid to measure (repeatable; default fig3.1 + "
             "fig3.2)")
    parser.add_argument(
        "--mode", action="append", default=None,
        choices=["full", "counters"],
        help="metrics mode to measure (repeatable; default both)")
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="time each preset N times and keep the best wall clock")
    parser.add_argument(
        "--note", default="", metavar="TEXT",
        help="free-form label stored in the trajectory entry")
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="PATH",
        help="compare against the trajectory at PATH and exit non-zero "
             "on a calibration-normalized regression")
    parser.add_argument(
        "--min-ratio", type=float, default=0.8, metavar="R",
        help="regression threshold for --check: fail when normalized "
             "events/sec drops below R x baseline (default 0.8)")
    args = parser.parse_args(argv)

    presets = tuple(args.preset or DEFAULT_PRESETS)
    modes = tuple(args.mode or DEFAULT_MODES)
    entry = make_entry(presets, modes, note=args.note,
                       repeats=args.repeat)
    print(format_entry(entry))

    status = 0
    if args.check is not None:
        baseline = load_trajectory(args.check)
        problems = check_regression(entry, baseline,
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
    sys.exit(main())
