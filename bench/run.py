"""End-to-end sweep benchmark: run workloads, check them, report metrics.

Usage::

    python3 bench/run.py [--seed N] [--out DIR]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs: at least three untraced
repeats each, then one traced repeat.  The command prints every metric
by name with its unit, the exact simulated counts, and the per-layer
ledger; writes ``DIR/results.json`` (the input of ``compare.py``) and
``DIR/trace-<workload>.json``; and exits 1 if any check failed.

With ``--workload`` one workload runs: untraced repeats until at least
``--seconds`` have passed (and at least three), plus, with ``--trace
1``, one traced repeat.  The last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) of BENCHMARK.json, and the exit code is 0: the
line reports failed checks in ``correct`` and ``failed``.

Every repeat runs in a fresh child interpreter (``child.py``), one at a
time; this process only waits for them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import stats

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = stats.ROOT
WORKLOADS = ("figures", "optimizer", "service-fanout", "race-check")
MIN_REPEATS = 3
#: the whole command must end within this many seconds per workload
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(workload: str, seed: int, trace: bool, out: pathlib.Path,
              deadline: float) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed),
         repr(spawned), "1" if trace else "0", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        # the child's own pool workers share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: repeat exceeded the time budget")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: repeat exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out: pathlib.Path) -> Dict[str, Any]:
    """Untraced repeats until ``seconds`` have passed (at least
    :data:`MIN_REPEATS`), then an optional traced repeat."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    untraced = []
    while len(untraced) < MIN_REPEATS or time.monotonic() - start < seconds:
        untraced.append(run_child(workload, seed, False, out, deadline))
    traced = run_child(workload, seed, True, out, deadline) if trace else None
    return summarize(workload, untraced, traced)


def summarize(workload: str, untraced: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Metrics, exact counts and checks of one workload's repeats.

    Rates take the best repeat: interference from other tenants of a
    shared host only ever slows a repeat down, and on the 2-core host
    the benchmark was built on, the best repeat moved less from run to
    run than the median one (see README.md).  Latency percentiles pool
    the cells (jobs) of every repeat.  Set-up time and memory are
    medians.
    """
    everyone = untraced + ([traced] if traced else [])
    events = [r["counts"] and r["counts"]["events"] for r in untraced]
    # metric -> its value in each repeat
    measured: Dict[str, Any] = {
        "setup_s": [r["setup_s"] for r in untraced],
        "cells_per_s": [r["cells"] / r["cold_wall_s"] for r in untraced],
        "sim_events_per_s": [None if count is None
                             else count / r["cold_wall_s"]
                             for count, r in zip(events, untraced)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    if "warm_cells" in untraced[0]:
        measured["warm_cells_per_s"] = [r["warm_cells"] / r["warm_wall_s"]
                                        for r in untraced]
    reported = {name: (None if None in values
                       else max(values) if name.endswith("_per_s")
                       else statistics.median(values))
                for name, values in measured.items()}
    samples = {name: len(values) for name, values in measured.items()}
    for field in ("cell_ms", "job_ms"):
        latencies = [r[field] for r in untraced]
        pool = [value for values in latencies for value in values]
        for q in (50, 90):
            name = f"{field}_p{q}"
            measured[name] = [stats.percentile(values, q)
                              for values in latencies]
            reported[name] = stats.percentile(pool, q)
            samples[name] = len(pool)

    # checks: each cell of each repeat, then agreement across repeats
    attempted = sum(r["attempted"] for r in everyone)
    violations = [f"repeat {i}: {why}" for i, r in enumerate(everyone)
                  for why in r["violations"]]
    first = everyone[0]
    agree = ["records_sha256", "counts"]
    if "store_sha256" in first:
        agree.append("store_sha256")
    for report in everyone[1:]:
        for key in agree:
            attempted += 1
            if report[key] != first[key]:
                violations.append(f"{key} differs between repeats")
    attempted += 1
    if first["counts"] is None:
        violations.append("engine events could not be counted")

    table = stats.metric_table()
    metrics = {name: {"value": reported[name], "unit": table[name]["unit"],
                      "samples": samples[name], "repeats": measured[name]}
               for name in table if name in measured}
    metrics["failed_frac"] = {"value": len(violations) / attempted,
                              "unit": "ratio", "samples": attempted,
                              "repeats": [len(violations) / attempted]}

    per_layer = None
    if traced is not None:
        per_layer = dict(traced["per_layer"])
        typical = statistics.median([r["wall_s"] for r in untraced])
        per_layer["trace.overhead_frac"] = traced["wall_s"] / typical - 1
    counts = dict(first["counts"] or {})
    counts["races"] = first.get("races", 0)
    if traced is not None:
        counts["trials"] = traced["per_layer"]["analyze.optimize.trials"]
    return {"workload": workload, "seed": first["seed"],
            "repeats": len(untraced), "traced": traced is not None,
            "metrics": metrics, "per_layer": per_layer,
            "records_sha256": first["records_sha256"],
            "store_sha256": first.get("store_sha256"), "counts": counts,
            "attempted": attempted, "violations": violations}


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_summary(summary: Dict[str, Any]) -> None:
    name = summary["workload"]
    print(f"== {name} (seed {summary['seed']}, {summary['repeats']} "
          f"untraced repeat(s){', 1 traced' if summary['traced'] else ''})")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:<20} {_fmt(entry['value']):>14} "
              f"{entry['unit']:<9} n={entry['samples']}")
    print(f"  records_sha256 {summary['records_sha256']}")
    if summary["store_sha256"]:
        print(f"  store_sha256   {summary['store_sha256']}")
    print("  counts " + " ".join(f"{key}={value}" for key, value
                                 in sorted(summary["counts"].items())))
    if summary["per_layer"]:
        print("  per-layer (traced repeat):")
        for metric, value in summary["per_layer"].items():
            print(f"    {metric:<36} {_fmt(value)}")
    for why in summary["violations"]:
        print(f"  FAILED: {why}")


def driver_line(summary: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line JSON result for a single workload."""
    spec = stats.benchmark_spec()
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {
                "value": summary["per_layer"][entry["name"]],
                "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": summary["metrics"][entry["name"]]["value"],
                "unit": entry["unit"]}
    failed = len(summary["violations"])
    return {"correct": failed == 0, "attempted": summary["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure each workload for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=pathlib.Path, default=BENCH / "out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        summaries = [measure(name, args.seed, args.seconds,
                             bool(args.trace), args.out) for name in names]
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    for summary in summaries:
        print_summary(summary)
    if args.workload:
        # the result line carries the checks in ``correct`` and ``failed``
        print(json.dumps(driver_line(summaries[0], bool(args.trace))))
        return 0
    results = args.out / "results.json"
    results.write_text(json.dumps(
        {"seed": args.seed, "workloads": {s["workload"]: s
                                          for s in summaries}},
        indent=1) + "\n")
    print(f"results: {results}")
    return 1 if any(summary["violations"] for summary in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
