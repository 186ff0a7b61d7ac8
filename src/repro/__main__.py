"""Command-line interface: compile and simulate a DO loop.

Usage::

    python -m repro LOOP.f [options]
    python -m repro --demo
    python -m repro chaos [chaos options]
    python -m repro sweep --spec NAME --procs 8 --json BENCH_sweeps.json
    python -m repro serve --procs 8 --json BENCH_sweeps.json
    python -m repro submit --spec fig3.1 --watch
    python -m repro status | watch [JOB] | cancel JOB
    python -m repro analyze --app fig2.1 --scheme statement-oriented
    python -m repro analyze --gate
    python -m repro doctor [--repair] [--json PATH]
    python -m repro bench-engine --json BENCH_engine.json
    python -m repro bench-analyze --json BENCH_analyze.json

Reads a mini-Fortran ``DO`` nest (see :mod:`repro.frontend`), runs the
full pipeline -- dependence analysis, classification, doacross-delay
analysis, scheme selection, simulation, validation -- and prints the
compilation report, the run metrics, and a processor timeline.

The other modes drive the rest of the reproduction: ``chaos`` sweeps
seeded fault plans across the schemes and checks the degradation
contract (:mod:`repro.faults`); ``sweep`` runs the declarative
benchmark grids and ``doctor`` checks their shared store
(:mod:`repro.lab`); ``serve`` keeps a sweep service resident, with
``submit`` / ``status`` / ``watch`` / ``cancel`` as its client verbs;
``analyze`` verifies sync placements statically and dynamically
(:mod:`repro.analyze`); ``bench-engine`` and ``bench-analyze`` measure
throughput against a committed trajectory (:mod:`repro.bench`).

Every mode is one :class:`Mode` entry in :data:`MODES`: its ``--help``
description, the function adding its options, and the function running
it; ``python -m repro <mode> --help`` describes each.  The modes that
fan out or write results share the ``--json`` / ``--seed`` /
``--procs`` trio (see :mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, NamedTuple, Optional

from .cli import (add_cache_options, add_common_options,
                  add_executor_options, add_service_options,
                  graceful_sigterm, positive)
from .compiler import compile_loop, run_program
from .frontend import parse_loop, parse_program
from .report import render_timeline
from .schemes import make_scheme, scheme_names
from .sim import Machine, MachineConfig
from .sim.machine import SCHEDULES

DEMO_SOURCE = """
DO I = 1, N
  S1: A(I+3) = ...
  S2: ...    = A(I+1)
  S3: ...    = A(I+2)
  S4: A(I)   = ...
  S5: ...    = A(I-1)
END DO
"""


class Mode(NamedTuple):
    """One ``python -m repro`` mode: an entry of :data:`MODES`.

    ``options`` adds the mode's flags to its parser; ``run`` gets that
    parser (for ``parser.error``) and the parsed arguments and returns
    the exit code.  A mode without ``options`` parses its own
    arguments: ``run(name, argv)``.
    """

    description: Optional[str]
    options: Optional[Callable[[argparse.ArgumentParser], None]]
    run: Callable[..., int]


def _run_options(parser: argparse.ArgumentParser) -> None:
    add_common_options(parser)
    parser.add_argument("source", nargs="?", type=pathlib.Path,
                        help="mini-Fortran file containing one DO nest")
    parser.add_argument("--demo", action="store_true",
                        help="use the built-in Fig 2.1 loop (N=64)")
    parser.add_argument("--processors", type=positive(), default=8)
    parser.add_argument("--scheme", default=None, choices=scheme_names(),
                        help="force a scheme instead of letting the "
                             "compiler pick")
    parser.add_argument("--objective", default="time",
                        choices=["time", "storage", "traffic"])
    parser.add_argument("--schedule", default="self", choices=SCHEDULES)
    parser.add_argument("--bind", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="bind a symbolic loop bound (repeatable)")
    parser.add_argument("--program", action="store_true",
                        help="treat the source as several DO nests run "
                             "in sequence with shared arrays")
    parser.add_argument("--timeline-width", type=positive(), default=72)


def _chaos_options(parser: argparse.ArgumentParser) -> None:
    add_common_options(parser)
    parser.add_argument("--seeds", type=positive(), default=3,
                        help="seeds per (scheme, plan) cell (default 3), "
                             "starting at --seed")
    parser.add_argument("--schemes", default="all",
                        help="comma-separated scheme names, or 'all'")
    parser.add_argument("--plans", default="all",
                        help="comma-separated fault plan presets, or 'all'")
    parser.add_argument("--processors", type=positive(), default=4)
    parser.add_argument("--n", type=positive(), default=16,
                        help="trip count of the swept loop (default 16)")
    parser.add_argument("--recover", action="store_true",
                        help="enable the recovery layer (retransmission, "
                             "task reincarnation, degraded fallback): "
                             "recoverable plans must then complete "
                             "validated")


def _sweep_options(parser: argparse.ArgumentParser) -> None:
    add_common_options(parser)
    parser.add_argument("--spec", action="append", default=[],
                        metavar="NAME_OR_PATH",
                        help="sweep spec: a preset name or a JSON spec "
                             "file (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list the preset sweep specs and exit")
    add_cache_options(parser, no_cache=True)
    parser.add_argument("--assert-cached", action="store_true",
                        help="fail (exit 1) unless every cell was a "
                             "cache hit -- CI uses this to pin "
                             "incremental re-runs")
    parser.add_argument("--preflight", action="store_true",
                        help="statically verify every (app, scheme) "
                             "placement in the grid before simulating "
                             "(see 'python -m repro analyze')")
    add_executor_options(parser)
    parser.add_argument("--resume", action="store_true",
                        help="re-enter an interrupted sweep: completed "
                             "cells are recovered by cache/journal "
                             "lookup and never recomputed")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject seeded orchestration faults into "
                             "the executor (testing/CI), e.g. "
                             "'crash=0.2,hang=0.1,flaky=0.3'; the "
                             "merged store must still match a "
                             "fault-free run byte for byte")
    parser.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                        help="seed for --chaos draws (default 0)")
    parser.add_argument("--failures-json", type=pathlib.Path,
                        default=None, metavar="PATH",
                        help="write quarantined-cell failures (retry "
                             "budget exhausted) as JSON to PATH")


def _doctor_options(parser: argparse.ArgumentParser) -> None:
    add_common_options(parser)
    add_cache_options(parser)
    parser.add_argument("--repair", action="store_true",
                        help="act on entry damage: quarantine corrupt "
                             "entries, delete stale ones, rewrite torn "
                             "journals (orphans and stale claims are "
                             "always reaped)")
    parser.add_argument("--inject", default=None, metavar="SPEC",
                        help="testing/CI: first damage the store with "
                             "seeded faults, e.g. 'bit-flips=3,"
                             "truncations=2,torn-tmps=2,dead-claims=1' "
                             "(seeded by --seed), then diagnose")


def _doctor_mode(parser: argparse.ArgumentParser, args) -> int:
    """Diagnose (and optionally repair) the shared experiment store."""
    from .lab import DEFAULT_CACHE_DIR, ResultCache, StoreChaos, diagnose

    root = args.cache_dir or DEFAULT_CACHE_DIR
    if not root.is_dir():
        print(f"no cache directory at {root}: nothing to diagnose")
        return 0

    if args.inject is not None:
        try:
            chaos = StoreChaos.parse(args.inject, seed=args.seed)
        except ValueError as err:
            parser.error(f"bad --inject spec: {err}")
        touched = chaos.inject(root)
        for kind, names in sorted(touched.items()):
            if names:
                print(f"injected {kind}: {len(names)} file(s)")

    # key_fn lets the doctor flag entries the current source tree can
    # never look up again (superseded content addresses)
    cache = ResultCache(root)
    report = diagnose(root, repair=args.repair,
                      key_fn=cache.key_for)
    for finding in report.findings:
        action = f" [{finding.action}]" if finding.action else ""
        print(f"  {finding.status:12s} {finding.path}: "
              f"{finding.detail}{action}")
    print(report.summary())
    if args.json is not None:
        args.json.write_text(json.dumps(report.to_json(), sort_keys=True,
                                        indent=1) + "\n")
        print(f"wrote doctor report to {args.json}")
    return 0 if (report.healthy or args.repair) else 1


def _analyze_options(parser: argparse.ArgumentParser) -> None:
    add_common_options(parser)
    parser.add_argument("--app", default=None,
                        help="registered application name "
                             "(see repro.lab.apps)")
    parser.add_argument("--scheme", default=None,
                        help="scheme name (reference-based, "
                             "instance-based, statement-oriented, "
                             "process-oriented)")
    parser.add_argument("--gate", action="store_true",
                        help="verify every shipped app x scheme pair "
                             "(restricted by --app/--scheme when "
                             "given) and exit 1 on any finding")
    parser.add_argument("--optimize", action="store_true",
                        help="cost-model-guided search over (scheme "
                             "config, fold factor, arc subset); prints "
                             "the audit trail and the farthest-first "
                             "baseline, and validates the winner by "
                             "byte-identical replay")
    parser.add_argument("--window", type=positive(), default=None,
                        help="override the unrolled iteration window")
    parser.add_argument("--processors", type=positive(), default=8,
                        help="machine size for the dynamic cross-check "
                             "and optimizer replay (default 8)")
    parser.add_argument("--schedule", default="self", choices=SCHEDULES)
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override an app build parameter "
                             "(repeatable; defaults come from the "
                             "analysis gate sizes)")
    parser.add_argument("--static-only", action="store_true",
                        help="skip the dynamic vector-clock "
                             "cross-check")


def _int_assignment(parser: argparse.ArgumentParser, flag: str,
                    token: str):
    """Split a ``NAME=VALUE`` integer option; a bad one exits 2."""
    name, _, value = token.partition("=")
    try:
        if name:
            return name, int(value)
    except ValueError:
        pass
    parser.error(f"bad {flag} {token!r}: expected NAME=VALUE with an "
                 f"integer VALUE")


def _analyze_mode(parser: argparse.ArgumentParser, args) -> int:
    """Statically verify placements; optionally optimize + cross-check."""
    from .analyze import (ANALYZE_SCHEMA_VERSION, dynamic_check, gate,
                          optimize, validate_optimization, verify)
    from .analyze.gate import GATE_PARAMS
    from .depend.graph import DependenceGraph
    from .lab.apps import build_app
    from .schemes import make_scheme

    if args.gate:
        try:
            result = gate(apps=[args.app] if args.app else None,
                          schemes=[args.scheme] if args.scheme else None,
                          dynamic=not args.static_only)
        except ValueError as err:  # an unknown --app
            parser.error(str(err))
        for line in result.summary_lines():
            print(line)
        print(f"\nanalysis gate: {len(result.reports)} pair(s), "
              f"{len(result.failing)} failing, "
              f"{len(result.skipped)} skipped"
              + ("" if args.static_only else
                 f", {len(result.dynamic)} dynamically cross-checked"))
        if args.json is not None:
            args.json.write_text(json.dumps({
                "schema_version": ANALYZE_SCHEMA_VERSION,
                "reports": {key: report.to_json() for key, report
                            in sorted(result.reports.items())},
                "skipped": dict(sorted(result.skipped.items())),
                "dynamic": dict(sorted(result.dynamic.items())),
            }, sort_keys=True, indent=1) + "\n")
            print(f"wrote {len(result.reports)} report(s) to {args.json}")
        return 0 if result.ok else 1

    if not args.app or not args.scheme:
        parser.error("need --app and --scheme (or --gate)")
    params = dict(GATE_PARAMS.get(args.app, {}))
    params.update(_int_assignment(parser, "--param", override)
                  for override in args.param)

    try:
        loop = build_app(args.app, params)
        scheme = make_scheme(args.scheme)
    except (TypeError, ValueError) as err:
        parser.error(str(err))
    graph = DependenceGraph(loop)
    report = verify(loop, scheme, graph=graph, window=args.window,
                    app=args.app)
    print(report.summary())
    for finding in report.races + report.deadlocks:
        print(f"  {finding.describe()}")

    failed = not report.clean and not report.requires_serial

    opt = None
    if args.optimize and not report.requires_serial:
        opt = optimize(loop, scheme, graph=graph, app=args.app,
                       window=args.window, processors=args.processors)
        print(f"\noptimizer: {opt.summary()}")
        for trial in opt.audit:
            label = trial.arc or trial.action
            fold = f" X={trial.fold}" if trial.fold is not None else ""
            print(f"  [{trial.scheme}{fold}] {label}: "
                  f"ops={trial.sync_ops} "
                  f"cycles={trial.predicted_cycles:.0f} "
                  f"-> {trial.verdict}")
        print(f"  farthest-first baseline: sync ops "
              f"{opt.baseline['sync_ops_after']}, predicted cycles "
              f"{opt.baseline['predicted_cycles_after']:.0f}"
              + (" (optimizer wins)" if opt.beats_baseline else ""))
        replay = validate_optimization(loop, scheme, opt,
                                       processors=args.processors,
                                       schedule=args.schedule)
        print(f"  replayed both placements: identical final state, "
              f"measured sync ops {replay['sync_ops_before']} -> "
              f"{replay['sync_ops_after']}, makespan "
              f"{replay['makespan_before']} -> "
              f"{replay['makespan_after']}")

    if not args.static_only and not report.requires_serial:
        verdict = dynamic_check(scheme.instrument(loop, graph),
                                processors=args.processors,
                                schedule=args.schedule)
        if failed:
            # a single schedule staying clean does not contradict a
            # static finding; a dynamic kill corroborates it
            note = ("corroborates the static finding" if verdict.killed
                    else "one clean schedule (static finding stands)")
        else:
            note = ("agrees with the static verdict" if not verdict.killed
                    else "DISAGREES with the static all-clear")
            failed = failed or verdict.killed
        print(f"\ndynamic cross-check ({args.processors} processors, "
              f"{args.schedule} scheduling): {verdict.verdict} -- {note}")

    if args.json is not None and opt is not None:
        opt.write_json(args.json)
        print(f"wrote optimization report to {args.json}")
    elif args.json is not None:
        report.write_json(args.json)
        print(f"wrote findings to {args.json}")
    return 1 if failed else 0


def _load_specs(parser: argparse.ArgumentParser, tokens, seed: int):
    """``--spec`` preset names or ``.json`` files, seeds shifted by
    ``seed``; a bad or missing token exits 2."""
    from .lab import SweepSpec, decode_spec, sweep_presets

    if not tokens:
        parser.error(f"need at least one --spec (a preset name or a JSON "
                     f"spec file); presets: {', '.join(sweep_presets())}")
    specs = []
    for token in tokens:
        path = pathlib.Path(token)
        try:
            spec = decode_spec(json.loads(path.read_text())
                               if path.suffix == ".json" else token)
        except (OSError, ValueError) as err:
            parser.error(f"bad --spec {token!r}: {err}")
        if not isinstance(spec, SweepSpec):
            parser.error(f"bad --spec {token!r}: a cell list is not a "
                         f"sweep spec")
        specs.append(spec.with_seed_base(seed))
    return specs


def _print_quarantined(failures, why: str) -> None:
    """The DEGRADED block of a sweep that quarantined cells."""
    print(f"\nDEGRADED: {len(failures)} cell(s) {why} and were "
          "quarantined:")
    for failure in failures:
        print(f"  {failure.describe()}")


def _sweep_mode(parser: argparse.ArgumentParser, args) -> int:
    """Run declarative sweeps and print per-cell rows + cache stats."""
    from .lab import (DEFAULT_CACHE_DIR, ExecutorChaos, ResultCache,
                      SweepOptions, merge_records, run_sweep,
                      sweep_presets)
    from .report import print_table

    if args.list:
        for name in sweep_presets():
            print(name)
        return 0
    specs = _load_specs(parser, args.spec, args.seed)
    if args.resume and args.no_cache:
        parser.error("--resume recovers completed cells from the cache; "
                     "it cannot be combined with --no-cache")
    if args.assert_cached and args.no_cache:
        parser.error("--assert-cached needs every cell served from the "
                     "cache; it cannot be combined with --no-cache")
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ExecutorChaos.parse(args.chaos, seed=args.chaos_seed)
        except ValueError as err:
            parser.error(f"bad --chaos spec: {err}")

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)

    rows, records, failures = [], [], []
    hits = misses = shared = resumed = retries = respawns = 0
    start = time.perf_counter()
    try:
        with graceful_sigterm():
            # cache_dir=None so --no-cache truly disables caching:
            # the sweep would otherwise fall back to the default cache
            # directory when handed cache=None
            options = SweepOptions(
                procs=args.procs, cache=cache, cache_dir=None,
                preflight=args.preflight,
                cell_timeout=args.cell_timeout,
                max_retries=args.max_retries, chaos=chaos,
                resume=args.resume)
            for spec in specs:
                report = run_sweep(spec, options=options)
                hits += report.hits
                misses += report.misses
                shared += report.notes.get("shared", 0)
                retries += report.notes.get("retries", 0)
                respawns += report.notes.get("respawns", 0)
                resumed += report.hits if args.resume else 0
                records.extend(report.records)
                failures.extend(report.failed)
                for record in report.records:
                    config = record["config"]
                    metrics = record["metrics"] or {}
                    params = ",".join(f"{k}={v}" for k, v in
                                      sorted(config["app_params"].items()))
                    rows.append([spec.name, f"{config['app']}({params})",
                                 config["scheme"], config["processors"],
                                 config["seed"], record["outcome"],
                                 metrics.get("makespan", "-"),
                                 metrics.get("speedup", "-")])
    except KeyboardInterrupt:
        # children are already torn down and every landed record is in
        # the cache + journal; nothing to merge, everything to resume
        print("\nsweep interrupted: completed cells are journaled; "
              "re-run with --resume to pick up where it stopped "
              "(zero recomputation)")
        return 130
    elapsed = time.perf_counter() - start

    supervision = ""
    if retries or respawns:
        supervision = (f" [{retries} retrie(s), {respawns} worker "
                       f"respawn(s)]")
    print_table(
        ["spec", "app", "scheme", "P", "seed", "outcome", "makespan",
         "speedup"],
        rows,
        title=f"sweep: {len(records)} cell(s) from {len(specs)} spec(s) "
              f"on {args.procs} worker(s) in {elapsed:.2f}s"
              + supervision)
    if args.resume:
        print(f"resume: {resumed} completed cell(s) recovered from "
              f"cache/journal, {misses} simulated")
    if cache is not None:
        sharing = (f", {shared} served by concurrent sweep(s)"
                   if shared else "")
        print(f"cache: {hits} hit(s), {misses} miss(es){sharing} "
              f"[fingerprint {cache.fingerprint[:12]}, {cache.root}]")
    else:
        print(f"cache: disabled, {misses} cell(s) simulated")
    if args.json is not None:
        try:
            merge_records(args.json, records)
        except ValueError as err:  # landed cells stay cached
            parser.error(str(err))
        print(f"merged {len(records)} record(s) into {args.json}")
    if args.failures_json is not None:
        args.failures_json.write_text(json.dumps({
            "schema_version": 1,
            "failures": [failure.to_json() for failure in failures],
        }, sort_keys=True, indent=1) + "\n")
        print(f"wrote {len(failures)} failure(s) to {args.failures_json}")
    if failures:
        _print_quarantined(failures, f"exhausted their retry budget "
                                     f"({args.max_retries} retrie(s))")
        return 3
    if args.assert_cached and misses:
        print(f"--assert-cached: FAILED, {misses} cell(s) re-simulated")
        return 1
    return 0


def _chaos_mode(parser: argparse.ArgumentParser, args) -> int:
    """Sweep fault plans as one grid and check the degradation contract."""
    from .faults.chaos import ACCEPTABLE_OUTCOMES
    from .faults.plan import make_plan, plan_names
    from .lab import SweepOptions, SweepSpec, run_sweep
    from .report import print_table

    schemes = (scheme_names() if args.schemes == "all"
               else args.schemes.split(","))
    plans = plan_names() if args.plans == "all" else args.plans.split(",")
    try:
        # a typo fails here, listing the known names, before any cell runs
        for name in schemes:
            make_scheme(name)
        for name in plans:
            make_plan(name)
    except ValueError as err:
        parser.error(str(err))
    spec = SweepSpec.build(
        "chaos", apps=[("fig2.1", {"n": args.n, "cost": 8})],
        schemes=schemes, processors=(args.processors,),
        seeds=range(args.seed, args.seed + args.seeds),
        wait_bounds=(100_000,), plans=plans, recover=args.recover)
    try:
        report = run_sweep(spec, SweepOptions(
            procs=args.procs, cache_dir=None, max_retries=0,
            json_path=args.json))
    except ValueError as err:  # a --json store that cannot be merged
        parser.error(str(err))
    rows = []
    histogram: dict = {}
    totals: dict = {}
    for record in report.records:
        config, outcome = record["config"], record["outcome"]
        metrics = record["metrics"] or {}
        hazard = record.get("hazard") or {}
        note = record.get("error", "")
        if outcome == "ok":
            note = f"makespan {metrics['makespan']}"
        if hazard.get("cycle"):
            note = f"cycle: {' -> '.join(hazard['cycle'])}"
        rows.append([config["scheme"], config["plan"], config["seed"],
                     outcome, note[:48]])
        histogram[outcome] = histogram.get(outcome, 0) + 1
        # a run that died keeps its counters in the hazard report
        for key, count in (hazard or metrics).get("recovery", {}).items():
            totals[key] = totals.get(key, 0) + count
    print_table(
        ["scheme", "plan", "seed", "outcome", "detail"], rows,
        title=f"chaos sweep: {len(spec.schemes)} scheme(s) x "
              f"{len(spec.plans)} plan(s) x {args.seeds} seed(s) on "
              f"{args.processors} processors"
              + (" [recovery on]" if args.recover else ""))
    print("\noutcomes: " + ", ".join(
        f"{name}={count}" for name, count in sorted(histogram.items())))
    if args.recover:
        active = {key: count for key, count in sorted(totals.items())
                  if count}
        print("recovery totals: " + (", ".join(
            f"{name}={count}" for name, count in active.items())
            if active else "none"))
    if args.json is not None:
        print(f"merged {len(report.records)} record(s) into {args.json}")
    bad = [record for record in report.records
           if record["outcome"] not in ACCEPTABLE_OUTCOMES]
    if bad:
        print(f"\nDEGRADATION CONTRACT VIOLATED by {len(bad)} run(s) "
              f"(allowed: {', '.join(ACCEPTABLE_OUTCOMES)}):")
        for record in bad:
            config = record["config"]
            print(f"  {config['scheme']} / {config['plan']} / seed "
                  f"{config['seed']}: {record['outcome']} -- "
                  f"{record.get('error', '')}")
    if report.failed:
        _print_quarantined(report.failed, "raised")
    if bad:
        return 1
    if report.failed:
        return 3
    print("degradation contract holds: every run validated or died "
          "with a diagnosed structured error")
    return 0


def _serve_options(parser: argparse.ArgumentParser) -> None:
    add_common_options(parser, procs_default=2)
    add_cache_options(parser)
    add_executor_options(parser)
    add_service_options(parser)


def _submit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", action="append", default=[],
                        metavar="NAME_OR_PATH",
                        help="sweep spec: a preset name or a JSON spec "
                             "file (repeatable; one job each)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="base seed added to every spec's seed grid")
    parser.add_argument("--watch", action="store_true",
                        help="stay attached and stream each job's "
                             "events until it finishes (exit codes "
                             "match 'python -m repro sweep': 3 "
                             "degraded, 4 cancelled/interrupted)")
    add_service_options(parser)


def _status_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("job", nargs="?", default=None,
                        help="job id (default: every job)")
    add_service_options(parser)


def _watch_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("job", nargs="?", default=None,
                        help="job id (default: global event feed)")
    parser.add_argument("--no-replay", action="store_true",
                        help="live events only; do not replay the "
                             "job's history first")
    parser.add_argument("--json-lines", action="store_true",
                        help="print raw schema-versioned event JSON, "
                             "one object per line, instead of the "
                             "human-readable form")
    add_service_options(parser)


def _cancel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("jobs", nargs="+", metavar="JOB",
                        help="job id(s) to cancel")
    add_service_options(parser)


def _describe_event(event) -> str:
    """One human-readable line per sweep event (watch/submit --watch)."""
    from .lab import (CellDone, CellFailed, CellShared, CellStarted,
                      JobDone, JobSubmitted)

    tag = f"[{event.job}]"
    if isinstance(event, JobSubmitted):
        return f"{tag} submitted {event.spec}: {event.cells} cell(s)"
    if isinstance(event, CellStarted):
        attempt = (f" (attempt {event.attempt})" if event.attempt > 1
                   else "")
        return f"{tag} start   {event.key}{attempt}"
    if isinstance(event, CellDone):
        return f"{tag} done    {event.key} [{event.outcome}]"
    if isinstance(event, CellShared):
        return f"{tag} shared  {event.key} [via {event.via}]"
    if isinstance(event, CellFailed):
        return (f"{tag} FAILED  {event.key}: {event.reason} after "
                f"{event.attempts} attempt(s) -- {event.detail}")
    if isinstance(event, JobDone):
        detail = (f" -- {event.error}" if event.error else
                  f": {event.hits} hit(s), {event.misses} simulated, "
                  f"{event.failed} failed")
        return f"{tag} {event.status}{detail}"
    return f"{tag} {event.kind}"


def _job_exit_code(event) -> int:
    """Map a terminal job-done event onto the sweep-mode exit codes."""
    if event.status == "done":
        return 3 if event.failed else 0
    if event.status in ("cancelled", "interrupted"):
        return 4
    return 1


def _serve_mode(_parser: argparse.ArgumentParser, args) -> int:
    """Run the resident sweep service until SIGTERM/SIGINT drains it."""
    import os
    import signal
    import threading

    from .lab import (DEFAULT_CACHE_DIR, ServiceServer, SweepOptions,
                      SweepService)

    options = SweepOptions(
        procs=args.procs, cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
        json_path=args.json, cell_timeout=args.cell_timeout,
        max_retries=args.max_retries)
    service = SweepService(options).start()
    resumed = [row["job"] for row in service.status()]
    server = ServiceServer(service, args.socket).start()
    print(f"sweep service listening on {args.socket} "
          f"(pid {os.getpid()}, {args.procs} worker(s), "
          f"cache {options.cache_dir})")
    if resumed:
        print(f"resumed {len(resumed)} journaled job(s): "
              f"{', '.join(resumed)}")
    print("SIGTERM drains: unfinished jobs are journaled and resume "
          "on restart", flush=True)

    stop = threading.Event()

    def request_stop(_signum, _frame):
        stop.set()

    previous = (signal.signal(signal.SIGTERM, request_stop),
                signal.signal(signal.SIGINT, request_stop))
    try:
        while not stop.wait(0.2):
            pass
    finally:
        signal.signal(signal.SIGTERM, previous[0])
        signal.signal(signal.SIGINT, previous[1])
        server.close()
        interrupted = service.drain()
        service.close()
        if interrupted:
            print(f"drained: {len(interrupted)} unfinished job(s) "
                  f"journaled for restart ({', '.join(interrupted)})",
                  flush=True)
        else:
            print("drained: no unfinished jobs", flush=True)
    return 0


def _client_verb(verb: Callable[..., int]) -> Callable[..., int]:
    """Run a service client verb as ``verb(parser, args, client)``; a
    service that is unreachable or refuses the request exits 2."""
    def run(parser: argparse.ArgumentParser, args) -> int:
        from .lab import ServiceClient, ServiceError

        try:
            return verb(parser, args, ServiceClient(args.socket))
        except ServiceError as err:
            print(f"service error: {err}", file=sys.stderr)
            return 2
    return run


@_client_verb
def _submit_mode(parser: argparse.ArgumentParser, args, client) -> int:
    """Submit specs to a running service; optionally stream them."""
    specs = _load_specs(parser, args.spec, args.seed)
    jobs = []
    for spec in specs:
        job = client.submit(spec)
        print(f"{job}  {spec.name}  ({len(spec.cells())} cell(s))")
        jobs.append(job)
    if not args.watch:
        return 0
    code = 0
    for job in jobs:
        for event in client.watch(job):
            print(_describe_event(event))
            if event.kind == "job-done":
                code = max(code, _job_exit_code(event))
    return code


@_client_verb
def _status_mode(_parser: argparse.ArgumentParser, args, client) -> int:
    """Print the running service's job table."""
    from .report import print_table

    ping = client.ping()
    rows = client.status(args.job)
    print_table(
        ["job", "spec", "state", "cells", "completed", "failed"],
        [[row["job"], row["spec"], row["state"], row["cells"],
          row["completed"], row["failed"]] for row in rows],
        title=f"sweep service at {args.socket}: {ping['jobs']} job(s)"
              + (" [draining]" if ping.get("draining") else ""))
    return 0


@_client_verb
def _watch_mode(_parser: argparse.ArgumentParser, args, client) -> int:
    """Stream events from the running service."""
    code = 0
    try:
        for event in client.watch(args.job, replay=not args.no_replay):
            if args.json_lines:
                print(event.to_line(), flush=True)
            else:
                print(_describe_event(event), flush=True)
            if args.job is not None and event.kind == "job-done":
                code = _job_exit_code(event)
    except KeyboardInterrupt:
        return 130
    return code


@_client_verb
def _cancel_mode(_parser: argparse.ArgumentParser, args, client) -> int:
    """Cancel running service jobs."""
    from .lab import ServiceError

    code = 0
    for job in args.jobs:
        try:
            cancelled = client.cancel(job)
        except ServiceError as err:
            print(f"{job}: service error: {err}", file=sys.stderr)
            code = 2
            continue
        print(f"{job}: {'cancelled' if cancelled else 'already finished'}")
    return code


def _run_mode(parser: argparse.ArgumentParser, args) -> int:
    """Compile and simulate one DO loop (or a ``--program``)."""
    bindings = dict(_int_assignment(parser, "--bind", binding)
                    for binding in args.bind)

    if args.demo:
        source = DEMO_SOURCE
        bindings.setdefault("N", 64)
        name = "fig2.1-demo"
    elif args.source is not None:
        try:
            source = args.source.read_text()
        except OSError as err:
            parser.error(f"cannot read {args.source}: {err.strerror}")
        name = args.source.stem
    else:
        print("need a source file or --demo", file=sys.stderr)
        return 2

    try:  # a ParseError, or a binding that empties a loop's bounds
        parsed = (parse_program(source, **bindings) if args.program
                  else parse_loop(source, name=name, **bindings))
    except ValueError as err:
        parser.error(f"bad loop {name!r}: {err}")
    if args.program:
        return _run_program_mode(parsed, args)

    loop = parsed
    decision = compile_loop(loop, processors=args.processors,
                            objective=args.objective,
                            force_scheme=args.scheme)
    print(decision.explain())

    if not decision.runs_parallel:
        print("\nloop runs serially; nothing to simulate in parallel")
        return 0

    machine = Machine(MachineConfig(processors=args.processors,
                                    schedule=args.schedule))
    result = machine.run(decision.instrumented)
    decision.instrumented.validate(result)

    print(f"\nsimulated on {args.processors} processors "
          f"({args.schedule} scheduling); validated against sequential "
          f"semantics")
    for key, value in result.summary().items():
        print(f"  {key:22s} {value}")
    print()
    print(render_timeline(result, width=args.timeline_width))
    if args.json is not None:
        args.json.write_text(json.dumps({
            "loop": name,
            "classification": decision.classification.label,
            "scheme": decision.chosen_scheme,
            "processors": args.processors,
            "schedule": args.schedule,
            "summary": result.summary(),
        }, sort_keys=True, indent=1) + "\n")
        print(f"wrote run summary to {args.json}")
    return 0


def _run_program_mode(loops, args) -> int:
    """Compile and run a multi-loop program, printing per-loop rows."""
    from .report import print_table

    program = run_program(loops, processors=args.processors,
                          objective=args.objective,
                          force_scheme=args.scheme,
                          schedule=args.schedule)
    print_table(
        ["loop", "scheme", "makespan", "sync vars"],
        [[row["loop"], row["scheme"], row["makespan"], row["sync_vars"]]
         for row in program.summary()],
        title=f"{len(loops)}-loop program on {args.processors} "
              f"processors: {program.total_cycles} total cycles "
              "(validated)")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "loops": program.summary(),
            "total_cycles": program.total_cycles,
            "processors": args.processors,
        }, sort_keys=True, indent=1) + "\n")
        print(f"wrote program summary to {args.json}")
    return 0


def _bench_mode(command: str, argv) -> int:
    """``bench-engine`` / ``bench-analyze``: see :func:`repro.bench.main`."""
    from .bench import main as bench_main

    return bench_main(command, argv)


#: every mode by name; the ``None`` entry is the default run mode, used
#: when the first argument names no other mode
MODES = {
    None: Mode(
        "Compile and simulate a DOACROSS loop "
        "(Su & Yew, ISCA 1989 reproduction).",
        _run_options, _run_mode),
    "chaos": Mode(
        "Fault-injection sweep: run every synchronization "
        "scheme under seeded fault plans and verify each "
        "run either validates or fails with a diagnosed "
        "structured error.",
        _chaos_options, _chaos_mode),
    "sweep": Mode(
        "Declarative benchmark sweeps: expand preset or JSON sweep "
        "specs into (app x scheme x machine x seed) cells, serve warm "
        "cells from the content-addressed cache, fan cold cells over "
        "a worker pool, and merge versioned records into the --json "
        "store.",
        _sweep_options, _sweep_mode),
    "serve": Mode(
        "Run the resident sweep service: accept job submissions from "
        "many concurrent clients over a local unix socket, shard their "
        "cells across one shared supervised worker pool with fair "
        "per-job interleaving and in-flight dedup, stream typed "
        "events, and merge versioned records into the --json store.  "
        "SIGTERM drains: unfinished jobs are journaled and a restarted "
        "server resumes them recomputing zero completed cells.",
        _serve_options, _serve_mode),
    "submit": Mode(
        "Submit sweep specs to a running service; prints one job id "
        "per spec.  Identical cells across jobs (or already in the "
        "cache) are paid for once, service-wide.",
        _submit_options, _submit_mode),
    "status": Mode(
        "Show the running service's job table (or one job's row).",
        _status_options, _status_mode),
    "watch": Mode(
        "Stream a job's typed events from the running service (or the "
        "global feed of every job when no JOB is given).",
        _watch_options, _watch_mode),
    "cancel": Mode(
        "Cancel running service jobs.  Landed cells stay cached and "
        "journaled; only unfinished cells are abandoned.",
        _cancel_options, _cancel_mode),
    "analyze": Mode(
        "Static happens-before analysis of a compiled sync placement: "
        "prove every dependence arc enforced (or report races with "
        "witness iterations), detect unsatisfiable waits, run the "
        "cost-model-guided placement optimizer, and cross-check the "
        "static verdict with a dynamic vector-clock race sanitizer.",
        _analyze_options, _analyze_mode),
    "doctor": Mode(
        "fsck for the shared experiment store: verify every cache "
        "entry's checksum and schema versions, reap orphaned in-flight "
        "tmp files and stale single-flight claims, count torn journal "
        "lines, and report a typed summary (ok / stale / corrupt / "
        "orphaned / quarantined).  With --repair, corrupt entries are "
        "quarantined and stale ones deleted, so the next sweep "
        "re-simulates exactly the damaged cells.",
        _doctor_options, _doctor_mode),
    "bench-engine": Mode(None, None, _bench_mode),
    "bench-analyze": Mode(None, None, _bench_mode),
}


def build_parser(mode: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro [mode]``; ``None`` is
    the default run mode."""
    parser = argparse.ArgumentParser(
        prog="python -m repro" + (f" {mode}" if mode else ""),
        description=MODES[mode].description)
    MODES[mode].options(parser)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv and argv[0] in MODES else None
    if name is not None:
        argv = argv[1:]
    mode = MODES[name]
    if mode.options is None:  # a bench mode parses its own arguments
        return mode.run(name, argv)
    parser = build_parser(name)
    return mode.run(parser, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
