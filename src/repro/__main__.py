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

Options::

    --processors P      machine size (default 8)
    --scheme NAME       force a scheme instead of letting the compiler pick
    --objective OBJ     selection objective: time | storage | traffic
    --schedule POLICY   self | chunk | guided | cyclic | block
    --bind NAME=VALUE   bind a symbolic loop bound (repeatable)
    --timeline-width W  timeline width in characters (default 72)
    --demo              run the built-in Fig 2.1 demo instead of a file

All modes share the ``--json`` / ``--seed`` / ``--procs`` trio (see
:mod:`repro.cli`).

``chaos`` mode sweeps seeded fault plans (lost broadcasts, stalls,
crashes, flaky RMW commits, latency jitter) across every
synchronization scheme and checks the degradation contract: each run
either validates against sequential semantics or dies with a diagnosed
structured error -- never a hang, never silent corruption.  See
``python -m repro chaos --help``.

``sweep`` mode runs the declarative benchmark grids of
:mod:`repro.lab`: preset (or JSON-file) sweep specs expand into cells,
warm cells come from the content-addressed cache, cold cells fan out
over ``--procs`` *supervised* workers (per-cell ``--cell-timeout``,
bounded ``--max-retries`` with backoff, crash detection + respawn,
quarantine of budget-exhausted cells with exit code 3), and versioned
records merge into the ``--json`` store as they land.  An interrupted
sweep (Ctrl-C / SIGTERM) re-enters with ``--resume`` recomputing zero
completed cells.  N sweeps may share one ``--cache-dir`` concurrently:
per-cell claim files give single-flight semantics (an in-flight cell is
waited for, not recomputed; a crashed claimant's cell is taken over),
every entry is checksummed, and the merged store is lock-serialized.
See ``python -m repro sweep --help``.

``serve`` mode keeps a sweep service resident: many clients submit
jobs over a local unix socket to one shared supervised worker pool
with in-flight dedup (two clients racing overlapping grids pay for
the union exactly once), watch typed event streams, and cancel jobs;
SIGTERM drains -- unfinished jobs are journaled and a restarted
server resumes them recomputing zero completed cells.  ``submit`` /
``status`` / ``watch`` / ``cancel`` are the matching client verbs.
See ``python -m repro serve --help``.

``doctor`` mode is the fsck for that shared store: it verifies entry
checksums and schema versions, reaps orphaned tmp files and stale
claims, and reports a typed summary; ``--repair`` quarantines corrupt
entries and deletes stale ones so the next sweep re-simulates exactly
the damaged cells.  See ``python -m repro doctor --help``.

``bench-engine`` mode measures raw engine throughput (events per
second) over the preset grids, and ``bench-analyze`` measures race
sanitizer and optimizer throughput; both append a schema-versioned
entry to a benchmark trajectory file, and ``--check`` compares the
fresh numbers against a committed trajectory and fails on a
regression.  See :mod:`repro.bench` and ``python -m repro
bench-engine --help``.

``analyze`` mode is the static side of :mod:`repro.analyze`: it proves
a compiled sync placement enforces every dependence arc (races and
unsatisfiable waits come back as typed findings with witness
iterations), optionally runs the placement optimizer that drops
provably redundant sync arcs (``--optimize``, which also reports the
farthest-first baseline), and cross-checks the verdict with a dynamic
vector-clock sanitizer (skipped with ``--static-only``).  ``--gate``
verifies every shipped app x scheme pair, which is what CI runs.  See
``python -m repro analyze --help``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from .cli import (add_cache_options, add_common_options,
                  add_executor_options, add_service_options,
                  graceful_sigterm, make_parser)
from .compiler import compile_loop, run_program
from .frontend import parse_loop, parse_program
from .report import render_timeline
from .sim import Machine, MachineConfig

DEMO_SOURCE = """
DO I = 1, N
  S1: A(I+3) = ...
  S2: ...    = A(I+1)
  S3: ...    = A(I+2)
  S4: A(I)   = ...
  S5: ...    = A(I-1)
END DO
"""


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = make_parser(
        "python -m repro",
        "Compile and simulate a DOACROSS loop "
        "(Su & Yew, ISCA 1989 reproduction).")
    add_common_options(parser)
    parser.add_argument("source", nargs="?", type=pathlib.Path,
                        help="mini-Fortran file containing one DO nest")
    parser.add_argument("--demo", action="store_true",
                        help="use the built-in Fig 2.1 loop (N=64)")
    parser.add_argument("--processors", type=int, default=8)
    parser.add_argument("--scheme", default=None,
                        help="force a scheme (reference-based, "
                             "instance-based, statement-oriented, "
                             "process-oriented)")
    parser.add_argument("--objective", default="time",
                        choices=["time", "storage", "traffic"])
    parser.add_argument("--schedule", default="self",
                        choices=["self", "chunk", "guided", "cyclic",
                                 "block"])
    parser.add_argument("--bind", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="bind a symbolic loop bound (repeatable)")
    parser.add_argument("--program", action="store_true",
                        help="treat the source as several DO nests run "
                             "in sequence with shared arrays")
    parser.add_argument("--timeline-width", type=int, default=72)
    return parser


def build_chaos_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro chaos``."""
    parser = make_parser(
        "python -m repro chaos",
        "Fault-injection sweep: run every synchronization "
        "scheme under seeded fault plans and verify each "
        "run either validates or fails with a diagnosed "
        "structured error.")
    add_common_options(parser)
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds per (scheme, plan) cell (default 3), "
                             "starting at --seed")
    parser.add_argument("--schemes", default="all",
                        help="comma-separated scheme names, or 'all'")
    parser.add_argument("--plans", default="all",
                        help="comma-separated fault plan presets, or 'all'")
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--n", type=int, default=16,
                        help="trip count of the swept loop (default 16)")
    parser.add_argument("--recover", action="store_true",
                        help="enable the recovery layer (retransmission, "
                             "task reincarnation, degraded fallback): "
                             "recoverable plans must then complete "
                             "validated")
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro sweep``."""
    parser = make_parser(
        "python -m repro sweep",
        "Declarative benchmark sweeps: expand preset or JSON sweep "
        "specs into (app x scheme x machine x seed) cells, serve warm "
        "cells from the content-addressed cache, fan cold cells over "
        "a worker pool, and merge versioned records into the --json "
        "store.")
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
    parser.add_argument("--no-single-flight", action="store_true",
                        help="do not coordinate with other sweeps "
                             "sharing this cache via per-cell claim "
                             "files (may duplicate in-flight work)")
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
    return parser


def build_doctor_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro doctor``."""
    parser = make_parser(
        "python -m repro doctor",
        "fsck for the shared experiment store: verify every cache "
        "entry's checksum and schema versions, reap orphaned in-flight "
        "tmp files and stale single-flight claims, count torn journal "
        "lines, and report a typed summary (ok / stale / corrupt / "
        "orphaned / quarantined).  With --repair, corrupt entries are "
        "quarantined and stale ones deleted, so the next sweep "
        "re-simulates exactly the damaged cells.")
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
    return parser


def _doctor_mode(argv) -> int:
    """Diagnose (and optionally repair) the shared experiment store."""
    from .lab import DEFAULT_CACHE_DIR, ResultCache, StoreChaos, diagnose

    parser = build_doctor_parser()
    args = parser.parse_args(argv)
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


def build_analyze_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro analyze``."""
    parser = make_parser(
        "python -m repro analyze",
        "Static happens-before analysis of a compiled sync placement: "
        "prove every dependence arc enforced (or report races with "
        "witness iterations), detect unsatisfiable waits, run the "
        "cost-model-guided placement optimizer, and cross-check the "
        "static verdict with a dynamic vector-clock race sanitizer.")
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
    parser.add_argument("--window", type=int, default=None,
                        help="override the unrolled iteration window")
    parser.add_argument("--processors", type=int, default=8,
                        help="machine size for the dynamic cross-check "
                             "and optimizer replay (default 8)")
    parser.add_argument("--schedule", default="self",
                        choices=["self", "chunk", "guided", "cyclic",
                                 "block"])
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override an app build parameter "
                             "(repeatable; defaults come from the "
                             "analysis gate sizes)")
    parser.add_argument("--static-only", action="store_true",
                        help="skip the dynamic vector-clock "
                             "cross-check")
    return parser


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


def _analyze_mode(argv) -> int:
    """Statically verify placements; optionally optimize + cross-check."""
    from .analyze import (ANALYZE_SCHEMA_VERSION, dynamic_check, gate,
                          optimize, validate_optimization, verify)
    from .analyze.gate import GATE_PARAMS
    from .depend.graph import DependenceGraph
    from .lab.apps import build_app
    from .schemes import make_scheme

    parser = build_analyze_parser()
    args = parser.parse_args(argv)

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
        if args.json is not None:
            opt.write_json(args.json)
            print(f"wrote optimization report to {args.json}")
            return 1 if failed else 0

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

    if args.json is not None:
        report.write_json(args.json)
        print(f"wrote findings to {args.json}")
    return 1 if failed else 0


def _sweep_mode(argv) -> int:
    """Run declarative sweeps and print per-cell rows + cache stats."""
    from .lab import (DEFAULT_CACHE_DIR, DEFAULT_MAX_RETRIES, ExecutorChaos,
                      ResultCache, SweepOptions, SweepSpec, make_spec,
                      merge_records, run_sweep, sweep_presets)
    from .report import print_table

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in sweep_presets():
            print(name)
        return 0
    if not args.spec:
        parser.error(f"need at least one --spec; presets: "
                     f"{', '.join(sweep_presets())}")
    if args.resume and args.no_cache:
        parser.error("--resume recovers completed cells from the cache; "
                     "it cannot be combined with --no-cache")
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ExecutorChaos.parse(args.chaos, seed=args.chaos_seed)
        except ValueError as err:
            parser.error(f"bad --chaos spec: {err}")
    max_retries = (args.max_retries if args.max_retries is not None
                   else DEFAULT_MAX_RETRIES)
    specs = []
    for token in args.spec:
        path = pathlib.Path(token)
        spec = (SweepSpec.from_json(path) if path.suffix == ".json"
                else make_spec(token))
        specs.append(spec.with_seed_base(args.seed))

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
                max_retries=max_retries, chaos=chaos,
                resume=args.resume,
                single_flight=not args.no_single_flight)
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
        merge_records(args.json, records)
        print(f"merged {len(records)} record(s) into {args.json}")
    if args.failures_json is not None:
        args.failures_json.write_text(json.dumps({
            "schema_version": 1,
            "failures": [failure.to_json() for failure in failures],
        }, sort_keys=True, indent=1) + "\n")
        print(f"wrote {len(failures)} failure(s) to {args.failures_json}")
    if failures:
        print(f"\nDEGRADED: {len(failures)} cell(s) exhausted their "
              f"retry budget ({max_retries} retrie(s)) and were "
              "quarantined:")
        for failure in failures:
            print(f"  {failure.describe()}")
        return 3
    if args.assert_cached and misses:
        print(f"--assert-cached: FAILED, {misses} cell(s) re-simulated")
        return 1
    return 0


def _chaos_mode(argv) -> int:
    """Run the chaos sweep and print the outcome table."""
    from .faults.chaos import (ACCEPTABLE_OUTCOMES, run_chaos_sweep,
                               summarize)
    from .faults.plan import plan_names
    from .report import print_table
    from .schemes import scheme_names

    parser = build_chaos_parser()
    args = parser.parse_args(argv)
    if args.seeds < 1:
        # a 0-seed sweep would vacuously report the contract as holding
        parser.error("--seeds must be at least 1")
    schemes = (scheme_names() if args.schemes == "all"
               else args.schemes.split(","))
    plans = plan_names() if args.plans == "all" else args.plans.split(",")
    seeds = range(args.seed, args.seed + args.seeds)

    try:
        outcomes = run_chaos_sweep(schemes=schemes, plans=plans,
                                   seeds=seeds, procs=args.procs,
                                   n=args.n, processors=args.processors,
                                   recover=args.recover)
    except ValueError as err:  # an unknown --schemes/--plans name
        parser.error(str(err))
    rows = []
    for o in outcomes:
        note = o.detail
        if o.cycle:
            note = f"cycle: {' -> '.join(o.cycle)}"
        rows.append([o.scheme, o.plan, o.seed, o.outcome, note[:48]])
    print_table(
        ["scheme", "plan", "seed", "outcome", "detail"], rows,
        title=f"chaos sweep: {len(schemes)} scheme(s) x {len(plans)} "
              f"plan(s) x {args.seeds} seed(s) on {args.processors} "
              f"processors" + (" [recovery on]" if args.recover else ""))
    histogram = summarize(outcomes)
    print("\noutcomes: " + ", ".join(
        f"{name}={count}" for name, count in sorted(histogram.items())))
    if args.recover:
        totals: dict = {}
        for o in outcomes:
            for key, count in o.recovery.items():
                totals[key] = totals.get(key, 0) + count
        active = {key: count for key, count in sorted(totals.items())
                  if count}
        print("recovery totals: " + (", ".join(
            f"{name}={count}" for name, count in active.items())
            if active else "none"))
    if args.json is not None:
        args.json.write_text(json.dumps(
            [o.to_json() for o in outcomes], indent=2) + "\n")
        print(f"wrote {len(outcomes)} per-run records to {args.json}")
    bad = [o for o in outcomes if not o.acceptable]
    if bad:
        print(f"\nDEGRADATION CONTRACT VIOLATED by {len(bad)} run(s) "
              f"(allowed: {', '.join(ACCEPTABLE_OUTCOMES)}):")
        for o in bad:
            print(f"  {o.scheme} / {o.plan} / seed {o.seed}: "
                  f"{o.outcome} -- {o.detail}")
        return 1
    print("degradation contract holds: every run validated or died "
          "with a diagnosed structured error")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro serve``."""
    parser = make_parser(
        "python -m repro serve",
        "Run the resident sweep service: accept job submissions from "
        "many concurrent clients over a local unix socket, shard their "
        "cells across one shared supervised worker pool with fair "
        "per-job interleaving and in-flight dedup, stream typed "
        "events, and merge versioned records into the --json store.  "
        "SIGTERM drains: unfinished jobs are journaled and a restarted "
        "server resumes them recomputing zero completed cells.")
    add_common_options(parser, procs_default=2)
    add_cache_options(parser)
    add_executor_options(parser)
    add_service_options(parser)
    return parser


def build_submit_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro submit``."""
    parser = make_parser(
        "python -m repro submit",
        "Submit sweep specs to a running service; prints one job id "
        "per spec.  Identical cells across jobs (or already in the "
        "cache) are paid for once, service-wide.")
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
    return parser


def build_status_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro status``."""
    parser = make_parser(
        "python -m repro status",
        "Show the running service's job table (or one job's row).")
    parser.add_argument("job", nargs="?", default=None,
                        help="job id (default: every job)")
    add_service_options(parser)
    return parser


def build_watch_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro watch``."""
    parser = make_parser(
        "python -m repro watch",
        "Stream a job's typed events from the running service (or the "
        "global feed of every job when no JOB is given).")
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
    return parser


def build_cancel_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro cancel``."""
    parser = make_parser(
        "python -m repro cancel",
        "Cancel running service jobs.  Landed cells stay cached and "
        "journaled; only unfinished cells are abandoned.")
    parser.add_argument("jobs", nargs="+", metavar="JOB",
                        help="job id(s) to cancel")
    add_service_options(parser)
    return parser


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


def _serve_mode(argv) -> int:
    """Run the resident sweep service until SIGTERM/SIGINT drains it."""
    import os
    import signal
    import threading

    from .lab import (DEFAULT_CACHE_DIR, DEFAULT_MAX_RETRIES, ServiceServer,
                      SweepOptions, SweepService)

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    max_retries = (args.max_retries if args.max_retries is not None
                   else DEFAULT_MAX_RETRIES)
    options = SweepOptions(
        procs=args.procs, cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
        json_path=args.json, cell_timeout=args.cell_timeout,
        max_retries=max_retries)
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


def _submit_mode(argv) -> int:
    """Submit specs to a running service; optionally stream them."""
    from .lab import ServiceClient, ServiceError, SweepSpec, make_spec

    parser = build_submit_parser()
    args = parser.parse_args(argv)
    if not args.spec:
        parser.error("need at least one --spec (a preset name or a "
                     "JSON spec file)")
    client = ServiceClient(args.socket)
    try:
        jobs = []
        for token in args.spec:
            path = pathlib.Path(token)
            spec = (SweepSpec.from_json(path) if path.suffix == ".json"
                    else make_spec(token))
            spec = spec.with_seed_base(args.seed)
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
    except ServiceError as err:
        print(f"service error: {err}", file=sys.stderr)
        return 2


def _status_mode(argv) -> int:
    """Print the running service's job table."""
    from .lab import ServiceError
    from .lab.client import ServiceClient
    from .report import print_table

    parser = build_status_parser()
    args = parser.parse_args(argv)
    client = ServiceClient(args.socket)
    try:
        ping = client.ping()
        rows = client.status(args.job)
    except ServiceError as err:
        print(f"service error: {err}", file=sys.stderr)
        return 2
    print_table(
        ["job", "spec", "state", "cells", "completed", "failed"],
        [[row["job"], row["spec"], row["state"], row["cells"],
          row["completed"], row["failed"]] for row in rows],
        title=f"sweep service at {args.socket}: {ping['jobs']} job(s)"
              + (" [draining]" if ping.get("draining") else ""))
    return 0


def _watch_mode(argv) -> int:
    """Stream events from the running service."""
    from .lab import ServiceClient, ServiceError

    parser = build_watch_parser()
    args = parser.parse_args(argv)
    client = ServiceClient(args.socket)
    code = 0
    try:
        for event in client.watch(args.job, replay=not args.no_replay):
            if args.json_lines:
                print(event.to_line(), flush=True)
            else:
                print(_describe_event(event), flush=True)
            if args.job is not None and event.kind == "job-done":
                code = _job_exit_code(event)
    except ServiceError as err:
        print(f"service error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    return code


def _cancel_mode(argv) -> int:
    """Cancel running service jobs."""
    from .lab import ServiceClient, ServiceError

    parser = build_cancel_parser()
    args = parser.parse_args(argv)
    client = ServiceClient(args.socket)
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


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "chaos":
        return _chaos_mode(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_mode(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_mode(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_mode(argv[1:])
    if argv and argv[0] == "status":
        return _status_mode(argv[1:])
    if argv and argv[0] == "watch":
        return _watch_mode(argv[1:])
    if argv and argv[0] == "cancel":
        return _cancel_mode(argv[1:])
    if argv and argv[0] == "analyze":
        return _analyze_mode(argv[1:])
    if argv and argv[0] == "doctor":
        return _doctor_mode(argv[1:])
    if argv and argv[0] in ("bench-engine", "bench-analyze"):
        from .bench import main as bench_main
        return bench_main(argv[0], argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    bindings = dict(_int_assignment(parser, "--bind", binding)
                    for binding in args.bind)

    if args.demo:
        source = DEMO_SOURCE
        bindings.setdefault("N", 64)
        name = "fig2.1-demo"
    elif args.source is not None:
        source = args.source.read_text()
        name = args.source.stem
    else:
        print("need a source file or --demo", file=sys.stderr)
        return 2

    if args.program:
        return _run_program_mode(source, bindings, args)

    loop = parse_loop(source, name=name, **bindings)
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


def _run_program_mode(source: str, bindings, args) -> int:
    """Compile and run a multi-loop program, printing per-loop rows."""
    from .report import print_table

    loops = parse_program(source, **bindings)
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


if __name__ == "__main__":
    sys.exit(main())
