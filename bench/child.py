"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this script once per repeat; nothing memoised in one
repeat can serve the next.  Usage::

    python3 bench/child.py WORKLOAD SEED SPAWNED TRACE OUT

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process (set-up time runs from there to ready), ``TRACE`` is 0 or
1, and ``OUT`` the directory for the trace file and scratch space.
Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time

import tracing
import workloads


def main(argv: list) -> int:
    workload, seed, spawned, trace, out = argv
    seed, spawned, trace = int(seed), float(spawned), trace == "1"
    out = pathlib.Path(out)
    counter = tracing.RunCounter()
    # before set-up: pool workers forked by the service inherit it
    counter.install()
    client = workloads.make_client(workload, seed,
                                   out / f"work-{os.getpid()}")
    try:
        client.setup()
        ready = time.monotonic()
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        before = counter.snapshot()
        origin_ns = time.perf_counter_ns()
        result = client.run()
        after = counter.snapshot()
        report = {
            "workload": workload, "seed": seed,
            "setup_s": ready - spawned,
            "wall_s": result.wall_s, "cold_wall_s": result.cold_wall_s,
            "cells": result.cells,
            "cell_ms": [(end - start) * 1e3
                        for start, end, _key, _job in result.windows],
            "job_ms": [(end - start) * 1e3 for start, end in result.jobs],
            "attempted": result.attempted,
            "violations": result.violations,
            "records_sha256": workloads.sha256_of(result.records),
            "counts": ({key: after[key] - before[key] for key in after}
                       if before and after else None),
            **result.extra,
        }
        if tracer is not None:
            tracer.disable()
            serial_s = (client.serial_cell_seconds()
                        if workload == "service-fanout" else None)
            report["per_layer"] = tracing.layer_metrics(
                tracer, wall_s=result.wall_s,
                cold_wall_s=result.cold_wall_s, windows=result.windows,
                jobs=result.jobs, serial_s=serial_s, procs=client.procs,
                store_bytes=result.extra.get("store_bytes", 0),
                cache_bytes=result.extra.get("cache_bytes", 0))
            origin = origin_ns / 1e9
            trace_file = out / f"trace-{workload}.json"
            trace_file.write_text(json.dumps({
                "workload": workload, "seed": seed,
                "columns": ["name", "start_s", "end_s", "parent", "thread",
                            "counts"],
                "spans": tracer.export(origin_ns),
                "cells": [[start - origin, end - origin, key, job]
                          for start, end, key, job in result.windows],
                "jobs": [[start - origin, end - origin]
                         for start, end in result.jobs],
                "per_layer": report["per_layer"],
            }) + "\n")
    finally:
        client.close()
    # RUSAGE_CHILDREN covers the pool workers, reaped by close()
    report["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
