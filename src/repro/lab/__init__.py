"""repro.lab: the declarative experiment subsystem.

The repository's evidence is ~20 benchmark sweeps over
(scheme x loop x machine x seed) grids.  This package turns those
hand-rolled nested loops into data:

* :class:`SweepSpec` declares a grid; presets cover the standing
  benchmark figures (``fig3.1``, ``fig3.2``, ``scheme-comparison``,
  ``speedup``, ``kernels``, ``smoke``);
* :func:`run_sweep` expands it, serves warm cells from a
  content-addressed on-disk cache (keyed by a source fingerprint of
  ``repro`` plus the cell's canonical config), fans cold cells across a
  supervised process pool, and merges versioned records into
  ``BENCH_sweeps.json``;
* :class:`SweepService` is the long-running form: many clients submit
  jobs to one server sharing a worker pool and in-flight dedup, with
  typed :class:`SweepEvent` streams (``python -m repro serve`` /
  ``submit`` / ``watch``);
* :class:`RunConfig` (re-exported from :mod:`repro.schemes`) is the
  single-object form of one run's knobs, :class:`SweepOptions` of one
  sweep's.

Quick start::

    from repro.lab import SweepOptions, make_spec, run_sweep
    report = run_sweep(make_spec("scheme-comparison"),
                       options=SweepOptions(procs=8))
    rows = report.metrics_by("scheme")

or from the shell::

    python -m repro sweep --spec fig3.1 --procs 8 --json BENCH_sweeps.json

Names exported here are the supported API (see
``docs/architecture.md``).  Internals -- executor backoff math,
canonical JSON encoding, envelope sealing, journal plumbing -- live in
their own modules (``repro.lab.executor``, ``repro.lab.record``,
``repro.lab.store``, ...) and are deliberately *not* re-exported at
package top level.
"""

from ..schemes.base import RunConfig
from .apps import APP_BUILDERS, app_names, build_app
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .chaos import ChaosError, ExecutorChaos, StoreChaos
from .client import ServiceClient, ServiceError
from .events import (EVENT_SCHEMA_VERSION, CellDone, CellFailed,
                     CellShared, CellStarted, EventDecodeError, JobDone,
                     JobSubmitted, SweepEvent, event_from_json,
                     event_from_line)
from .executor import (DEFAULT_MAX_RETRIES, CellFailure, ExecutionOutcome,
                       PoolSupervisor)
from .record import RECORD_SCHEMA_VERSION, merge_records
from .runner import (IncompleteSweepError, JobCancelled, SweepOptions,
                     SweepReport, execute_cell, execute_grid, run_sweep)
from .service import (DEFAULT_SOCKET, JobHandle, ServiceClosed,
                      ServiceServer, Subscription, SweepService)
from .spec import (AUTO_SCHEME, PRESETS, SweepCell, SweepSpec, decode_spec,
                   make_spec, sweep_presets)
from .store import (CellClaims, ClaimPolicy, DoctorReport, diagnose)

__all__ = [
    "APP_BUILDERS", "AUTO_SCHEME", "CellClaims", "CellDone", "CellFailed",
    "CellFailure", "CellShared", "CellStarted", "ChaosError",
    "ClaimPolicy", "DEFAULT_CACHE_DIR", "DEFAULT_MAX_RETRIES",
    "DEFAULT_SOCKET", "DoctorReport", "EVENT_SCHEMA_VERSION",
    "EventDecodeError", "ExecutionOutcome", "ExecutorChaos",
    "IncompleteSweepError", "JobCancelled", "JobDone", "JobHandle",
    "JobSubmitted", "PRESETS", "PoolSupervisor", "RECORD_SCHEMA_VERSION",
    "ResultCache", "RunConfig", "ServiceClient", "ServiceClosed",
    "ServiceError", "ServiceServer", "StoreChaos", "Subscription",
    "SweepCell", "SweepEvent", "SweepOptions", "SweepReport",
    "SweepService", "SweepSpec", "app_names", "build_app", "decode_spec",
    "diagnose", "event_from_json", "event_from_line", "execute_cell",
    "execute_grid", "make_spec", "merge_records", "run_sweep",
    "sweep_presets",
]
