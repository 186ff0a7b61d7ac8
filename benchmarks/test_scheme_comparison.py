"""E12 -- the section 3/6 summary: all four schemes side by side.

The paper's comparative claims, as one table over the running example:

* data-oriented schemes need O(data) synchronization variables and pay
  O(data) initialization; the statement-oriented scheme needs one per
  source statement; the process-oriented scheme needs X, a constant;
* the process-oriented scheme's storage never grows with N while every
  data-oriented scheme's does;
* the broadcast-register schemes spin for free (no memory traffic);
  the data-oriented schemes poll through memory.

The grid is the ``scheme-comparison`` preset of :mod:`repro.lab` (all
four schemes at two problem sizes, so the constant-vs-O(data) claims
are visible as growth, not single points).
"""

from __future__ import annotations

from repro.lab import make_spec
from repro.report import print_table

#: the Fig 2.1 sizes; the preset's other apps (fold-chain, for the
#: optimizer column) are not part of this table
SIZES = tuple(dict(params)["n"] for app, params in
              make_spec("scheme-comparison").apps if app == "fig2.1")
P = make_spec("scheme-comparison").processors[0]


def test_scheme_comparison(sweep):
    report = sweep("scheme-comparison")
    rows = {(scheme, n): metrics for (app, scheme, n), metrics in
            report.metrics_by("app", "scheme", "app_params.n").items()
            if app == "fig2.1"}

    for n in SIZES:
        ref = rows[("reference-based", n)]
        inst = rows[("instance-based", n)]
        stmt = rows[("statement-oriented", n)]
        proc = rows[("process-oriented", n)]

        # synchronization-variable ordering: process/statement tiny,
        # data-oriented O(data)
        assert stmt["sync_vars"] == 4
        assert proc["sync_vars"] == 16
        assert ref["sync_vars"] == n + 4
        assert inst["sync_vars"] > ref["sync_vars"]

        # initialization overhead: data-oriented pay per datum (grows
        # with N even parallelized over P init workers); process
        # counters are a constant handful of register writes
        assert ref["init_cycles"] > proc["init_cycles"]
        assert proc["init_cycles"] < 100

        # storage: the proposed scheme's is constant and smallest
        assert proc["sync_storage_words"] <= min(
            ref["sync_storage_words"], inst["sync_storage_words"])

        # waiting style: register schemes beat memory-polled schemes on
        # makespan for this loop
        assert proc["makespan"] < ref["makespan"]
        assert proc["makespan"] < inst["makespan"]

    # the growth claims across sizes: the proposed scheme's footprint is
    # flat, the data-oriented ones grow
    lo, hi = SIZES[0], SIZES[-1]
    assert (rows[("process-oriented", hi)]["sync_storage_words"]
            == rows[("process-oriented", lo)]["sync_storage_words"])
    assert (rows[("reference-based", hi)]["sync_vars"]
            > rows[("reference-based", lo)]["sync_vars"])

    print_table(
        ["scheme", "N", "sync vars", "storage", "init cycles", "sync tx",
         "makespan", "util", "spin frac"],
        [[scheme, n, m["sync_vars"], m["sync_storage_words"],
          m["init_cycles"], m["sync_transactions"], m["makespan"],
          m["utilization"], m["spin_fraction"]]
         for (scheme, n), m in sorted(rows.items())],
        title=f"Section 3/6 summary: all schemes, Fig 2.1 loop, "
              f"N in {SIZES}, P={P}")
