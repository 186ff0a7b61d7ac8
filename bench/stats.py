"""Order statistics and the metric table shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metrics the command reports beside those in BENCHMARK.json.
#: BENCHMARK.json lists only metrics that are defined, and never 0, on
#: every workload: ``warm_cells_per_s`` exists only for service-fanout,
#: and ``failed_frac`` is 0 whenever the run is correct.
EXTRA_END_TO_END = [
    {"name": "warm_cells_per_s", "unit": "cells/s", "better": "higher",
     "bound": 0.25},
    {"name": "failed_frac", "unit": "ratio", "better": "lower",
     "bound": 0.0},
]


def benchmark_spec() -> Dict:
    """BENCHMARK.json at the root of the checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table() -> Dict[str, Dict]:
    """name -> {unit, better, bound} for every end-to-end metric."""
    spec = benchmark_spec()
    return {entry["name"]: entry
            for entry in spec["end_to_end"] + EXTRA_END_TO_END}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3
