"""Compare two ``results.json`` files written by ``run.py``.

Usage::

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric it prints each side's reported
value and the quartiles of its per-repeat values, and a verdict for B
against A:

* ``better`` -- there are at least ten repeat pairs, B wins at least
  nine tenths of them, and the values differ by more than A's
  interquartile distance (run both sides with ``--seconds 60`` to get
  ten repeats per workload);
* ``worse`` -- B's value is worse than A's by more than the metric's
  bound (for ``failed_frac``: by anything);
* ``unresolved`` -- A's own spread is wider than the bound, and not
  every repeat of B beats every repeat of A;
* ``unchanged`` -- otherwise.

The exact counts (engine events, simulated cycles, optimizer trials,
races) and the record digests must match; they are compared only when
both files used the same seed.  Exits 1 if any metric is worse or any
count differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Sequence

import stats

#: a gain is claimed only over at least this many repeat pairs
MIN_PAIRS = 10


def verdict(before: Dict, after: Dict, spec: Dict) -> str:
    """B (``after``) against A for one metric: each side is a results
    entry, its reported ``value`` and its per-repeat ``repeats``."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    base = before["value"]
    q1, q3 = stats.quartiles(before["repeats"])
    pairs = list(zip(before["repeats"], after["repeats"]))
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    gain = (after["value"] - base) * sign
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > q3 - q1):
        return "better"
    if -gain > spec["bound"] * abs(base):
        return "worse"
    if base and (q3 - q1) / abs(base) > spec["bound"] and \
            min(b * sign for b in after["repeats"]) <= \
            max(a * sign for a in before["repeats"]):
        return "unresolved"
    return "unchanged"


def compare(a: Dict, b: Dict) -> List[str]:
    """Report lines; problems are marked with a leading ``!``."""
    table = stats.metric_table()
    lines = []
    same_seed = a["seed"] == b["seed"]
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = a["workloads"][name], b["workloads"][name]
        lines.append(f"== {name}")
        for metric, entry in left["metrics"].items():
            if metric not in right["metrics"]:
                continue
            after = right["metrics"][metric]
            if None in (entry["value"], after["value"]):
                lines.append(f"  {metric:<18} (not measured)")
                continue
            word = verdict(entry, after, table[metric])
            sides = []
            for side in (entry, after):
                q1, q3 = stats.quartiles(side["repeats"])
                sides.append(f"{side['value']:.6g} [{q1:.6g}, {q3:.6g}]")
            mark = "!" if word == "worse" else " "
            lines.append(f"{mark} {metric:<18} {sides[0]:>36} -> "
                         f"{sides[1]:<36} {word}")
        if not same_seed:
            continue
        mismatches = [f"! {key} differs"
                      for key in ("records_sha256", "store_sha256")
                      if left.get(key) != right.get(key)]
        for key in sorted(set(left["counts"]) | set(right["counts"])):
            x, y = left["counts"].get(key), right["counts"].get(key)
            if x != y:
                mismatches.append(f"! count {key}: {x} -> {y}")
        lines.extend(mismatches
                     or ["  counts and record digests identical"])
    if not same_seed:
        lines.append(f"seeds differ ({a['seed']} vs {b['seed']}): exact "
                     "counts not compared")
    return lines


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path)
    args = parser.parse_args(argv)
    lines = compare(json.loads(args.before.read_text()),
                    json.loads(args.after.read_text()))
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
