"""Text Gantt charts of simulated processor activity.

Renders one line per processor from a run's recorded activity segments:
``#`` for computation, ``~`` for busy-waiting, ``.`` for everything else
(memory stalls, scheduling, idle).  Useful for eyeballing where a
synchronization scheme loses time -- e.g. the staircase of a pipeline
fill, or a barrier's idle triangles.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from ..sim.metrics import RunResult

#: rendering characters per activity kind; later entries win conflicts
_GLYPHS = {"busy": "#", "spin": "~"}


def render_timeline(result: RunResult, width: int = 72,
                    tasks: Sequence[str] = ()) -> str:
    """ASCII timeline of a run, one row per task (processor).

    ``width`` is the number of character cells the makespan is scaled
    into; ``tasks`` restricts/orders the rows (default: every task that
    recorded activity, sorted).
    """
    activity: List[Tuple[str, str, int, int]] = \
        result.extra.get("activity", [])
    if not activity:
        return '(no activity recorded: run with metrics="full")'
    makespan = max(result.makespan, 1)
    rows: Dict[str, List[str]] = defaultdict(lambda: ["."] * width)

    for task, kind, start, end in activity:
        glyph = _GLYPHS.get(kind)
        if glyph is None:
            continue
        first = min(width - 1, start * width // makespan)
        last = min(width - 1, max(first, (end - 1) * width // makespan))
        row = rows[task]
        for cell in range(first, last + 1):
            # busy-wait never overwrites computation in a shared cell
            if not (glyph == "~" and row[cell] == "#"):
                row[cell] = glyph

    names = list(tasks) if tasks else sorted(rows)
    label_width = max((len(name) for name in names), default=0)
    lines = [f"0{' ' * (label_width + width - len(str(makespan)))}"
             f"{makespan}"]
    for name in names:
        row = "".join(rows.get(name, ["."] * width))
        lines.append(f"{name.ljust(label_width)} {row}")
    lines.append(f"{' ' * label_width} #=compute  ~=busy-wait  "
                 f".=stall/idle")
    return "\n".join(lines)


def utilization_profile(result: RunResult,
                        buckets: int = 10) -> List[float]:
    """Fraction of processor-cells computing, per makespan bucket.

    A pipeline shows a ramp (fill), a plateau, and a drain; a barrier
    workload shows a sawtooth.  Used by tests to characterize shapes
    without eyeballing.
    """
    activity = result.extra.get("activity", [])
    makespan = max(result.makespan, 1)
    n_tasks = max(len(result.processors), 1)
    cells = [0.0] * buckets
    for _task, kind, start, end in activity:
        if kind != "busy":
            continue
        for bucket in range(buckets):
            bucket_start = makespan * bucket / buckets
            bucket_end = makespan * (bucket + 1) / buckets
            overlap = min(end, bucket_end) - max(start, bucket_start)
            if overlap > 0:
                cells[bucket] += overlap
    bucket_capacity = makespan / buckets * n_tasks
    return [round(cell / bucket_capacity, 4) for cell in cells]
