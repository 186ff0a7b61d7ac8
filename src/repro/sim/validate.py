"""Correctness validation of simulated parallel executions.

A synchronization scheme is *correct* when the parallel execution is
indistinguishable from the sequential one: every statement instance reads
the same values it would have read sequentially, and the final contents
of every program array match.  The validators here check exactly that
from the engine's access trace, plus (for schemes that do not rename
storage) that every dependence instance's source access committed before
its sink access.

Statement instances are identified by *tags*: ``(statement_id,
iteration)`` pairs that instrumented processes attach to their accesses
with :class:`~repro.sim.ops.Tag` ops.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .engine import AccessRecord
from .ops import Address

#: identifies one statement instance: (statement id, iteration id)
StatementTag = Tuple[Any, Any]


class ValidationError(AssertionError):
    """A simulated execution diverged from the sequential semantics."""


def mix(sid: Any, iteration: Any, reads: Sequence[Any]) -> int:
    """Deterministic value a statement instance computes from its reads.

    Both the parallel kernels and the sequential reference use this
    function, so any reordering that changes a read value changes every
    downstream value and is caught by the validators.  Unwritten memory
    reads as ``None`` and contributes a fixed constant.

    Seeded with ``zlib.crc32`` rather than ``hash()`` (which is salted
    per interpreter process) so that traces -- and the golden-trace
    fingerprints pinned from them -- are identical across runs.  The
    per-instance seed is memoized: it is a pure function of the tag,
    and the repr + crc32 otherwise dominate the statement hot path.
    """
    key = (sid, iteration)
    value = _MIX_SEEDS.get(key)
    if value is None:
        value = _MIX_SEEDS[key] = zlib.crc32(
            repr((str(sid), iteration)).encode())
    for read in reads:
        term = 0x9E3779B9 if read is None else int(read)
        value = (value * 31 + term) & 0xFFFFFFFF
    return value


_MIX_SEEDS: Dict[StatementTag, int] = {}


def statement_reads(trace: Iterable[AccessRecord]
                    ) -> Dict[StatementTag, List[Any]]:
    """Group read *values* by statement-instance tag, in commit order."""
    reads: Dict[StatementTag, List[Any]] = defaultdict(list)
    for record in trace:
        if record.kind == "R" and record.tag is not None:
            reads[record.tag].append(record.value)
    return dict(reads)


def check_reads_match_sequential(
        trace: Iterable[AccessRecord],
        expected: Dict[StatementTag, List[Any]],
        ignore_untagged: bool = True) -> None:
    """Every tagged statement instance must read the sequential values.

    ``expected`` comes from the sequential reference executor
    (:meth:`repro.depend.model.Loop.execute_sequential`).  This check is
    scheme-agnostic: it holds even for the instance-based scheme, which
    renames storage.
    """
    observed = statement_reads(trace)
    for tag, expected_values in expected.items():
        got = observed.get(tag, [])
        if got != list(expected_values):
            raise ValidationError(
                f"statement instance {tag} read {got}, "
                f"sequential execution reads {list(expected_values)}")
    if not ignore_untagged:
        extra = set(observed) - set(expected)
        if extra:
            raise ValidationError(f"unexpected tagged reads: {sorted(extra)}")


def check_reads_match_recovered(
        trace: Iterable[AccessRecord],
        expected: Dict[StatementTag, List[Any]]) -> None:
    """Sequential-read check tolerant of idempotent crash replay.

    A reincarnated task replays the unfinished part of its iteration, so
    a statement instance's tagged reads may appear *twice* in the trace —
    but every occurrence must still carry a sequential value.  We require
    the sequential read sequence to be a subsequence of the observed one
    and the observed value set to introduce nothing new.  This is exactly
    the guarantee replay provides: an un-signalled access's successors
    are still blocked, so re-reads return unchanged (sequential) values.
    """
    observed = statement_reads(trace)
    for tag, expected_values in expected.items():
        got = observed.get(tag, [])
        want = list(expected_values)
        it = iter(got)
        missing = [v for v in want if not any(g == v for g in it)]
        if missing:
            raise ValidationError(
                f"statement instance {tag} read {got}; sequential values "
                f"{want} are not a subsequence (missing {missing} even "
                f"allowing idempotent replay)")
        alien = [g for g in got if g not in want]
        if alien:
            raise ValidationError(
                f"statement instance {tag} read non-sequential values "
                f"{alien} during recovery replay (got {got}, sequential "
                f"{want})")


def check_final_state(final_memory: Dict[Address, Any],
                      expected: Dict[Address, Any],
                      arrays: Sequence[str]) -> None:
    """Final contents of the named arrays must match the sequential run."""
    for addr, value in expected.items():
        if addr[0] not in arrays:
            continue
        got = final_memory.get(addr)
        if got != value:
            raise ValidationError(
                f"final memory mismatch at {addr}: got {got}, "
                f"sequential execution leaves {value}")


#: one enforced ordering obligation: source instance's ``src_kind``
#: ("R"/"W") access to ``addr`` must commit before sink instance's
#: ``dst_kind`` access to the same ``addr``.
DependenceInstance = Tuple[StatementTag, StatementTag, Address, str, str]


def check_dependence_instances(
        trace: Iterable[AccessRecord],
        instances: Iterable[DependenceInstance]) -> None:
    """Check source-before-sink commit order on the shared element.

    The access kinds matter: an anti dependence orders a *read* before a
    *write*, and a statement instance may both read and write the same
    element.  Only meaningful for schemes that keep the original storage
    (reference keys, statement counters, process counters); the
    instance-based scheme renames addresses and is validated by value
    checks instead.
    """
    commits: Dict[Tuple[StatementTag, Address, str],
                  List[Tuple[int, str]]] = defaultdict(list)
    for record in trace:
        if record.tag is not None:
            commits[(record.tag, record.addr, record.kind)].append(
                (record.commit, record.task))

    for src_tag, dst_tag, addr, src_kind, dst_kind in instances:
        src_hits = commits.get((src_tag, addr, src_kind))
        dst_hits = commits.get((dst_tag, addr, dst_kind))
        if not src_hits or not dst_hits:
            raise ValidationError(
                f"missing access for dependence {src_tag} -> {dst_tag} "
                f"on {addr} (src={src_hits}, dst={dst_hits})")
        for src_time, src_task in src_hits:
            for dst_time, dst_task in dst_hits:
                if dst_time < src_time and dst_task != src_task:
                    # Same-task out-of-order commits are legal: program
                    # order plus store-to-load forwarding makes the sink
                    # see the source's value before its global commit.
                    raise ValidationError(
                        f"dependence violated: {src_tag} {src_kind}-"
                        f"accessed {addr} at {src_time} ({src_task}), "
                        f"after sink {dst_tag} {dst_kind} at {dst_time} "
                        f"({dst_task})")
