"""Seeded orchestration-fault injection for the supervised executor.

:mod:`repro.faults` injects faults into the *simulated machine*; this
module injects them one layer up, into the orchestration of sweep
cells across worker processes -- the failure modes the supervisor in
:mod:`repro.lab.executor` exists to survive:

``crash``
    the worker process dies mid-cell (``os._exit``), exactly like an
    OOM kill or a segfault in a native extension;
``hang``
    the worker stops making progress for ``hang_seconds`` -- with a
    cell timeout configured the supervisor kills and re-dispatches;
``flaky``
    the cell raises a transient :class:`ChaosError`;
``corrupt``
    the worker returns garbage instead of a record;
``oversize``
    the worker returns a record bloated past the supervisor's result
    byte limit.

Determinism is the whole design: every draw is a pure function of
(chaos seed, cell key, fault kind, attempt number) -- never of
wall-clock time, worker identity, or arrival order -- so the same grid
under the same chaos spec fails in exactly the same places whether it
runs on 1 worker or 8.  A drawn fault fires on attempts
``0 .. fault_attempts-1`` and then stops, so every finitely-faulty
cell succeeds once the retry budget outlasts ``fault_attempts``; the
executor contract (the merged sweep store is byte-identical to a
fault-free run) follows directly.  ``always_fail`` key fragments
escape that guarantee on purpose: they fail every attempt, which is
how tests and CI exercise the quarantine path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Tuple

#: draw order; the first kind whose draw fires wins the attempt
FAULT_KINDS = ("crash", "hang", "flaky", "corrupt", "oversize")


class ChaosError(RuntimeError):
    """Transient injected failure raised inside a chaos-wrapped cell."""


def _unit(seed: int, key: str, kind: str) -> float:
    """A uniform [0, 1) draw pinned to (seed, cell key, fault kind)."""
    digest = hashlib.sha256(f"{seed}|{kind}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class ExecutorChaos:
    """Seeded description of the orchestration faults to inject."""

    seed: int = 0
    #: per-cell chance the worker process dies mid-cell
    crash_prob: float = 0.0
    #: per-cell chance the worker hangs for ``hang_seconds``
    hang_prob: float = 0.0
    #: per-cell chance the cell raises a transient :class:`ChaosError`
    flaky_prob: float = 0.0
    #: per-cell chance the worker returns a non-record
    corrupt_prob: float = 0.0
    #: per-cell chance the worker returns an oversized record
    oversize_prob: float = 0.0
    #: attempts on which a drawn fault keeps firing (1 = first try only)
    fault_attempts: int = 1
    #: how long an injected hang stalls the cell; with a cell timeout
    #: configured the supervisor kills the worker long before this
    hang_seconds: float = 3600.0
    #: padding bytes of an ``oversize`` record (must exceed the
    #: supervisor's result byte limit to actually trip it)
    oversize_bytes: int = 16 * 2 ** 20
    #: cell-key fragments whose cells raise on *every* attempt -- these
    #: exhaust any finite retry budget and land in quarantine
    always_fail: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            prob = getattr(self, f"{kind}_prob")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{kind}_prob must be in [0, 1], "
                                 f"got {prob}")
        if self.fault_attempts < 1:
            raise ValueError("fault_attempts must be >= 1, got "
                             f"{self.fault_attempts}")
        if not 0 <= self.hang_seconds < math.inf:  # sleep(nan) raises
            raise ValueError(f"hang_seconds {self.hang_seconds} must be "
                             f"finite and >= 0")
        if self.oversize_bytes < 0:
            raise ValueError(f"oversize_bytes {self.oversize_bytes} must be "
                             f">= 0")

    def draw(self, key: str, attempt: int) -> Optional[str]:
        """The fault kind to inject for this (cell, attempt), if any.

        Pure in (seed, key, kind): re-drawing the same cell gives the
        same answer regardless of worker count or dispatch order.
        """
        for fragment in self.always_fail:
            if fragment in key:
                return "flaky"
        if attempt >= self.fault_attempts:
            return None
        for kind in FAULT_KINDS:
            if _unit(self.seed, key, kind) < getattr(self, f"{kind}_prob"):
                return kind
        return None

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "ExecutorChaos":
        """Build a spec from CLI syntax, e.g. ``crash=0.2,flaky=0.5``.

        Keys are the fault kinds (probabilities), ``attempts``
        (``fault_attempts``), ``hang-seconds``, and ``always-fail`` (a
        cell-key fragment; repeatable).
        """
        kwargs: dict = {"seed": seed}
        fragments = []
        for token in filter(None, (t.strip() for t in text.split(","))):
            name, sep, value = token.partition("=")
            if not sep or not value:
                raise ValueError(f"bad chaos token {token!r}: expected "
                                 "KIND=VALUE")
            if name in FAULT_KINDS:
                kwargs[f"{name}_prob"] = float(value)
            elif name == "attempts":
                kwargs["fault_attempts"] = int(value)
            elif name == "hang-seconds":
                kwargs["hang_seconds"] = float(value)
            elif name == "always-fail":
                fragments.append(value)
            else:
                raise ValueError(
                    f"unknown chaos knob {name!r}; known: "
                    f"{', '.join(FAULT_KINDS)}, attempts, hang-seconds, "
                    "always-fail")
        if fragments:
            kwargs["always_fail"] = tuple(fragments)
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line summary for reports and CLI headers."""
        parts = [f"{kind}={getattr(self, f'{kind}_prob')}"
                 for kind in FAULT_KINDS
                 if getattr(self, f"{kind}_prob")]
        if self.always_fail:
            parts.append(f"always-fail={','.join(self.always_fail)}")
        return (f"seed {self.seed}: " + ", ".join(parts)) if parts else \
            f"seed {self.seed}: no faults"


#: storage-fault kinds :class:`StoreChaos` can inject, in applied order
STORE_FAULT_KINDS = ("bit-flips", "truncations", "torn-tmps",
                     "dead-claims", "torn-journal-lines")


@dataclass(frozen=True)
class StoreChaos:
    """Seeded injection of *storage* faults into a cache directory.

    :class:`ExecutorChaos` breaks the orchestration of cells;
    this breaks the bytes underneath it -- the failure modes
    :mod:`repro.lab.store` exists to survive:

    ``bit_flips``
        entries with one flipped payload bit -- valid JSON or not, the
        checksum must catch it;
    ``truncations``
        entries cut off mid-file, like a torn write on a full disk;
    ``torn_tmps``
        abandoned half-written ``*.tmp-*`` files from a fictitious
        long-dead writer, exactly what a SIGKILL mid-store leaves;
    ``dead_claims``
        claim files whose owner is gone and whose heartbeat is ancient
        -- a waiter must take these over, never honor them;
    ``torn_journal_lines``
        journal files truncated mid-line.

    Target selection is a pure function of (seed, fault kind, file
    name): the same cache contents under the same spec are damaged in
    exactly the same places, so every doctor/repair test is
    reproducible.  Each entry receives at most one fault kind.
    """

    seed: int = 0
    bit_flips: int = 0
    truncations: int = 0
    torn_tmps: int = 0
    dead_claims: int = 0
    torn_journal_lines: int = 0

    def __post_init__(self) -> None:
        for name in ("bit_flips", "truncations", "torn_tmps",
                     "dead_claims", "torn_journal_lines"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")

    def _pick(self, names: "list[str]", kind: str,
              count: int) -> "list[str]":
        ranked = sorted(names, key=lambda name: _unit(self.seed, name,
                                                      kind))
        return ranked[:count]

    def inject(self, root) -> "dict[str, list[str]]":
        """Damage the cache at ``root``; returns kind -> touched files.

        Mutates on-disk state only -- no process is harmed -- so it
        composes with live sweeps in tests and CI.
        """
        import json
        import os
        import pathlib
        import time

        from .store import CLAIMS_DIR, JOURNAL_DIR

        root = pathlib.Path(root)
        touched: "dict[str, list[str]]" = {kind: []
                                           for kind in STORE_FAULT_KINDS}
        entries = sorted(path.name for path in root.glob("*.json")
                         if path.is_file())
        taken: "set[str]" = set()

        for name in self._pick(entries, "bit-flip", self.bit_flips):
            path = root / name
            data = bytearray(path.read_bytes())
            if not data:
                continue
            offset = int(_unit(self.seed, name, "bit-flip-at")
                         * len(data))
            data[offset] ^= 1 << int(
                _unit(self.seed, name, "bit-flip-bit") * 8)
            path.write_bytes(bytes(data))
            taken.add(name)
            touched["bit-flips"].append(name)

        candidates = [name for name in entries if name not in taken]
        for name in self._pick(candidates, "truncate", self.truncations):
            path = root / name
            data = path.read_bytes()
            keep = max(1, int(_unit(self.seed, name, "truncate-at")
                              * max(1, len(data) - 1)))
            path.write_bytes(data[:keep])
            taken.add(name)
            touched["truncations"].append(name)

        ancient = time.time() - 7 * 24 * 3600
        for index, name in enumerate(
                self._pick(entries, "torn-tmp", self.torn_tmps)):
            tmp = root / f"{name}.tmp-{os.getpid()}-chaos{index}"
            tmp.write_text('{"torn": "half-written entr')
            os.utime(tmp, (ancient, ancient))
            touched["torn-tmps"].append(tmp.name)

        if self.dead_claims:
            claims_dir = root / CLAIMS_DIR
            claims_dir.mkdir(parents=True, exist_ok=True)
            for name in self._pick(entries, "dead-claim",
                                   self.dead_claims):
                claim = claims_dir / f"{pathlib.Path(name).stem}.claim"
                claim.write_text(json.dumps(
                    {"pid": 2 ** 22 + 1, "host": "long-gone-host",
                     "key": pathlib.Path(name).stem}))
                os.utime(claim, (ancient, ancient))
                touched["dead-claims"].append(claim.name)

        if self.torn_journal_lines:
            journal_dir = root / JOURNAL_DIR
            journals = (sorted(path.name
                               for path in journal_dir.glob("*.jsonl"))
                        if journal_dir.is_dir() else [])
            for name in self._pick(journals, "torn-journal",
                                   self.torn_journal_lines):
                path = journal_dir / name
                text = path.read_text()
                if len(text) < 2:
                    continue
                path.write_text(text[:int(len(text) * 0.6)].rstrip("\n")
                                + '\n{"cell": "torn mid-app')
                touched["torn-journal-lines"].append(name)

        return touched

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "StoreChaos":
        """Build a spec from CLI syntax, e.g. ``bit-flips=3,torn-tmps=2``.

        Keys are the :data:`STORE_FAULT_KINDS`, each taking an integer
        count of files to damage.
        """
        kwargs: dict = {"seed": seed}
        for token in filter(None, (t.strip() for t in text.split(","))):
            name, sep, value = token.partition("=")
            if not sep or not value:
                raise ValueError(f"bad store-chaos token {token!r}: "
                                 "expected KIND=COUNT")
            if name not in STORE_FAULT_KINDS:
                raise ValueError(
                    f"unknown store-chaos kind {name!r}; known: "
                    f"{', '.join(STORE_FAULT_KINDS)}")
            kwargs[name.replace("-", "_")] = int(value)
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line summary for reports and CLI headers."""
        parts = [f"{kind}={getattr(self, kind.replace('-', '_'))}"
                 for kind in STORE_FAULT_KINDS
                 if getattr(self, kind.replace("-", "_"))]
        return (f"seed {self.seed}: " + ", ".join(parts)) if parts else \
            f"seed {self.seed}: no store faults"
