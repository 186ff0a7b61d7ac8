"""Shared building blocks for every ``python -m repro`` subcommand.

Each mode's parser is built from its entry in
:data:`repro.__main__.MODES`; the option groups here are shared across
modes, so the three IO/parallelism flags mean the same thing
everywhere:

``--json PATH``
    write the mode's machine-readable results (a JSON document) to PATH
    in addition to the human-readable report on stdout;
``--seed N``
    base seed for every seeded component (fault plans, sweep seed
    grids); deterministic modes accept and ignore it;
``--procs N``
    number of parallel worker processes used to fan out independent
    runs (1 = serial, identical output either way).  Above 1, every
    fan-out mode (``chaos``, ``sweep``, ``serve``) runs its cells
    through the one supervision loop,
    :class:`repro.lab.executor.PoolSupervisor`.

Modes that fan cells over supervised workers additionally share the
executor pair (``--cell-timeout`` / ``--max-retries``, see
:func:`add_executor_options`) and the SIGTERM-as-clean-shutdown
behavior of :func:`graceful_sigterm`.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import signal
from typing import Any, Callable


def positive(kind: Callable[[str], Any] = int, *,
             or_zero: bool = False) -> Callable[[str], Any]:
    """An argparse ``type``: ``kind`` values > 0 (>= 0 with ``or_zero``)."""
    def parse(text: str) -> Any:
        value = kind(text)
        if value < 0 or (value == 0 and not or_zero):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if or_zero else '>'} 0, got {text}")
        return value

    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = kind.__name__
    return parse


def add_common_options(parser: argparse.ArgumentParser, *,
                       procs_default: int = 1) -> argparse.ArgumentParser:
    """Attach the shared ``--json`` / ``--seed`` / ``--procs`` trio.

    Every subcommand gets these with identical names, types, defaults
    and semantics (see the module docstring); returns the parser for
    chaining.
    """
    parser.add_argument(
        "--json", type=pathlib.Path, default=None, metavar="PATH",
        help="also write machine-readable results as JSON to PATH")
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base seed for seeded components (fault plans, sweep "
             "seed grids)")
    parser.add_argument(
        "--procs", type=positive(), default=procs_default, metavar="N",
        help="parallel worker processes for fanned-out runs "
             f"(default {procs_default}; results are identical at "
             "any value)")
    return parser


def add_cache_options(parser: argparse.ArgumentParser, *,
                      no_cache: bool = False) -> argparse.ArgumentParser:
    """Attach the shared ``--cache-dir`` (and optionally ``--no-cache``).

    Every mode that touches the on-disk experiment store (``sweep``,
    ``doctor``) takes the same spelling; ``no_cache=True`` additionally
    offers the opt-out flag for modes where running uncached makes
    sense.
    """
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None, metavar="PATH",
        help="result cache directory (default .repro-cache)")
    if no_cache:
        parser.add_argument(
            "--no-cache", action="store_true",
            help="ignore and do not write the result cache")
    return parser


def add_executor_options(parser: argparse.ArgumentParser,
                         ) -> argparse.ArgumentParser:
    """Attach the supervised-executor pair shared by fan-out modes.

    ``--cell-timeout`` / ``--max-retries`` configure the
    :class:`repro.lab.executor.PoolSupervisor` supervision loop;
    any mode that fans cells over workers takes them with identical
    semantics.
    """
    from .lab.executor import DEFAULT_MAX_RETRIES

    parser.add_argument(
        "--cell-timeout", type=positive(float), default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget: a cell running longer is "
             "killed and re-dispatched (counts against --max-retries)")
    parser.add_argument(
        "--max-retries", type=positive(int, or_zero=True),
        default=DEFAULT_MAX_RETRIES, metavar="N",
        help="extra attempts per cell after the first, with capped "
             f"exponential backoff (default {DEFAULT_MAX_RETRIES}); "
             "cells that exhaust the budget are quarantined and "
             "reported, not fatal")
    return parser


def add_service_options(parser: argparse.ArgumentParser,
                        ) -> argparse.ArgumentParser:
    """Attach the shared ``--socket`` flag of the service modes.

    ``serve`` listens on it; ``submit`` / ``status`` / ``watch`` /
    ``cancel`` connect to it.  One spelling everywhere, so a client
    command line is always the server command line plus a verb.
    """
    parser.add_argument(
        "--socket", type=pathlib.Path,
        default=pathlib.Path(".repro-service.sock"), metavar="PATH",
        help="unix socket the sweep service listens on "
             "(default .repro-service.sock)")
    return parser


@contextlib.contextmanager
def graceful_sigterm():
    """Map SIGTERM to KeyboardInterrupt for the enclosed block.

    A supervised sweep cleans up identically for Ctrl-C and a polite
    kill: children terminated, journal flushed, no half-written
    stores.  Restores the previous handler on exit; a no-op where
    signals are unavailable (non-main thread).
    """
    def raise_interrupt(_signum, _frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, raise_interrupt)
    except ValueError:
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
