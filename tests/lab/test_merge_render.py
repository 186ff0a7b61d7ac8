"""The merged store's bytes, pinned against ``json.dumps``.

``merge_records`` must write exactly
``json.dumps(store, sort_keys=True, indent=1, ensure_ascii=True) +
"\\n"`` of the store it leaves behind, whatever sequence of batches
built it and whatever state the file started in.  That reference
encoding lives here only: these tests are what let the merge render
its records any way it likes.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.lab.record import RECORD_SCHEMA_VERSION, merge_records
from repro.sim.metrics import EXTRA_SCHEMA_VERSION


def reference(records) -> bytes:
    """The bytes a store holding ``records`` (key -> record) must have."""
    store = {"schema_version": RECORD_SCHEMA_VERSION, "records": records}
    return (json.dumps(store, sort_keys=True, indent=1, ensure_ascii=True)
            + "\n").encode()


def record(key, **fields):
    return {"schema_version": RECORD_SCHEMA_VERSION,
            "extra_schema_version": EXTRA_SCHEMA_VERSION, "key": key,
            "config": {"app": "fig2.1", "app_params": {"n": 12}},
            "outcome": "ok", "metrics": {"makespan": 100}, **fields}


def stale(key):
    return dict(record(key), schema_version=RECORD_SCHEMA_VERSION - 1)


#: each start state: the file's text (None: no file) and the records
#: a merge keeps from it
STARTS = {
    "missing": (None, {}),
    "zero-byte": ("", {}),
    "empty-store": (reference({}).decode(), {}),
    "stale-predecessors": (
        json.dumps({"schema_version": RECORD_SCHEMA_VERSION,
                    "records": {"a": stale("a"), "old": stale("old"),
                                "kept": record("kept")}}),
        {"kept": record("kept")}),
}

BATCHES = [
    [record("b"), record("a", metrics={"makespan": 7})],
    [],
    # same-key overwrites, one of them twice within the batch
    [record("a", outcome="later"), record("c"), record("c", outcome="x")],
    [record("é\"\\\n"), record("b", metrics=None)],
    # a batch that changes nothing
    [record("b", metrics=None)],
]


@pytest.mark.parametrize("start", sorted(STARTS))
def test_every_merge_leaves_the_reference_bytes(tmp_path, start):
    path = tmp_path / "store.json"
    text, expected = STARTS[start]
    if text is not None:
        path.write_text(text)
    expected = dict(expected)
    for batch in BATCHES:
        merge_records(path, batch)
        for rec in batch:
            expected[rec["key"]] = rec
        assert path.read_bytes() == reference(expected)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("inf")]),
    st.text(), st.sampled_from(["\"", "\\", "\n\t\r", "\x00\x1f",
                                " ", "é", "\U0001f600", ""]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)
RECORDS = st.lists(
    st.tuples(st.text(max_size=6),
              st.dictionaries(st.text(max_size=8), VALUES, max_size=5)),
    min_size=0, max_size=6)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(records=RECORDS, split=st.integers(min_value=0, max_value=6))
def test_random_records_render_as_the_reference(records, split):
    """Over random JSON values (escapes, non-ASCII keys and values,
    -0.0, 1e300, nan, nested and empty containers), a store merged in
    two batches is the reference encoding of the union."""
    batch = [{**fields, "key": key, "schema_version": RECORD_SCHEMA_VERSION,
              "extra_schema_version": EXTRA_SCHEMA_VERSION}
             for key, fields in records]
    expected = {rec["key"]: rec for rec in batch}
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "store.json"
        merge_records(path, batch[:split])
        merge_records(path, batch[split:])
        assert path.read_bytes() == reference(expected)


# -- the rendered records a process keeps between merges ----------------


def test_a_same_length_rewrite_is_read_again(tmp_path):
    """Bytes other than the ones this process wrote are parsed afresh,
    even at the same size and mtime: a foreign record survives."""
    path = tmp_path / "store.json"
    merge_records(path, [record("a1")])
    written = path.read_bytes()
    before = path.stat()
    foreign = written.replace(b'"a1"', b'"b1"')
    assert len(foreign) == len(written) and foreign != written
    with open(path, "r+b") as handle:
        handle.write(foreign)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    merge_records(path, [record("c")])
    assert path.read_bytes() == reference({"b1": record("b1"),
                                           "c": record("c")})


@pytest.mark.parametrize("batches", [[[record("a")], [record("a")]],
                                     [[record("a"), record("b")], []]],
                         ids=["same-records", "empty-batch"])
def test_a_merge_that_changes_nothing_writes_nothing(tmp_path, batches):
    path = tmp_path / "store.json"
    first, again = batches
    merge_records(path, first)
    written, before = path.read_bytes(), path.stat()
    merge_records(path, again)
    after = path.stat()
    assert path.read_bytes() == written
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_a_stale_record_in_a_batch_is_dropped_by_the_next_merge(tmp_path):
    path = tmp_path / "store.json"
    merge_records(path, [record("a"), stale("old")])
    assert path.read_bytes() == reference({"a": record("a"),
                                           "old": stale("old")})
    merge_records(path, [record("b")])
    assert path.read_bytes() == reference({"a": record("a"),
                                           "b": record("b")})


def test_threads_merging_disjoint_batches_keep_the_union(tmp_path):
    path = tmp_path / "store.json"
    threads_n, merges = 4, 5
    errors = []

    def merge_all(thread):
        try:
            for step in range(merges):
                merge_records(path, [record(f"t{thread}-{step}-{half}")
                                     for half in range(2)])
        except Exception as err:  # reported by the assertion below
            errors.append(err)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=merge_all, args=(thread,))
                   for thread in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    expected = {f"t{thread}-{step}-{half}":
                record(f"t{thread}-{step}-{half}")
                for thread in range(threads_n) for step in range(merges)
                for half in range(2)}
    assert path.read_bytes() == reference(expected)
