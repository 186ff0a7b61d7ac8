"""The content-addressed result cache: hits, misses, invalidation."""

from __future__ import annotations

import json

import pytest

from repro.lab import ResultCache, SweepOptions, SweepSpec, run_sweep
from repro.lab.cache import source_fingerprint
from repro.lab.store import open_envelope, seal_record
from repro.lab.record import (RECORD_SCHEMA_VERSION, merge_records,
                              record_is_current)
from repro.sim.metrics import EXTRA_SCHEMA_VERSION


def tiny_spec(n=10):
    """A one-cell spec small enough to simulate dozens of times."""
    return SweepSpec.build("tiny", apps=[("fig2.1", {"n": n, "cost": 4})],
                           schemes=["process-oriented"], processors=(2,))


def test_hit_on_identical_spec(tmp_path):
    cold = run_sweep(tiny_spec(), options=SweepOptions(cache_dir=tmp_path))
    assert (cold.hits, cold.misses) == (0, 1)
    warm = run_sweep(tiny_spec(), options=SweepOptions(cache_dir=tmp_path))
    assert (warm.hits, warm.misses) == (1, 0)
    assert warm.all_cached
    assert warm.records == cold.records


def test_miss_on_config_change(tmp_path):
    run_sweep(tiny_spec(n=10), options=SweepOptions(cache_dir=tmp_path))
    changed = run_sweep(tiny_spec(n=12), options=SweepOptions(cache_dir=tmp_path))
    assert changed.misses == 1 and changed.hits == 0


def test_miss_on_source_fingerprint_change(tmp_path):
    before = ResultCache(tmp_path, fingerprint="aaaa")
    run_sweep(tiny_spec(), options=SweepOptions(cache=before))
    # same config, same cache dir, "edited" source tree
    after = ResultCache(tmp_path, fingerprint="bbbb")
    report = run_sweep(tiny_spec(), options=SweepOptions(cache=after))
    assert report.misses == 1 and report.hits == 0
    # ...and the original fingerprint still hits
    again = ResultCache(tmp_path, fingerprint="aaaa")
    assert run_sweep(tiny_spec(), options=SweepOptions(cache=again)).all_cached


def test_fingerprint_tracks_source_bytes(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    first = source_fingerprint(root=tree)
    assert first == source_fingerprint(root=tree)
    (tree / "a.py").write_text("x = 2\n")
    assert source_fingerprint(root=tree) != first


def test_stale_schema_record_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_spec()
    run_sweep(spec, options=SweepOptions(cache=cache))
    key = cache.key_for(spec.cells()[0].config())
    entry = tmp_path / f"{key}.json"
    record = open_envelope(entry.read_text())
    assert record_is_current(record)

    # a record written by older code (previous extra schema) must be
    # detected and re-simulated, never served
    record["extra_schema_version"] = 0
    entry.write_text(seal_record(record))
    assert not record_is_current(record)
    report = run_sweep(spec, options=SweepOptions(cache=ResultCache(tmp_path)))
    assert report.misses == 1
    reread = open_envelope(entry.read_text())
    assert reread["extra_schema_version"] != 0


def test_merge_drops_stale_store_records(tmp_path):
    store_path = tmp_path / "store.json"
    stale = {"schema_version": RECORD_SCHEMA_VERSION - 1,
             "extra_schema_version": 0, "key": "old", "config": {},
             "outcome": "ok", "metrics": None}
    store_path.write_text(json.dumps(
        {"schema_version": RECORD_SCHEMA_VERSION,
         "records": {"old": stale}}))
    report = run_sweep(tiny_spec(), options=SweepOptions(cache_dir=None,
                       json_path=store_path))
    merged = json.loads(store_path.read_text())
    assert "old" not in merged["records"]
    assert report.records[0]["key"] in merged["records"]


def test_merge_overwrites_same_key(tmp_path):
    store_path = tmp_path / "store.json"
    record = dict(run_sweep(tiny_spec(),
                  options=SweepOptions(cache_dir=None)).records[0])
    merge_records(store_path, [record])
    record2 = dict(record, outcome="later")
    merge_records(store_path, [record2])
    merged = json.loads(store_path.read_text())
    assert len(merged["records"]) == 1
    assert merged["records"][record["key"]]["outcome"] == "later"


@pytest.mark.parametrize("text", [
    '{"records": {"a": {"key": "a"}}, "schema_ver',
    '[1, 2]',
    '{"records": [1], "schema_version": 1}',
    None,
], ids=["truncated", "array", "records-array", "same-length-garbage"])
def test_merge_refuses_a_store_it_cannot_read(tmp_path, text):
    """A store that is not a record store is named and left byte for
    byte as it was, never replaced by the new records alone -- also
    when this process merged into it before the rewrite."""
    store_path = tmp_path / "store.json"
    merge_records(store_path, [dict(
        key="first", outcome="ok", schema_version=RECORD_SCHEMA_VERSION,
        extra_schema_version=EXTRA_SCHEMA_VERSION)])
    if text is None:  # the bytes just written, torn at the end
        text = store_path.read_text()[:-2] + "x\n"
    store_path.write_text(text)
    for records in ([], [{"key": "k", "outcome": "ok"}]):
        with pytest.raises(ValueError, match=str(store_path)):
            merge_records(store_path, records)
        assert store_path.read_text() == text


def test_merge_treats_an_empty_file_as_an_empty_store(tmp_path):
    store_path = tmp_path / "store.json"
    store_path.write_text("")
    merge_records(store_path, [{"key": "k", "outcome": "ok"}])
    assert list(json.loads(store_path.read_text())["records"]) == ["k"]


def test_cache_counts_hits_and_misses(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(tiny_spec(), options=SweepOptions(cache=cache))
    run_sweep(tiny_spec(), options=SweepOptions(cache=cache))
    assert (cache.hits, cache.misses) == (1, 1)


def test_disabled_cache_always_simulates(tmp_path):
    first = run_sweep(tiny_spec(), options=SweepOptions(cache_dir=None))
    second = run_sweep(tiny_spec(), options=SweepOptions(cache_dir=None))
    assert first.misses == second.misses == 1
    assert first.records == second.records
    assert not list(tmp_path.iterdir())
