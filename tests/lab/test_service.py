"""The sweep service: shared pool, in-flight dedup, events, drain/resume.

The acceptance bar (pinned here and in the ``service-smoke`` CI job):
two clients racing overlapping grids through one service produce a
merged store byte-identical to a solo run over the union grid with
zero duplicated simulations, and a drained server's restart resumes
every interrupted job recomputing nothing already paid for.
"""

from __future__ import annotations

import json
import threading

from repro.lab import (CellDone, JobCancelled, JobDone, JobSubmitted,
                       ServiceClient, ServiceServer, SweepOptions,
                       SweepService, SweepSpec, diagnose, run_sweep)
from repro.lab.service import JOB_FILE_VERSION
from repro.lab.store import JOBS_DIR

import pytest


def n_grid(ns, name="svc"):
    return SweepSpec.build(
        name, apps=[("fig2.1", {"n": n, "cost": 4}) for n in ns],
        schemes=["process-oriented", "statement-oriented"],
        processors=(2,))


def paid_keys(handle):
    """Cell keys this job simulated itself (its cell-done events)."""
    return [event.key for event in handle._job.events
            if isinstance(event, CellDone)]


# -- concurrent jobs share one pool and one single-flight domain ----------


def test_overlapping_jobs_pay_for_the_union_exactly_once(tmp_path):
    """The tentpole acceptance: byte-identical store, zero dup sims."""
    solo_store = tmp_path / "solo.json"
    run_sweep(n_grid((10, 12, 14, 16)), options=SweepOptions(
        procs=2, cache_dir=tmp_path / "solo-cache", json_path=solo_store))

    store = tmp_path / "merged.json"
    options = SweepOptions(procs=2, cache_dir=tmp_path / "cache",
                           json_path=store)
    with SweepService(options) as service:
        barrier = threading.Barrier(2)
        handles = [None, None]

        def race(slot, ns):
            barrier.wait()
            handles[slot] = service.submit(n_grid(ns))

        threads = [threading.Thread(target=race, args=(slot, ns))
                   for slot, ns in enumerate([(10, 12, 14), (12, 14, 16)])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reports = [handle.result(timeout=300) for handle in handles]

        # each job saw all 6 of its cells, none failed
        for report in reports:
            assert not report.failed
            assert report.hits + report.misses == 6

        # zero duplicated simulations: the union grid (8 cells), each
        # paid for exactly once across both jobs
        paid = paid_keys(handles[0]) + paid_keys(handles[1])
        assert len(paid) == len(set(paid)) == 8

    # the merged store is byte-identical to the solo union run
    assert store.read_bytes() == solo_store.read_bytes()
    # durable job files are gone once their jobs completed
    assert not list((tmp_path / "cache" / JOBS_DIR).glob("job-*.json"))


def test_job_event_stream_is_dense_and_terminal(tmp_path):
    options = SweepOptions(procs=1, cache_dir=tmp_path / "cache")
    with SweepService(options) as service:
        handle = service.submit(n_grid((10, 12)))
        events = list(handle.events())
    assert isinstance(events[0], JobSubmitted)
    assert events[0].cells == 4
    assert isinstance(events[-1], JobDone)
    assert events[-1].status == "done"
    assert (events[-1].hits + events[-1].misses
            + events[-1].shared) == 4
    # per-job seq numbering is dense: a subscriber can detect any loss
    assert [event.seq for event in events] == list(range(len(events)))
    assert all(event.job == handle.job_id for event in events)


# -- cancel ---------------------------------------------------------------


def test_cancel_mid_job_stops_early_and_drops_the_job_file(tmp_path):
    options = SweepOptions(procs=1, cache_dir=tmp_path / "cache")
    with SweepService(options) as service:
        spec = n_grid(range(50, 130), name="cancel-me")  # 160 cells
        handle = service.submit(spec)
        job_file = (tmp_path / "cache" / JOBS_DIR
                    / f"{handle.job_id}.json")
        assert job_file.exists()

        sub = handle.events()
        for event in sub:
            if isinstance(event, CellDone):
                assert handle.cancel()
                break
        with pytest.raises(JobCancelled):
            handle.result(timeout=60)
        assert handle.state == "cancelled"
        # a client cancel is a decision, not an interruption: the job
        # file goes with it, a restart will not resurrect the job
        assert not job_file.exists()
        # cancelled well short of the grid
        assert handle._job.completed < 160
        # cancelling a finished job is a no-op
        assert not handle.cancel()


# -- subscriber backpressure ----------------------------------------------


def test_slow_subscriber_drops_oldest_and_sees_the_seq_gap(tmp_path):
    options = SweepOptions(procs=1, cache_dir=tmp_path / "cache")
    with SweepService(options) as service:
        handle = service.submit(n_grid((10, 12, 14, 16)))
        handle.result(timeout=300)
        total = len(handle._job.events)  # submitted + per-cell + done
        assert total >= 10

        # a subscriber too slow to drain 4 slots: replay overflows it
        sub = handle.events(max_pending=4)
        events = list(sub)
    assert len(events) == 4
    assert sub.dropped == total - 4
    # the loss is visible as a seq gap (nothing was silently skipped)
    assert events[0].seq == total - 4 > 0
    assert [event.seq for event in events] == \
        list(range(total - 4, total))
    # the newest events won: the terminal job-done survived the drops
    assert isinstance(events[-1], JobDone)


# -- drain / resume -------------------------------------------------------


def test_drain_interrupts_and_restart_resumes_without_recompute(tmp_path):
    cache_dir = tmp_path / "cache"
    spec = n_grid(range(50, 210), name="resumable")  # 320 cells
    options = SweepOptions(procs=2, cache_dir=cache_dir)

    first = SweepService(options).start()
    handle = first.submit(spec)
    job_file = cache_dir / JOBS_DIR / f"{handle.job_id}.json"
    sub = handle.events()
    done_before = 0
    for event in sub:
        if isinstance(event, CellDone):
            done_before += 1
            if done_before == 5:
                break
    assert first.drain() == [handle.job_id]
    with pytest.raises(JobCancelled, match="resume"):
        handle.result(timeout=60)
    assert handle.state == "interrupted"
    # the drain preserved the durable job file for the successor
    assert job_file.exists()
    paid_first = paid_keys(handle)
    assert 0 < len(paid_first) < 320
    first.close()

    # a fresh service on the same cache resumes the journaled job
    with SweepService(options) as second:
        rows = second.status()
        assert [row["job"] for row in rows] == [handle.job_id]
        resumed = second.handle(handle.job_id)
        report = resumed.result(timeout=600)
        assert not report.failed
        # every landed cell was recovered, never recomputed
        paid_second = paid_keys(resumed)
        assert not set(paid_first) & set(paid_second)
        assert len(paid_first) + len(paid_second) == 320
    assert not job_file.exists()


@pytest.mark.parametrize("refused", [
    {"spec": dict(n_grid((10,)).to_json(), schemes="process-oriented")},
    {"job": ["job-000002"]},
    {"job": "job-000001"},
    "{torn",
], ids=["bad-spec", "list-job-id", "job-id-of-another-file", "torn-json"])
def test_restart_quarantines_a_job_file_it_cannot_decode(tmp_path, refused):
    """A journaled job file whose spec or job id is refused is moved
    under ``quarantine/``: no restart re-reads it and ``doctor`` counts
    it as quarantined, not pending forever.  The good job beside it
    resumes."""
    cache_dir = tmp_path / "cache"
    jobs_dir = cache_dir / JOBS_DIR
    jobs_dir.mkdir(parents=True)
    good = {"job_file_version": JOB_FILE_VERSION, "job": "job-000001",
            "spec": n_grid((10,)).to_json()}
    (jobs_dir / "job-000001.json").write_text(json.dumps(good))
    (jobs_dir / "job-000002.json").write_text(
        refused if isinstance(refused, str)
        else json.dumps({**good, "job": "job-000002", **refused}))

    with SweepService(SweepOptions(procs=1, cache_dir=cache_dir)) as service:
        assert [row["job"] for row in service.status()] == ["job-000001"]
        assert not service.handle("job-000001").result(timeout=60).failed
    assert not list(jobs_dir.glob("*.json"))
    assert (cache_dir / "quarantine" / "job-000002.json").exists()
    counts = diagnose(cache_dir).counts
    assert (counts["pending_jobs"], counts["quarantined"]) == (0, 1)


# -- the socket surface ---------------------------------------------------


def test_socket_round_trip_submit_watch_result_cancel(tmp_path):
    socket_path = tmp_path / "svc.sock"
    options = SweepOptions(procs=1, cache_dir=tmp_path / "cache")
    with SweepService(options) as service, \
            ServiceServer(service, socket_path):
        client = ServiceClient(socket_path)
        assert client.wait_ready()["jobs"] == 0

        job = client.submit(n_grid((10, 12)).to_json())
        events = list(client.watch(job))
        assert isinstance(events[0], JobSubmitted)
        assert isinstance(events[-1], JobDone)
        assert [event.seq for event in events] == \
            list(range(len(events)))

        row = client.result(job, timeout=60)
        assert row["state"] == "done"
        assert row["completed"] == 4 and row["failed"] == 0
        assert client.status(job)[0]["state"] == "done"
        # cancel after completion reports False, not an error
        assert client.cancel(job) is False

        from repro.lab import ServiceError
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("job-999999")
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})
        # a bad spec is refused at submit, before any job exists
        bad = dict(n_grid((10,)).to_json(), schedules=["bogus"])
        with pytest.raises(ServiceError, match="unknown schedule 'bogus'"):
            client.submit(bad)
        # ...and so is a bad bare cell list
        cell = dict(n_grid((10,)).cells()[0].config(), plan="nope")
        with pytest.raises(ServiceError, match="unknown plan 'nope'"):
            client.submit({"cells": [cell]})
        # ...and so is an app param its builder does not take
        bad = dict(n_grid((10,)).to_json(), apps=[["fig2.1", {"m": 3}]])
        with pytest.raises(ServiceError, match="unknown param m=3"):
            client.submit(bad)
        # ...and so is a scalar where a list belongs, named whole
        bad = dict(n_grid((10,)).to_json(), schemes="process-oriented")
        with pytest.raises(ServiceError,
                           match="schemes 'process-oriented' in spec 'svc' "
                                 "must be a list"):
            client.submit(bad)
        assert len(client.status()) == 1
