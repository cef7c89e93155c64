"""Scheduler: dispatch, retries, drain, degraded mode, obs absorption."""

import asyncio
import json

import pytest

from repro.errors import EstimationError, TransientError
from repro.obs import MetricsRegistry
from repro.server.scheduler import Scheduler
from repro.server.store import DONE, JobStore, parse_submission

from .conftest import stub_worker


def spec(program="kernel:fir", **extra):
    return parse_submission({"program": program, **extra})


def drain(scheduler):
    """Run the scheduler until it finishes the queue and drains."""
    async def go():
        task = asyncio.ensure_future(scheduler.run())
        # let it claim and finish everything currently queued
        while scheduler.store.queue_depth or scheduler.inflight_count:
            await asyncio.sleep(0.01)
        scheduler.begin_drain()
        await asyncio.wait_for(task, 30)
    asyncio.run(go())


def make(tmp_path, worker=stub_worker, **kw):
    store = JobStore(tmp_path / "state")
    registry = MetricsRegistry()
    kw.setdefault("workers", 0)
    kw.setdefault("max_concurrency", 2)
    return store, registry, Scheduler(store, registry, worker=worker, **kw)


def test_runs_queued_jobs_to_done(tmp_path):
    store, registry, scheduler = make(tmp_path)
    a, _ = store.submit(spec())
    b, _ = store.submit(spec(program="kernel:mm"))
    drain(scheduler)
    assert a.status == DONE and a.result == "ok"
    assert b.status == DONE and b.result == "ok"
    assert a.payload["cycles"] == 100
    snap = registry.snapshot()
    assert snap["counters"]["server.jobs.completed"] == 2
    # worker-shipped metrics were merged into the server registry
    assert snap["counters"]["stub.jobs"] == 2


def test_transient_failure_retries_then_succeeds(tmp_path):
    calls = []

    def flaky(payload):
        calls.append(payload["id"])
        if len(calls) < 3:
            raise TransientError("backend flake")
        return stub_worker(payload)

    store, registry, scheduler = make(tmp_path, worker=flaky)
    job, _ = store.submit(spec(max_attempts=3))
    drain(scheduler)
    assert job.status == DONE and job.result == "ok"
    assert job.attempts == 3
    assert registry.snapshot()["counters"]["server.jobs.retried"] == 2


def test_transient_failure_exhausts_attempts(tmp_path):
    def always_flaky(payload):
        raise TransientError("still down")

    store, registry, scheduler = make(tmp_path, worker=always_flaky)
    job, _ = store.submit(spec(max_attempts=2))
    drain(scheduler)
    assert job.status == DONE and job.result == "failed"
    assert job.attempts == 2
    assert job.failure["kind"] == "transient"
    assert job.failure["transient"] is True


def test_permanent_failure_fails_fast(tmp_path):
    calls = []

    def broken(payload):
        calls.append(payload["id"])
        raise EstimationError("deterministic")

    store, registry, scheduler = make(tmp_path, worker=broken)
    job, _ = store.submit(spec(max_attempts=5))
    drain(scheduler)
    assert job.result == "failed"
    assert len(calls) == 1  # no retries for permanent failures
    counters = registry.snapshot()["counters"]
    assert counters['server.jobs.failed{kind=estimation}'] == 1


def test_drain_leaves_queued_jobs_queued(tmp_path):
    store, registry, scheduler = make(tmp_path, max_concurrency=1)
    for name in ("kernel:fir", "kernel:mm", "kernel:jac"):
        store.submit(spec(program=name))

    async def go():
        scheduler.begin_drain()  # drain before anything is claimed
        await asyncio.wait_for(scheduler.run(), 10)
    asyncio.run(go())
    assert store.queue_depth == 3  # nothing lost, nothing run

    # a restart sees them: replay re-queues from the journal
    reopened = JobStore(tmp_path / "state")
    assert reopened.resumed_queued == 3


def test_per_job_timeout_is_transient_and_bounded(tmp_path):
    import time as _time

    def slow(payload):
        _time.sleep(5.0)
        return stub_worker(payload)

    store, registry, scheduler = make(tmp_path, worker=slow)
    job, _ = store.submit(spec(timeout_s=0.2, max_attempts=1))
    drain(scheduler)
    assert job.result == "failed"
    assert job.failure["kind"] == "timeout"


def test_runtime_knobs_reach_the_payload(tmp_path):
    seen = {}

    def capture(payload):
        seen.update(payload)
        return stub_worker(payload)

    store, registry, scheduler = make(
        tmp_path, worker=capture,
        memo_dir=tmp_path / "memo",
        call_deadline_s=1.5, fault_spec="spec.json",
    )
    store.submit(spec())
    drain(scheduler)
    assert seen["runtime"] == {
        "call_deadline_s": 1.5,
        "fault_spec": "spec.json",
        "memo_dir": str(tmp_path / "memo"),
    }


def test_job_deadline_overrides_server_default(tmp_path):
    seen = {}

    def capture(payload):
        seen.update(payload)
        return stub_worker(payload)

    store, registry, scheduler = make(
        tmp_path, worker=capture, call_deadline_s=9.0,
    )
    store.submit(spec(call_deadline_s=0.5))
    drain(scheduler)
    assert seen["runtime"]["call_deadline_s"] == 0.5


def test_worker_spans_append_to_spans_file(tmp_path):
    def spanner(payload):
        result = stub_worker(payload)
        result["obs"]["spans"] = [{"name": "explore", "job": payload["id"]}]
        return result

    spans_path = tmp_path / "state" / "spans.jsonl"
    store, registry, scheduler = make(
        tmp_path, worker=spanner, spans_path=spans_path
    )
    store.submit(spec())
    store.submit(spec(program="kernel:mm"))
    drain(scheduler)
    lines = spans_path.read_text().splitlines()
    assert len(lines) == 2
    assert {json.loads(line)["name"] for line in lines} == {"explore"}


def test_pool_factory_failure_degrades_in_process(tmp_path):
    def refuse(count):
        raise OSError("no processes for you")

    store, registry, scheduler = make(
        tmp_path, workers=2, executor_factory=refuse
    )
    job, _ = store.submit(spec())
    drain(scheduler)
    assert job.result == "ok"  # degraded mode still ran it
    counters = registry.snapshot()["counters"]
    assert counters["server.pool_unavailable"] == 1


def test_queue_depth_gauge_tracks_store(tmp_path):
    store, registry, scheduler = make(tmp_path)
    store.submit(spec())
    drain(scheduler)
    assert registry.snapshot()["gauges"]["server.queue_depth"] == 0
