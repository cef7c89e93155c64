"""Read-only degradation: a dying disk demotes the server, not kills it.

ENOSPC/EIO on a journal append flips the JobStore read-only.  From
there the contract is: new submissions are refused with 503 (the server
must not acknowledge work it cannot journal), dedup hits and status
reads still answer, in-flight work finishes on in-memory state, the
scheduler and the fleet coordinator stop claiming new work (the fleet
still *accepts* completed shard results), and ``/readyz`` reports the
degradation as ``journal_readonly``.
"""

import asyncio
import errno
import json

import pytest

from repro import faults
from repro.errors import ServerError
from repro.obs import MetricsRegistry
from repro.server import ExplorationServer
from repro.server.fleet import FleetCoordinator, execute_shard
from repro.server.http import Request
from repro.server.scheduler import Scheduler
from repro.server.store import JobStore, parse_submission

from .conftest import stub_worker


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    faults.deactivate()
    yield
    faults.deactivate()


def spec(program="kernel:fir", **extra):
    return parse_submission({"program": program, **extra})


def make_app(tmp_path, **kw):
    kw.setdefault("workers", 0)
    kw.setdefault("worker", stub_worker)
    return ExplorationServer(state_dir=tmp_path / "state", **kw)


def post_jobs(app, doc):
    return app.handle(Request("POST", "/jobs", body=json.dumps(doc).encode()))


def body(response):
    return json.loads(response.body.decode())


def force_read_only(store):
    store._enter_read_only(OSError(errno.ENOSPC, "No space left on device"))


class TestStore:
    def test_enospc_append_flips_read_only(self, tmp_path):
        store = JobStore(tmp_path)
        spec_path = tmp_path / "faults.json"
        spec_path.write_text(json.dumps({"faults": [
            {"site": "disk_full", "mode": "io_error", "max_hits": 1},
        ]}))
        faults.activate(str(spec_path))
        with pytest.raises(ServerError, match="journal"):
            store.submit(spec())
        assert store.read_only
        assert "journal append failed" in store.read_only_reason

    def test_read_only_refuses_new_but_dedups_old(self, tmp_path):
        store = JobStore(tmp_path)
        job, created = store.submit(spec())
        assert created
        force_read_only(store)
        # The dedup hit answers without touching the disk.
        again, created2 = store.submit(spec())
        assert not created2 and again is job
        # A genuinely new submission is refused before the medium.
        with pytest.raises(ServerError, match="read-only"):
            store.submit(spec(program="kernel:mm"))


class TestReadyz:
    def test_readyz_reports_journal_readonly(self, tmp_path):
        app = make_app(tmp_path)
        assert app.handle(Request("GET", "/readyz")).status == 200
        force_read_only(app.store)
        ready = app.handle(Request("GET", "/readyz"))
        assert ready.status == 200  # degraded, not dead: reads still work
        doc = body(ready)
        assert doc["status"] == "degraded"
        assert doc["reason"] == "journal_readonly"
        assert "journal append failed" in doc["detail"]

    def test_new_submission_503_dedup_200(self, tmp_path):
        app = make_app(tmp_path)
        first = post_jobs(app, {"program": "kernel:fir"})
        assert first.status == 201
        force_read_only(app.store)
        assert post_jobs(app, {"program": "kernel:fir"}).status == 200
        refused = post_jobs(app, {"program": "kernel:mm"})
        assert refused.status == 503

    def test_status_reads_still_answer(self, tmp_path):
        app = make_app(tmp_path)
        job_id = body(post_jobs(app, {"program": "kernel:fir"}))["job_id"]
        force_read_only(app.store)
        status = app.handle(Request("GET", f"/jobs/{job_id}"))
        assert status.status == 200
        assert body(status)["status"] == "queued"


class TestScheduler:
    def _make(self, tmp_path, worker=stub_worker, **kw):
        store = JobStore(tmp_path / "state")
        registry = MetricsRegistry()
        kw.setdefault("workers", 0)
        kw.setdefault("max_concurrency", 1)
        return store, Scheduler(store, registry, worker=worker, **kw)

    def test_no_claims_while_read_only(self, tmp_path):
        store, scheduler = self._make(tmp_path)
        store.submit(spec())
        force_read_only(store)

        async def go():
            task = asyncio.ensure_future(scheduler.run())
            await asyncio.sleep(0.2)
            scheduler.begin_drain()
            await asyncio.wait_for(task, 10)

        asyncio.run(go())
        assert store.queue_depth == 1  # never claimed
        assert store.counts()["done"] == 0

    def test_in_flight_job_finishes(self, tmp_path):
        holder = {}

        def demoting_worker(payload):
            # The disk dies while this job is already executing.
            force_read_only(holder["store"])
            return stub_worker(payload)

        store, scheduler = self._make(tmp_path, worker=demoting_worker)
        holder["store"] = store
        store.submit(spec())
        store.submit(spec(program="kernel:mm"))

        async def go():
            task = asyncio.ensure_future(scheduler.run())
            while store.counts()["done"] < 1:
                await asyncio.sleep(0.01)
            scheduler.begin_drain()
            await asyncio.wait_for(task, 30)

        asyncio.run(go())
        # The claimed job completed on in-memory state; the queued one
        # was never claimed after the demotion.
        assert store.counts() == {"queued": 1, "running": 0, "done": 1}


class TestFleet:
    def test_no_dispatch_but_results_accepted(self, tmp_path):
        store = JobStore(tmp_path / "state")
        coordinator = FleetCoordinator(store, shard_points=8)
        job, _ = store.submit(spec())
        coordinator.register("w1")
        shard = coordinator.claim("w1")
        assert shard is not None
        result = execute_shard(shard)
        force_read_only(store)
        # Refuses to hand out more work…
        assert coordinator.claim("w1") is None
        # …but a result already in flight is not thrown away.
        assert coordinator.complete("w1", result["shard_id"], result)
        # Recovery: once writable again, dispatch resumes where it was.
        store.read_only = False
        store.read_only_reason = None
        while True:
            shard = coordinator.claim("w1")
            if shard is None:
                break
            done = execute_shard(shard)
            coordinator.complete("w1", done["shard_id"], done)
        assert job.status == "done" and job.result == "ok"
