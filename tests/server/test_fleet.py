"""Fleet mechanics: shard planning, deterministic merge, coordinator
dispatch/rehoming, journal adoption, HTTP surface, and the degraded
``/readyz`` regression."""

import json

import pytest

from repro import faults
from repro.incremental.journal import open_memo, release_memo
from repro.obs import MetricsRegistry, use_registry
from repro.server import ExplorationServer
from repro.server.fleet import (
    FleetCoordinator, execute_shard, merge_shard_results, plan_shards,
)
from repro.server.http import Request
from repro.server.store import JobStore, parse_submission, submission_hash

from .conftest import stub_worker
from .test_leases import FakeClock


def fir_spec():
    return parse_submission({"program": "kernel:fir"})


def fir_plan(shard_points=8):
    spec = fir_spec()
    return spec, plan_shards(spec, submission_hash(spec),
                             shard_points=shard_points)


def run_shard(spec, shard):
    return execute_shard(shard.to_payload(spec))


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

class TestPlanning:
    def test_plan_is_deterministic(self):
        _, first = fir_plan()
        _, second = fir_plan()
        assert [s.shard_id for s in first.shards] == \
               [s.shard_id for s in second.shards]
        assert [s.points for s in first.shards] == \
               [s.points for s in second.shards]

    def test_shards_partition_the_lattice(self):
        _, plan = fir_plan(shard_points=8)
        union = [p for shard in plan.shards for p in shard.points]
        assert len(union) == plan.total_points
        assert len(set(union)) == plan.total_points  # no overlap

    def test_shard_ids_depend_on_content(self):
        spec = fir_spec()
        a = plan_shards(spec, submission_hash(spec), shard_points=8)
        b = plan_shards(spec, submission_hash(spec), shard_points=4)
        assert {s.shard_id for s in a.shards}.isdisjoint(
            {s.shard_id for s in b.shards}
        )

    def test_mirrors_explorer_auto_pinning(self):
        """mm's innermost reduction loop adds no memory parallelism, so
        the explorer pins it — the shard planner must agree or the
        fleet would walk a different lattice than one process."""
        spec = parse_submission({"program": "kernel:mm"})
        plan = plan_shards(spec, submission_hash(spec))
        assert plan.pinned_depths, "mm should have at least one pinned depth"
        for shard in plan.shards:
            for point in shard.points:
                assert all(point[d] == 1 for d in plan.pinned_depths)

    def test_bad_shard_points_rejected(self):
        spec = fir_spec()
        from repro.errors import ServiceError
        with pytest.raises(ServiceError):
            plan_shards(spec, submission_hash(spec), shard_points=0)


# ---------------------------------------------------------------------------
# Merge determinism
# ---------------------------------------------------------------------------

class TestMerge:
    def _results(self):
        spec, plan = fir_plan(shard_points=8)
        return [run_shard(spec, shard) for shard in plan.shards]

    def test_merge_is_order_independent(self):
        results = self._results()
        forward = merge_shard_results(results)
        backward = merge_shard_results(list(reversed(results)))
        assert forward == backward

    def test_sharding_is_invisible(self):
        """1 big shard vs many small shards: bit-identical merge."""
        spec, coarse = fir_plan(shard_points=10_000)
        _, fine = fir_plan(shard_points=4)
        one = merge_shard_results([run_shard(spec, s) for s in coarse.shards])
        many = merge_shard_results([run_shard(spec, s) for s in fine.shards])
        # Only the shard-count bookkeeping may differ.
        assert one.pop("shards") == 1 and many.pop("shards") == 11
        assert one == many

    def test_matches_exhaustive_oracle(self):
        spec, plan = fir_plan()
        merged = merge_shard_results(
            [run_shard(spec, s) for s in plan.shards]
        )
        from repro.dse.space import DesignSpace
        from repro.service.worker import (
            build_options, load_program, resolve_board,
        )
        program, kernel = load_program(spec.program)
        board = resolve_board(spec.board)
        _search, options = build_options(spec, kernel)
        oracle = DesignSpace(
            program, board, options, pinned_depths=plan.pinned_depths,
        ).exhaustive_search()
        assert tuple(merged["selected_unroll"]) == oracle.best.unroll.factors
        assert merged["cycles"] == oracle.best.cycles
        assert merged["space"] == oracle.best.space

    def test_pareto_front_is_non_dominated(self):
        merged = merge_shard_results(self._results())
        front = merged["pareto_front"]
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    a["cycles"] <= b["cycles"] and a["space"] <= b["space"]
                    and (a["cycles"] < b["cycles"] or a["space"] < b["space"])
                )
                assert not dominates

    def test_baseline_and_speedup(self):
        merged = merge_shard_results(self._results())
        assert merged["baseline_degraded"] is False
        assert merged["speedup"] == pytest.approx(
            merged["baseline_cycles"] / merged["cycles"]
        )

    def test_empty_results_raise(self):
        from repro.errors import NoFeasiblePoint
        with pytest.raises(NoFeasiblePoint):
            merge_shard_results([{"points": [], "infeasible_count": 3}])


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

def make_coordinator(tmp_path, ttl=10.0, shard_points=8, name="state"):
    clock = FakeClock()
    store = JobStore(tmp_path / name)
    coordinator = FleetCoordinator(
        store, lease_ttl_s=ttl, shard_points=shard_points, clock=clock,
    )
    return store, coordinator, clock


class TestShardMemo:
    def test_failed_flush_reaches_the_shard_stats(self, tmp_path):
        spec, plan = fir_plan()
        fault_spec = tmp_path / "disk_full.json"
        fault_spec.write_text(json.dumps({"faults": [{
            "site": "disk_full", "mode": "io_error", "jobs": ["memo"],
        }]}))
        memo_dir = tmp_path / "memo"
        payload = plan.shards[0].to_payload(spec)
        payload["runtime"] = {"memo_dir": str(memo_dir),
                              "fault_spec": str(fault_spec)}
        try:
            result = execute_shard(payload)
        finally:
            faults.deactivate()
            release_memo(memo_dir)
        assert result["points"]
        assert open_memo(memo_dir).counts()["point"] == 0
        assert result["memo"]["invalidations"] > 0


def drain_worker(coordinator, worker_id):
    """Claim and execute shards until the coordinator runs dry."""
    done = 0
    while True:
        shard = coordinator.claim(worker_id)
        if shard is None:
            return done
        result = execute_shard(shard)
        coordinator.complete(worker_id, result["shard_id"], result)
        done += 1


class TestCoordinator:
    def test_full_job_through_one_worker(self, tmp_path):
        store, coordinator, _ = make_coordinator(tmp_path)
        job, _ = store.submit(fir_spec())
        coordinator.register("w1")
        shards = drain_worker(coordinator, "w1")
        assert shards >= 2
        assert job.status == "done" and job.result == "ok"
        assert job.payload["shards"] == shards

    def test_unregistered_worker_cannot_claim(self, tmp_path):
        store, coordinator, _ = make_coordinator(tmp_path)
        store.submit(fir_spec())
        from repro.errors import ServiceError
        with pytest.raises(ServiceError):
            coordinator.claim("ghost")

    def test_exactly_one_job_started_per_job(self, tmp_path):
        store, coordinator, _ = make_coordinator(tmp_path)
        job, _ = store.submit(fir_spec())
        coordinator.register("w1")
        coordinator.register("w2")
        # Interleave two workers over the same job's shards.
        while job.status != "done":
            for worker in ("w1", "w2"):
                shard = coordinator.claim(worker)
                if shard is None:
                    continue
                result = execute_shard(shard)
                coordinator.complete(worker, result["shard_id"], result)
        started = [
            r for r in store.replay_records()
            if r.get("event") == "job_started" and r.get("job_id") == job.id
        ]
        assert len(started) == 1

    def test_two_workers_match_one_worker(self, tmp_path):
        store_a, solo, _ = make_coordinator(tmp_path, name="solo")
        job_a, _ = store_a.submit(fir_spec())
        solo.register("only")
        drain_worker(solo, "only")

        store_b, duo, _ = make_coordinator(tmp_path, name="duo")
        job_b, _ = store_b.submit(fir_spec())
        duo.register("w1")
        duo.register("w2")
        while job_b.status != "done":
            for worker in ("w2", "w1"):   # adversarial claim order
                shard = duo.claim(worker)
                if shard is None:
                    continue
                result = execute_shard(shard)
                duo.complete(worker, result["shard_id"], result)

        assert job_a.payload == job_b.payload

    def test_lease_expiry_rehomes_inflight_shard(self, tmp_path):
        store, coordinator, clock = make_coordinator(tmp_path, ttl=10.0)
        job, _ = store.submit(fir_spec())
        coordinator.register("doomed")
        shard = coordinator.claim("doomed")
        assert shard is not None
        # The worker dies silently: no result, no heartbeat.
        clock.advance(11.0)
        coordinator.register("survivor")
        assert coordinator.tick() == ["doomed"]
        assert coordinator.rehomed_total == 1
        drain_worker(coordinator, "survivor")
        assert job.status == "done" and job.result == "ok"
        events = [r["event"] for r in store.replay_records()]
        assert "lease_expired" in events
        assert "shard_rehomed" in events

    def test_late_duplicate_result_dropped(self, tmp_path):
        store, coordinator, clock = make_coordinator(tmp_path, ttl=10.0)
        job, _ = store.submit(fir_spec())
        coordinator.register("slow")
        shard = coordinator.claim("slow")
        late_result = execute_shard(shard)   # computed... then presumed dead
        clock.advance(11.0)
        coordinator.register("fast")
        coordinator.tick()
        drain_worker(coordinator, "fast")
        assert job.status == "done"
        # The zombie delivers after the job finished: dropped, counted.
        accepted = coordinator.complete(
            "slow", late_result["shard_id"], late_result
        )
        assert accepted is False
        assert coordinator.duplicate_results == 1
        done_events = [
            r for r in store.replay_records()
            if r.get("event") == "shard_done"
        ]
        shard_ids = [r["shard_id"] for r in done_events]
        assert len(shard_ids) == len(set(shard_ids))

    def test_restart_adopts_completed_shards(self, tmp_path):
        store, coordinator, _ = make_coordinator(tmp_path, shard_points=4)
        job, _ = store.submit(fir_spec())
        coordinator.register("w1")
        # Finish exactly two shards, then "crash" the coordinator.
        for _ in range(2):
            shard = coordinator.claim("w1")
            result = execute_shard(shard)
            coordinator.complete("w1", result["shard_id"], result)
        store.close()

        store2 = JobStore(tmp_path / "state")
        assert store2.resumed_running == 1  # the job itself re-queued
        coordinator2 = FleetCoordinator(store2, shard_points=4,
                                        clock=FakeClock())
        coordinator2.register("w2")
        fresh = 0
        while True:
            shard = coordinator2.claim("w2")
            if shard is None:
                break
            result = execute_shard(shard)
            coordinator2.complete("w2", result["shard_id"], result)
            fresh += 1
        job2 = store2.get(job.id)
        assert job2.status == "done" and job2.result == "ok"
        # The two journaled shards were adopted, not re-executed.
        spec, plan = fir_plan(shard_points=4)
        assert fresh == len(plan.shards) - 2

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        store, coordinator, clock = make_coordinator(tmp_path, ttl=10.0)
        coordinator.register("w1")
        for _ in range(5):
            clock.advance(6.0)
            assert coordinator.heartbeat("w1")
            assert coordinator.tick() == []
        clock.advance(11.0)
        assert not coordinator.heartbeat("w1")

    def test_metrics_counters(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store, coordinator, clock = make_coordinator(tmp_path)
            store.submit(fir_spec())
            coordinator.register("doomed")
            coordinator.claim("doomed")
            clock.advance(11.0)
            coordinator.register("survivor")
            coordinator.tick()
            drain_worker(coordinator, "survivor")
        counters = registry.snapshot()["counters"]
        assert counters["fleet.leases_expired"] == 1
        assert counters["fleet.shards_rehomed"] == 1
        assert counters["fleet.shards_done"] >= 2


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------

def make_app(tmp_path, **kw):
    kw.setdefault("workers", 0)
    kw.setdefault("worker", stub_worker)
    return ExplorationServer(state_dir=tmp_path / "state", **kw)


def post(app, path, doc):
    return app.handle(Request("POST", path, body=json.dumps(doc).encode()))


def body(response):
    return json.loads(response.body.decode())


class TestFleetHTTP:
    def test_routes_404_when_fleet_off(self, tmp_path):
        app = make_app(tmp_path)
        assert app.handle(Request("GET", "/fleet")).status == 404
        assert post(app, "/fleet/workers", {"worker": "w1"}).status == 404

    def test_register_heartbeat_claim_result_roundtrip(self, tmp_path):
        app = make_app(tmp_path, fleet=True, shard_points=8)
        post(app, "/jobs", {"program": "kernel:fir"})
        grant = post(app, "/fleet/workers", {"worker": "w1"})
        assert grant.status == 201
        assert body(grant)["ttl_s"] > 0
        assert post(app, "/fleet/heartbeat", {"worker": "w1"}).status == 200

        reply = post(app, "/fleet/claim", {"worker": "w1"})
        assert reply.status == 200
        shard = body(reply)["shard"]
        assert shard is not None
        result = execute_shard(shard)
        posted = post(app, "/fleet/result", {
            "worker": "w1", "shard_id": result["shard_id"],
            "result": result,
        })
        assert posted.status == 200
        assert body(posted)["accepted"] is True

        status = body(app.handle(Request("GET", "/fleet")))
        assert status["workers"] == ["w1"]

    def test_unleased_worker_gets_410(self, tmp_path):
        app = make_app(tmp_path, fleet=True)
        assert post(app, "/fleet/heartbeat",
                    {"worker": "ghost"}).status == 410
        assert post(app, "/fleet/claim", {"worker": "ghost"}).status == 410

    def test_malformed_fleet_requests_400(self, tmp_path):
        app = make_app(tmp_path, fleet=True)
        assert app.handle(
            Request("POST", "/fleet/workers", body=b"{nope")
        ).status == 400
        assert post(app, "/fleet/workers", {}).status == 400
        post(app, "/fleet/workers", {"worker": "w1"})
        assert post(app, "/fleet/result", {"worker": "w1"}).status == 400


# ---------------------------------------------------------------------------
# Satellite: degraded /readyz
# ---------------------------------------------------------------------------

class TestReadyzDegraded:
    def test_pool_failure_reports_degraded(self, tmp_path):
        """Regression: after the scheduler falls back to in-process
        serial execution, /readyz used to answer a plain {"ready": true}
        as if nothing had happened."""
        def refuse(count):
            raise OSError("no processes for you")

        import asyncio

        app = make_app(tmp_path, workers=2, executor_factory=refuse)
        post(app, "/jobs", {"program": "kernel:fir"})

        async def go():
            task = asyncio.ensure_future(app.scheduler.run())
            while app.store.queue_depth or app.scheduler.inflight_count:
                await asyncio.sleep(0.01)
            app.scheduler.begin_drain()
            await asyncio.wait_for(task, 30)
        asyncio.run(go())

        doc = body(app.handle(Request("GET", "/readyz")))
        assert doc == {
            "ready": True, "status": "degraded", "reason": "pool_failed",
        }

    def test_healthy_readyz_says_ok(self, tmp_path):
        app = make_app(tmp_path)
        response = app.handle(Request("GET", "/readyz"))
        assert response.status == 200
        assert body(response) == {"ready": True, "status": "ok"}

    def test_fleet_without_workers_degraded_once_queued(self, tmp_path):
        app = make_app(tmp_path, fleet=True)
        assert body(app.handle(Request("GET", "/readyz")))["status"] == "ok"
        post(app, "/jobs", {"program": "kernel:fir"})
        doc = body(app.handle(Request("GET", "/readyz")))
        assert doc["status"] == "degraded"
        assert doc["reason"] == "no_workers"
        post(app, "/fleet/workers", {"worker": "w1"})
        assert body(app.handle(Request("GET", "/readyz")))["status"] == "ok"

    def test_draining_still_503(self, tmp_path):
        app = make_app(tmp_path)
        app.draining = True
        assert app.handle(Request("GET", "/readyz")).status == 503
