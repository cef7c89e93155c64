"""HTTP semantics: routing, admission control, drain, live sockets."""

import json

import pytest

from repro.errors import ServerError
from repro.server import ExplorationServer, QueueFull
from repro.server import client as http_client
from repro.server.http import Request

from .conftest import stub_worker, wait_until


def make_app(tmp_path, **kw):
    kw.setdefault("workers", 0)
    kw.setdefault("worker", stub_worker)
    return ExplorationServer(state_dir=tmp_path / "state", **kw)


def post_jobs(app, doc):
    return app.handle(Request("POST", "/jobs", body=json.dumps(doc).encode()))


def body(response):
    return json.loads(response.body.decode())


class TestRouting:
    def test_unknown_route_404(self, tmp_path):
        app = make_app(tmp_path)
        assert app.handle(Request("GET", "/nope")).status == 404

    def test_wrong_method_405(self, tmp_path):
        app = make_app(tmp_path)
        assert app.handle(Request("DELETE", "/jobs/abc")).status == 405
        assert app.handle(Request("PUT", "/healthz")).status == 405

    def test_unknown_job_404(self, tmp_path):
        app = make_app(tmp_path)
        assert app.handle(Request("GET", "/jobs/job-000")).status == 404
        assert app.handle(Request("GET", "/jobs/job-000/report")).status == 404

    def test_bad_json_400(self, tmp_path):
        app = make_app(tmp_path)
        response = app.handle(Request("POST", "/jobs", body=b"{nope"))
        assert response.status == 400

    def test_invalid_submission_400(self, tmp_path):
        app = make_app(tmp_path)
        assert post_jobs(app, {"program": "kernel:nothere"}).status == 400
        assert post_jobs(app, {"program": "kernel:fir",
                               "board": "quantum"}).status == 400


class TestAdmission:
    def test_submit_create_then_dedup(self, tmp_path):
        app = make_app(tmp_path)
        first = post_jobs(app, {"program": "kernel:fir"})
        assert first.status == 201
        doc = body(first)
        assert doc["created"] is True

        second = post_jobs(app, {"program": "kernel:fir"})
        assert second.status == 200
        assert body(second)["job_id"] == doc["job_id"]
        assert body(second)["created"] is False

    def test_queue_full_429_with_retry_after(self, tmp_path):
        app = make_app(tmp_path, queue_limit=2)
        assert post_jobs(app, {"program": "kernel:fir"}).status == 201
        assert post_jobs(app, {"program": "kernel:mm"}).status == 201
        bounced = post_jobs(app, {"program": "kernel:jac"})
        assert bounced.status == 429
        assert bounced.headers["Retry-After"] == "1"
        # a duplicate of an admitted job still dedups (no new queue slot)
        assert post_jobs(app, {"program": "kernel:fir"}).status == 200
        counters = app.registry.snapshot()["counters"]
        assert counters["server.jobs.rejected"] == 1

    def test_draining_refuses_submissions(self, tmp_path):
        app = make_app(tmp_path)
        app.draining = True
        assert post_jobs(app, {"program": "kernel:fir"}).status == 503
        ready = app.handle(Request("GET", "/readyz"))
        assert ready.status == 503
        health = app.handle(Request("GET", "/healthz"))
        assert health.status == 200  # alive, just not ready


class TestDocuments:
    def test_status_and_report_lifecycle(self, tmp_path):
        app = make_app(tmp_path)
        job_id = body(post_jobs(app, {"program": "kernel:fir"}))["job_id"]

        status = body(app.handle(Request("GET", f"/jobs/{job_id}")))
        assert status["status"] == "queued"

        pending = app.handle(Request("GET", f"/jobs/{job_id}/report"))
        assert pending.status == 202

        job = app.store.claim_next()
        app.store.finish_ok(job, stub_worker(job.spec.to_payload()))
        done = app.handle(Request("GET", f"/jobs/{job_id}/report"))
        assert done.status == 200
        doc = body(done)
        assert doc["status"] == "ok"
        assert doc["result"]["cycles"] == 100

    def test_failed_report_carries_typed_failure(self, tmp_path):
        app = make_app(tmp_path)
        job_id = body(post_jobs(app, {"program": "kernel:fir"}))["job_id"]
        job = app.store.claim_next()
        app.store.finish_failed(job, {"kind": "estimation",
                                      "transient": False})
        doc = body(app.handle(Request("GET", f"/jobs/{job_id}/report")))
        assert doc["status"] == "failed"
        assert doc["failure"]["kind"] == "estimation"

    def test_healthz_echoes_version(self, tmp_path):
        from repro.version import get_version
        app = make_app(tmp_path)
        doc = body(app.handle(Request("GET", "/healthz")))
        assert doc["version"] == get_version()
        assert doc["jobs"] == {"queued": 0, "running": 0, "done": 0}

    def test_metrics_exposes_prometheus_text(self, tmp_path):
        app = make_app(tmp_path)
        post_jobs(app, {"program": "kernel:fir"})
        post_jobs(app, {"program": "kernel:fir"})
        response = app.handle(Request("GET", "/metrics"))
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body.decode()
        assert "# TYPE repro_server_jobs_submitted counter" in text
        assert "repro_server_jobs_submitted 1" in text
        assert "repro_server_jobs_deduped 1" in text
        assert "repro_server_queue_depth 1" in text


class TestLiveServer:
    """Real sockets: the urllib client against a served instance."""

    def test_end_to_end_submit_poll_report(self, live_server_factory):
        live = live_server_factory()
        url = live.base_url

        reply = http_client.submit_job(url, {"program": "kernel:fir"})
        assert reply["created"] is True
        job_id = reply["job_id"]

        dup = http_client.submit_job(url, {"program": "kernel:fir"})
        assert dup["job_id"] == job_id and dup["created"] is False

        assert wait_until(
            lambda: http_client.job_report(url, job_id)[0]
        ), "job never finished"
        done, doc = http_client.job_report(url, job_id)
        assert done and doc["status"] == "ok"
        assert doc["result"]["speedup"] == 2.0

        health = http_client.server_health(url)
        assert health["status"] == "ok"

        metrics = http_client.server_metrics(url)
        assert "repro_server_jobs_completed 1" in metrics
        assert "repro_stub_jobs 1" in metrics  # merged worker counter

    def test_client_maps_429_to_queue_full(self, live_server_factory):
        import threading
        release = threading.Event()

        def gated(payload):
            release.wait(30)
            return stub_worker(payload)

        live = live_server_factory(worker=gated, queue_limit=1,
                                   max_concurrency=1,
                                   state_name="state-full")
        try:
            # first job occupies the single slot (worker blocks), the
            # second fills the one-deep queue, the third must bounce
            http_client.submit_job(live.base_url, {"program": "kernel:fir"})
            assert wait_until(
                lambda: live.server.scheduler.inflight_count == 1
            )
            http_client.submit_job(live.base_url, {"program": "kernel:mm"})
            with pytest.raises(QueueFull) as caught:
                http_client.submit_job(live.base_url,
                                       {"program": "kernel:jac"})
            assert caught.value.retry_after == 1.0
            assert caught.value.transient
            # dedup of the *running* job still answers 200, not 429
            dup = http_client.submit_job(live.base_url,
                                         {"program": "kernel:fir"})
            assert dup["created"] is False
        finally:
            release.set()

    def test_unknown_job_raises_server_error(self, live_server_factory):
        live = live_server_factory(state_name="state-404")
        with pytest.raises(ServerError):
            http_client.job_status(live.base_url, "job-does-not-exist")

    def test_unreachable_server_is_typed(self):
        with pytest.raises(ServerError):
            http_client.server_health("http://127.0.0.1:1", timeout_s=0.5)

    def test_drain_summary_counts_done_jobs(self, live_server_factory):
        live = live_server_factory(state_name="state-drain")
        url = live.base_url
        job_id = http_client.submit_job(url, {"program": "kernel:fir"})["job_id"]
        assert wait_until(lambda: http_client.job_report(url, job_id)[0])
        summary = live.stop()
        assert summary == {"queued": 0, "running": 0, "done": 1}
