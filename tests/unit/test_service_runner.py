"""Unit tests for the batch runner: retries, timeouts, crashes, fallback.

The workers injected here are module-level functions (the process pool
pickles work items), each simulating one failure mode the engine must
survive.
"""

import os
import time

import pytest

from repro.errors import CorruptEstimate
from repro.service import (
    BatchManifest, BatchRunner, JobSpec, RunLedger, Telemetry, replay,
)


def _spec(job_id, program="kernel:fir", **overrides):
    return JobSpec(id=job_id, program=program, **overrides)


def _manifest(*specs):
    return BatchManifest(jobs=tuple(specs))


def _events(telemetry, name):
    return [event for event in telemetry.events if event.event == name]


# -- injected workers ---------------------------------------------------------

def _ok_worker(payload):
    return {
        "job_id": payload["id"],
        "selected_unroll": [1, 1],
        "cycles": 100, "space": 50, "speedup": 1.0, "balance": 1.0,
        "points_searched": 1, "design_space_size": 10,
        "cache_hits": 0, "cache_misses": 1,
        "wall_seconds": 0.0, "phase_seconds": {},
    }


def _failing_worker(payload):
    raise ValueError(f"boom for {payload['id']}")


def _flaky_worker(payload):
    """Fails on the first attempt; payload['program'] is a marker path."""
    marker = payload["program"]
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("tried")
        raise RuntimeError("first attempt fails")
    return _ok_worker(payload)


def _sleepy_worker(payload):
    time.sleep(2.0)
    return _ok_worker(payload)


def _crashing_worker(payload):
    if payload["id"].startswith("crash"):
        os._exit(3)  # simulate a segfaulting worker process
    return _ok_worker(payload)


def _permanent_worker(payload):
    raise CorruptEstimate("backend returned garbage")


def _recording_worker(log):
    """A worker that appends each job id it runs to ``log``."""
    def worker(payload):
        with open(log, "a") as stream:
            stream.write(payload["id"] + "\n")
        return _ok_worker(payload)
    return worker


# -- serial path --------------------------------------------------------------

class TestSerial:
    def test_results_in_manifest_order(self):
        manifest = _manifest(_spec("a"), _spec("b"), _spec("c"))
        result = BatchRunner(manifest, workers=1, worker=_ok_worker).run()
        assert [r.spec.id for r in result.results] == ["a", "b", "c"]
        assert result.all_ok
        assert result.summary["succeeded"] == 3

    def test_failure_retried_then_reported(self):
        telemetry = Telemetry()
        manifest = _manifest(_spec("a", max_attempts=3))
        result = BatchRunner(
            manifest, workers=1, worker=_failing_worker, telemetry=telemetry,
        ).run()
        job = result.results[0]
        assert job.status == "failed"
        assert job.attempts == 3
        assert "boom" in job.error
        assert len(_events(telemetry, "job_retry")) == 2
        assert len(_events(telemetry, "job_failed")) == 1

    def test_flaky_job_recovers(self, tmp_path):
        marker = tmp_path / "marker"
        manifest = _manifest(
            _spec("a", program=str(marker), max_attempts=2)
        )
        result = BatchRunner(manifest, workers=1, worker=_flaky_worker).run()
        assert result.all_ok
        assert result.results[0].attempts == 2

    def test_one_failure_does_not_sink_the_batch(self):
        manifest = _manifest(
            _spec("bad", max_attempts=1), _spec("good", max_attempts=1)
        )

        def worker(payload):
            if payload["id"] == "bad":
                raise ValueError("nope")
            return _ok_worker(payload)

        result = BatchRunner(manifest, workers=1, worker=worker).run()
        assert [r.status for r in result.results] == ["failed", "ok"]
        assert "FAILED" in result.report()


# -- pool path ----------------------------------------------------------------

class TestPool:
    def test_parallel_results_in_manifest_order(self):
        manifest = _manifest(_spec("a"), _spec("b"), _spec("c"), _spec("d"))
        result = BatchRunner(manifest, workers=2, worker=_ok_worker).run()
        assert [r.spec.id for r in result.results] == ["a", "b", "c", "d"]
        assert result.all_ok

    def test_worker_exception_retried_in_pool(self):
        telemetry = Telemetry()
        manifest = _manifest(_spec("a", max_attempts=2))
        result = BatchRunner(
            manifest, workers=2, worker=_failing_worker, telemetry=telemetry,
        ).run()
        assert result.results[0].status == "failed"
        assert result.results[0].attempts == 2
        assert len(_events(telemetry, "job_retry")) == 1

    def test_flaky_job_recovers_across_waves(self, tmp_path):
        marker = tmp_path / "marker"
        steady = tmp_path / "steady"
        steady.write_text("ok")  # pre-created: job b succeeds first try
        manifest = _manifest(
            _spec("a", program=str(marker), max_attempts=2),
            _spec("b", program=str(steady)),
        )
        result = BatchRunner(manifest, workers=2, worker=_flaky_worker).run()
        assert result.all_ok

    def test_timeout_enforced(self):
        telemetry = Telemetry()
        manifest = _manifest(_spec("slow", timeout_s=0.3, max_attempts=1))
        start = time.monotonic()
        result = BatchRunner(
            manifest, workers=2, worker=_sleepy_worker, telemetry=telemetry,
        ).run()
        elapsed = time.monotonic() - start
        job = result.results[0]
        assert job.status == "failed"
        assert "timed out" in job.error
        assert elapsed < 1.5  # did not wait out the 2 s sleep

    def test_crashed_worker_process_handled(self):
        telemetry = Telemetry()
        manifest = _manifest(
            _spec("crash", max_attempts=2), _spec("ok", max_attempts=3)
        )
        result = BatchRunner(
            manifest, workers=2, worker=_crashing_worker, telemetry=telemetry,
        ).run()
        by_id = {r.spec.id: r for r in result.results}
        assert by_id["crash"].status == "failed"
        assert by_id["crash"].attempts == 2
        assert "crashed" in by_id["crash"].error
        assert by_id["ok"].status == "ok"


# -- degradation --------------------------------------------------------------

class TestSerialFallback:
    def test_pool_unavailable_degrades_to_serial(self, monkeypatch):
        telemetry = Telemetry()
        manifest = _manifest(_spec("a"), _spec("b"))
        runner = BatchRunner(
            manifest, workers=4, worker=_ok_worker, telemetry=telemetry,
        )

        def refuse():
            raise OSError("no process support here")

        monkeypatch.setattr(runner, "_make_executor", refuse)
        result = runner.run()
        assert result.all_ok
        assert len(_events(telemetry, "pool_unavailable")) == 1
        assert result.summary["serial_fallbacks"] == 1

    def test_fallback_matches_pool_path(self, tmp_path, monkeypatch):
        """The degraded path must produce the same results, telemetry
        counts, and ledger entries as the pool path — only the
        pool_unavailable marker differs."""
        manifest = _manifest(
            _spec("a"), _spec("bad", max_attempts=2), _spec("c")
        )

        def run(run_dir, degrade):
            telemetry = Telemetry()
            ledger = RunLedger.create(run_dir, manifest)
            runner = BatchRunner(
                manifest, workers=2, worker=_mixed_worker,
                telemetry=telemetry, ledger=ledger,
            )
            if degrade:
                def refuse():
                    raise OSError("no process support here")
                monkeypatch.setattr(runner, "_make_executor", refuse)
            result = runner.run()
            ledger.close()
            return result, telemetry, replay(run_dir / "ledger.jsonl")

        pool, pool_tel, pool_state = run(tmp_path / "pool", degrade=False)
        serial, serial_tel, serial_state = run(
            tmp_path / "serial", degrade=True
        )
        assert [r.status for r in pool.results] == \
            [r.status for r in serial.results]
        assert [r.attempts for r in pool.results] == \
            [r.attempts for r in serial.results]
        assert [r.payload for r in pool.results] == \
            [r.payload for r in serial.results]
        for key in ("jobs", "succeeded", "failed", "retries", "attempts"):
            assert pool.summary[key] == serial.summary[key], key
        assert serial.summary["serial_fallbacks"] == 1
        assert pool.summary["serial_fallbacks"] == 0
        assert set(pool_state.completed) == set(serial_state.completed)
        for job_id, record in pool_state.completed.items():
            other = serial_state.completed[job_id]
            assert record["status"] == other["status"]
            assert record["attempts"] == other["attempts"]
            assert record.get("payload") == other.get("payload")


def _mixed_worker(payload):
    if payload["id"] == "bad":
        raise ValueError("always fails")
    return _ok_worker(payload)


# -- typed failures ------------------------------------------------------------

class TestTypedFailures:
    def test_generic_exception_is_transient_and_typed(self):
        telemetry = Telemetry()
        manifest = _manifest(_spec("a", max_attempts=3))
        result = BatchRunner(
            manifest, workers=1, worker=_failing_worker, telemetry=telemetry,
        ).run()
        failure = result.results[0].failure
        assert failure is not None
        assert failure.kind == "exception"
        assert failure.transient
        assert failure.exception == "ValueError"
        assert "boom" in failure.message
        assert result.results[0].error == failure.message
        failed = _events(telemetry, "job_failed")[0]
        assert failed.data["kind"] == "exception"
        assert failed.data["transient"] is True

    def test_permanent_failure_fails_fast(self):
        telemetry = Telemetry()
        manifest = _manifest(_spec("a", max_attempts=5))
        result = BatchRunner(
            manifest, workers=1, worker=_permanent_worker,
            telemetry=telemetry,
        ).run()
        job = result.results[0]
        assert job.status == "failed"
        assert job.attempts == 1          # no pointless retries
        assert job.failure.kind == "corrupt_estimate"
        assert not job.failure.transient
        assert _events(telemetry, "job_retry") == []

    def test_timeout_failure_is_typed(self):
        manifest = _manifest(_spec("slow", timeout_s=0.3, max_attempts=1))
        result = BatchRunner(
            manifest, workers=2, worker=_sleepy_worker,
        ).run()
        failure = result.results[0].failure
        assert failure.kind == "timeout"
        assert failure.transient

    def test_crash_failure_is_typed(self):
        manifest = _manifest(_spec("crash", max_attempts=1))
        result = BatchRunner(
            manifest, workers=2, worker=_crashing_worker,
        ).run()
        failure = result.results[0].failure
        assert failure.kind == "worker_crash"
        assert failure.transient

    def test_failure_roundtrips_through_dict(self):
        from repro.service import JobFailure
        failure = JobFailure.from_exception(ValueError("boom"))
        again = JobFailure.from_dict(failure.as_dict())
        assert again == failure


# -- ledger integration and resume --------------------------------------------

class TestLedgerIntegration:
    def test_run_is_journaled(self, tmp_path):
        manifest = _manifest(_spec("a"), _spec("bad", max_attempts=1))
        ledger = RunLedger.create(tmp_path / "run", manifest)
        result = BatchRunner(
            manifest, workers=1, worker=_mixed_worker, ledger=ledger,
        ).run()
        ledger.close()
        assert result.summary["ledger_dropped"] == 0
        state = replay(tmp_path / "run" / "ledger.jsonl")
        assert state.completed["a"]["status"] == "ok"
        assert state.completed["bad"]["status"] == "failed"
        assert state.completed["bad"]["failure"]["kind"] == "exception"
        assert state.in_flight == {}

    def test_resume_skips_completed_jobs(self, tmp_path):
        manifest = _manifest(_spec("a"), _spec("b"))
        log = tmp_path / "executions.log"
        run_dir = tmp_path / "run"
        ledger = RunLedger.create(run_dir, manifest)
        first = BatchRunner(
            manifest, workers=1, worker=_recording_worker(log),
            ledger=ledger,
        ).run()
        ledger.close()
        assert first.all_ok
        assert log.read_text().splitlines() == ["a", "b"]

        ledger2, manifest2, state = RunLedger.resume(run_dir)
        telemetry = Telemetry()
        second = BatchRunner(
            manifest2, workers=1, worker=_recording_worker(log),
            ledger=ledger2, resume_state=state,
            telemetry=telemetry,
        ).run()
        ledger2.close()
        # nothing re-executed; results adopted verbatim
        assert log.read_text().splitlines() == ["a", "b"]
        assert second.all_ok
        assert all(r.resumed for r in second.results)
        assert [r.payload for r in second.results] == \
            [r.payload for r in first.results]
        assert len(_events(telemetry, "job_resumed")) == 2
        assert second.summary["resumed"] == 2

    def test_resume_runs_only_in_flight_jobs(self, tmp_path):
        manifest = _manifest(_spec("a"), _spec("b"))
        log = tmp_path / "executions.log"
        run_dir = tmp_path / "run"
        # simulate a crash: "a" finished, "b" was mid-attempt 2
        ledger = RunLedger.create(run_dir, manifest)
        spec_a, spec_b = manifest.jobs
        ledger.record_attempt(spec_a, 1)
        ledger.record_success(spec_a, 1, _ok_worker({"id": "a"}))
        ledger.record_attempt(spec_b, 1)
        ledger.record_attempt(spec_b, 2)
        ledger.close()

        ledger2, manifest2, state = RunLedger.resume(run_dir)
        assert set(state.completed) == {"a"}
        assert state.in_flight == {"b": 2}
        result = BatchRunner(
            manifest2, workers=1, worker=_recording_worker(log),
            ledger=ledger2, resume_state=state,
        ).run()
        ledger2.close()
        assert log.read_text().splitlines() == ["b"]  # only b re-ran
        by_id = {r.spec.id: r for r in result.results}
        assert by_id["a"].resumed
        assert not by_id["b"].resumed
        assert by_id["b"].attempts == 2  # the interrupted attempt number
