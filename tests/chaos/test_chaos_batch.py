"""Chaos: the real batch stack under injected faults.

Every scenario drives real explorations (``execute_job``, the guard,
the memo journal) with a fault spec active, and asserts the robustness
contract: each job reaches a *typed* terminal state, recovery changes
wall time and counters but never selections, and degraded writes are
counted instead of fatal.
"""

import json

import pytest

from repro.service import BatchRunner, RunLedger, Telemetry, parse_manifest


def _manifest(jobs, base_dir):
    return parse_manifest({"jobs": jobs}, source="<chaos>", base_dir=base_dir)


def _fault_spec(tmp_path, cfg, name="faults.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, jobs, fault_cfg=None, workers=1, **runner_kw):
    telemetry = Telemetry()
    runner = BatchRunner(
        _manifest(jobs, tmp_path),
        workers=workers,
        telemetry=telemetry,
        fault_spec=(
            _fault_spec(tmp_path, fault_cfg) if fault_cfg is not None else None
        ),
        **runner_kw,
    )
    return runner.run(), telemetry


def _events(telemetry, name):
    return [event for event in telemetry.events if event.event == name]


FIR = {"id": "fir", "program": "kernel:fir"}


class TestTransientRecovery:
    def test_transient_faults_change_counters_not_selections(self, tmp_path):
        from repro import faults
        clean, _ = _run(tmp_path, [FIR])
        faults.deactivate()
        faulted, _ = _run(
            tmp_path, [FIR],
            fault_cfg={"faults": [
                {"site": "estimator", "mode": "transient", "max_hits": 3},
            ]},
        )
        assert clean.all_ok and faulted.all_ok
        assert faulted.summary["estimator_retries"] == 3
        for key in ("selected_unroll", "cycles", "space", "points_searched"):
            assert faulted.results[0].payload[key] == \
                clean.results[0].payload[key], key

    def test_deadline_recovers_from_hang(self, tmp_path):
        result, _ = _run(
            tmp_path,
            [{**FIR, "call_deadline_s": 0.2}],
            fault_cfg={"faults": [
                {"site": "estimator", "mode": "hang", "seconds": 5.0,
                 "max_hits": 1},
            ]},
        )
        job = result.results[0]
        assert job.ok
        assert job.payload["deadline_hits"] == 1
        assert job.payload["estimator_retries"] >= 1


class TestTypedTerminalStates:
    def test_permanent_estimation_error_fails_fast(self, tmp_path):
        result, telemetry = _run(
            tmp_path,
            [{**FIR, "max_attempts": 3}],
            fault_cfg={"faults": [
                {"site": "estimator", "mode": "raise",
                 "message": "backend rejected the design"},
            ]},
        )
        job = result.results[0]
        assert job.status == "failed"
        assert job.attempts == 1            # permanent: no retries burned
        # Fail-soft search skips each poisoned point; with *every* point
        # poisoned the terminal state is the typed no-feasible-point
        # error, which carries the underlying cause in its summary.
        assert job.failure.kind == "no_feasible_point"
        assert not job.failure.transient
        assert "backend rejected" in job.error
        assert "estimation" in job.error    # the per-point kinds histogram
        assert _events(telemetry, "job_retry") == []

    def test_corrupt_estimate_rejected_not_selected(self, tmp_path):
        result, _ = _run(
            tmp_path,
            [{**FIR, "max_attempts": 2}],
            fault_cfg={"faults": [
                {"site": "estimate", "mode": "corrupt"},
            ]},
        )
        job = result.results[0]
        assert job.status == "failed"
        assert job.attempts == 1
        # Every estimate is corrupt, so no point survives; the search
        # fails with the typed terminal error, histogramming the cause.
        assert job.failure.kind == "no_feasible_point"
        assert not job.failure.transient
        assert "corrupt_estimate" in job.error

    def test_exhausted_deadline_is_typed(self, tmp_path):
        result, _ = _run(
            tmp_path,
            [{**FIR, "call_deadline_s": 0.1, "max_attempts": 1}],
            fault_cfg={"faults": [
                {"site": "estimator", "mode": "hang", "seconds": 2.0},
            ]},
        )
        job = result.results[0]
        assert job.status == "failed"
        assert job.failure.kind == "deadline"
        assert job.failure.transient

    def test_killed_worker_retried_to_success(self, tmp_path):
        result, telemetry = _run(
            tmp_path,
            [{**FIR, "max_attempts": 3}],
            fault_cfg={"faults": [
                {"site": "worker", "mode": "kill", "max_hits": 1},
            ]},
            workers=2,
        )
        job = result.results[0]
        assert job.ok
        assert job.attempts == 2
        retry = _events(telemetry, "job_retry")[0]
        assert retry.data["kind"] == "worker_crash"
        assert retry.data["transient"] is True


class TestDegradedWrites:
    def test_memo_write_failure_does_not_fail_the_job(self, tmp_path):
        from repro.incremental.journal import open_memo
        memo_dir = tmp_path / "memo"
        result, _ = _run(
            tmp_path, [FIR],
            fault_cfg={"faults": [
                {"site": "disk_full", "mode": "io_error", "jobs": ["memo"]},
            ]},
            memo_dir=memo_dir,
        )
        job = result.results[0]
        assert job.ok
        # The dropped flush is counted, not raised ...
        assert job.payload["memo"]["invalidations"] >= 1
        # ... nothing persisted, and nothing lost but a warm start.
        assert len(open_memo(memo_dir)) == 0

    def test_telemetry_write_failure_counted_not_fatal(self, tmp_path):
        from repro import faults
        trace = tmp_path / "trace.jsonl"
        telemetry = Telemetry(trace)
        runner = BatchRunner(
            _manifest([FIR], tmp_path),
            telemetry=telemetry,
            fault_spec=_fault_spec(tmp_path, {"faults": [
                {"site": "telemetry_write", "mode": "io_error",
                 "max_hits": 2},
            ]}),
        )
        result = runner.run()
        telemetry.close()
        faults.deactivate()
        assert result.all_ok
        assert result.summary["telemetry_dropped"] == telemetry.dropped
        assert telemetry.dropped == 2
        written = len(trace.read_text().splitlines())
        assert written == len(telemetry.events) - telemetry.dropped

    def test_ledger_write_failure_counted_not_fatal(self, tmp_path):
        manifest = _manifest([FIR], tmp_path)
        ledger = RunLedger.create(tmp_path / "run", manifest)
        runner = BatchRunner(
            manifest,
            ledger=ledger,
            fault_spec=_fault_spec(tmp_path, {"faults": [
                {"site": "ledger_write", "mode": "io_error"},
            ]}),
        )
        result = runner.run()
        ledger.close()
        assert result.all_ok   # the batch itself is untouched
        assert result.summary["ledger_dropped"] >= 1
