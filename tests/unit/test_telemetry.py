"""Unit tests for the service telemetry layer."""

import json

from repro.report import batch_summary_table
from repro.service import Telemetry, TelemetryEvent, read_trace, summarize_events


def _fake_clock():
    _fake_clock.now += 1.0
    return _fake_clock.now


class TestEmission:
    def test_jsonl_one_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Telemetry(path) as telemetry:
            telemetry.emit("batch_start", jobs=2)
            telemetry.emit("job_start", job_id="a", attempt=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "batch_start"
        assert records[1]["job_id"] == "a"

    def test_in_memory_only(self):
        telemetry = Telemetry()
        telemetry.emit("job_start", job_id="a")
        assert telemetry.events[0].job_id == "a"

    def test_timestamps_monotone_with_clock(self):
        _fake_clock.now = 0.0
        telemetry = Telemetry(clock=_fake_clock)
        first = telemetry.emit("a")
        second = telemetry.emit("b")
        assert second.timestamp > first.timestamp

    def test_read_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Telemetry(path) as telemetry:
            telemetry.emit("job_finish", job_id="a", cycles=10)
        events = read_trace(path)
        assert events[0].event == "job_finish"
        assert events[0].data["cycles"] == 10

    def test_read_trace_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "job_start", "ts": 1}\n{"event": "job_f')
        events = read_trace(path)
        assert [event.event for event in events] == ["job_start"]


class TestDrops:
    def test_unserializable_event_dropped_not_raised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Telemetry(path) as telemetry:
            telemetry.emit("job_start", job_id="a")
            telemetry.emit("weird", blob=object())   # not JSON-serializable
            telemetry.emit("job_finish", job_id="a")
            assert telemetry.dropped == 1
        # in-memory record survives; the file simply misses one line
        assert len(telemetry.events) == 3
        assert len(path.read_text().splitlines()) == 2

    def test_write_failure_dropped_not_raised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(path)
        telemetry.emit("job_start", job_id="a")
        telemetry._stream.close()   # simulate the sink going away
        telemetry.emit("job_finish", job_id="a")   # must not raise
        assert telemetry.dropped == 1
        assert len(telemetry.events) == 2

    def test_append_mode_extends_existing_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Telemetry(path) as first:
            first.emit("batch_start")
        with Telemetry(path, mode="a") as second:
            second.emit("job_resumed", job_id="a", status="ok")
        events = read_trace(path)
        assert [e.event for e in events] == ["batch_start", "job_resumed"]


class TestSummary:
    def _events(self):
        return [
            TelemetryEvent("batch_start", 0.0),
            TelemetryEvent("job_start", 1.0, "a", {"attempt": 1}),
            TelemetryEvent("job_retry", 2.0, "a", {"attempt": 1, "reason": "x"}),
            TelemetryEvent("job_start", 3.0, "a", {"attempt": 2}),
            TelemetryEvent("job_finish", 4.0, "a", {
                "points_searched": 7, "cache_hits": 2, "cache_misses": 5,
                "wall_seconds": 0.5, "phase_seconds": {"explore": 0.4},
            }),
            TelemetryEvent("job_start", 5.0, "b", {"attempt": 1}),
            TelemetryEvent("job_failed", 6.0, "b", {"reason": "y"}),
        ]

    def test_totals(self):
        summary = summarize_events(self._events())
        assert summary["jobs"] == 2
        assert summary["attempts"] == 3
        assert summary["succeeded"] == 1
        assert summary["failed"] == 1
        assert summary["retries"] == 1
        assert summary["points_synthesized"] == 7
        assert summary["cache_hits"] == 2
        assert summary["cache_misses"] == 5
        assert summary["phase_seconds"] == {"explore": 0.4}

    def test_summary_table_renders(self):
        telemetry = Telemetry()
        for event in self._events():
            telemetry.events.append(event)
        text = telemetry.summary_table().render()
        assert "cache hits" in text
        assert "points synthesized" in text

    def test_batch_summary_table_hit_rate(self):
        table = batch_summary_table({"cache_hits": 3, "cache_misses": 1})
        rendered = table.render()
        assert "cache hit rate" in rendered
        assert "0.750" in rendered

    def test_resumed_jobs_counted_once(self):
        # a combined append-mode trace: the original run's events plus
        # the resumed run's adoption records for the same job
        events = [
            TelemetryEvent("job_start", 1.0, "a", {"attempt": 1}),
            TelemetryEvent("job_finish", 2.0, "a", {"points_searched": 3}),
            TelemetryEvent("job_resumed", 3.0, "a", {"status": "ok"}),
            TelemetryEvent("job_resumed", 4.0, "b", {"status": "ok"}),
        ]
        summary = summarize_events(events)
        assert summary["jobs"] == 2          # a and b, neither twice
        assert summary["succeeded"] == 2
        assert summary["resumed"] == 2

    def test_robustness_rows_hidden_when_quiet(self):
        rendered = batch_summary_table(summarize_events([])).render()
        for label in ("telemetry drops", "ledger drops", "jobs resumed",
                      "estimator retries", "deadline hits"):
            assert label not in rendered

    def test_robustness_rows_shown_when_nonzero(self):
        summary = summarize_events([])
        summary.update(telemetry_dropped=2, ledger_dropped=1, resumed=3,
                       estimator_retries=4, deadline_hits=1)
        rendered = batch_summary_table(summary).render()
        for label in ("telemetry drops", "ledger drops", "jobs resumed",
                      "estimator retries", "deadline hits"):
            assert label in rendered
