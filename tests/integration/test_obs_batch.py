"""Integration: observability across a real multi-process batch.

A seeded 2-kernel batch runs with worker processes; everything asserted
afterward — the per-stage breakdown, the per-point timeline, the merged
metrics — is derived from the recorded artifacts alone, never by
re-executing the run.  This is the acceptance path for `repro trace`.
"""

import json

import pytest

from repro.cli import main
from repro.obs import events
from repro.obs.report import load_run, render_report, validate_run
from repro.service import load_manifest, run_batch


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One journaled 2-kernel batch, shared by every test here."""
    tmp_path = tmp_path_factory.mktemp("obs_batch")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "jobs": [
            {"id": "fir-job", "program": "kernel:fir", "board": "pipelined"},
            {"id": "mm-job", "program": "kernel:mm", "board": "pipelined"},
        ]
    }))
    run_dir = tmp_path / "run"
    batch = run_batch(
        load_manifest(manifest_path), workers=2, run_dir=run_dir,
    )
    return batch, run_dir


class TestArtifacts:
    def test_batch_succeeds_and_leaves_the_artifact_set(self, traced_run):
        batch, run_dir = traced_run
        assert batch.all_ok
        present = {p.name for p in run_dir.iterdir()}
        assert {"trace.jsonl", "ledger.jsonl", "spans.jsonl",
                "metrics.json"} <= present

    def test_every_stream_validates_against_schema_v1(self, traced_run):
        _, run_dir = traced_run
        assert validate_run(run_dir) == []

    def test_every_telemetry_event_carries_schema_version(self, traced_run):
        _, run_dir = traced_run
        for line in (run_dir / "trace.jsonl").read_text().splitlines():
            assert json.loads(line)["schema_version"] == events.SCHEMA_VERSION

    def test_every_ledger_record_carries_schema_version(self, traced_run):
        _, run_dir = traced_run
        for line in (run_dir / "ledger.jsonl").read_text().splitlines():
            assert json.loads(line)["schema_version"] == events.SCHEMA_VERSION

    def test_events_round_trip_through_typed_codec(self, traced_run):
        _, run_dir = traced_run
        loaded = events.read_events(run_dir / "trace.jsonl", strict=True)
        assert loaded, "trace stream decoded to nothing"
        for event in loaded:
            assert events.from_record(event.to_record(), strict=True) == event


class TestCrossProcessMetrics:
    def test_worker_metrics_merged_into_coordinator_snapshot(
            self, traced_run):
        batch, run_dir = traced_run
        snapshot = json.loads((run_dir / "metrics.json").read_text())
        # both workers synthesized fresh points on a cold memo journal
        assert snapshot["counters"]["incremental.memo.misses{domain=point}"] >= 2
        searches = snapshot["histograms"]["dse.search_iterations"]
        assert searches["count"] == 2  # one guided search per job
        points = snapshot["histograms"]["dse.point_seconds"]
        total_searched = sum(
            job.payload["points_searched"] for job in batch.results
        )
        assert points["count"] >= total_searched

    def test_summary_carries_the_same_snapshot(self, traced_run):
        batch, run_dir = traced_run
        assert batch.summary["metrics"] == json.loads(
            (run_dir / "metrics.json").read_text()
        )

    def test_obs_payload_does_not_leak_into_job_results(self, traced_run):
        batch, _ = traced_run
        for job in batch.results:
            assert "obs" not in job.payload


class TestReportWithoutReexecution:
    def test_spans_from_both_jobs_land_in_one_file(self, traced_run):
        _, run_dir = traced_run
        obs = load_run(run_dir)
        jobs = {span.attributes.get("job") for span in obs.spans}
        assert jobs == {"fir-job", "mm-job"}

    def test_report_renders_all_three_sections(self, traced_run):
        batch, run_dir = traced_run
        report = render_report(load_run(run_dir))
        assert "per-stage time breakdown" in report
        assert "pipeline.unroll" in report
        assert "per-point visit timeline" in report
        assert "fraction searched" in report
        for job in batch.results:
            searched = job.payload["points_searched"]
            size = job.payload["design_space_size"]
            assert f"{searched} of {size} points" in report

    def test_timeline_agrees_with_recorded_search(self, traced_run):
        batch, run_dir = traced_run
        obs = load_run(run_dir)
        for job in batch.results:
            visits = [s for s in obs.spans if s.name == "dse.point"
                      and s.attributes.get("job") == job.spec.id]
            assert len(visits) == job.payload["points_searched"]
            selected = job.payload["selected_unroll"]
            assert any(s.attributes.get("unroll") == selected
                       for s in visits)

    def test_cli_trace_on_the_run_dir(self, traced_run, capsys):
        _, run_dir = traced_run
        assert main(["trace", str(run_dir), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "all events and spans conform to schema v1" in out
        assert "per-point visit timeline" in out
