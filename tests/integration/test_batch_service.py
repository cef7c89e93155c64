"""Integration: the batch engine end-to-end, against serial `explore`.

The headline guarantee under test: parallel batch execution selects
bit-identical designs to serial exploration, while the JSONL trace's
cache accounting stays consistent with the shared memo journal.
"""

import json

import pytest

from repro.cli import main
from repro.dse import explore
from repro.incremental.journal import open_memo
from repro.kernels import kernel_by_name
from repro.service import (
    BatchRunner, Telemetry, load_manifest, parse_manifest, read_trace,
    summarize_events,
)
from repro.target import wildstar_nonpipelined, wildstar_pipelined

JOBS = (("fir", "pipelined"), ("jac", "nonpipelined"))


def _serial_reference():
    boards = {
        "pipelined": wildstar_pipelined(),
        "nonpipelined": wildstar_nonpipelined(),
    }
    reference = {}
    for name, board in JOBS:
        result = explore(kernel_by_name(name).program(), boards[board])
        reference[(name, board)] = result
    return reference


def _write_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "jobs": [
            {"id": f"{name}-{board}", "program": f"kernel:{name}",
             "board": board}
            for name, board in JOBS
        ]
    }))
    return path


class TestParallelMatchesSerial:
    def test_selections_identical_point_for_point(self, tmp_path):
        reference = _serial_reference()
        manifest = load_manifest(_write_manifest(tmp_path))
        with Telemetry(tmp_path / "trace.jsonl") as telemetry:
            batch = BatchRunner(
                manifest, workers=2,
                memo_dir=tmp_path / "memo", telemetry=telemetry,
            ).run()
        assert batch.all_ok
        for job in batch.results:
            name, board = job.spec.id.rsplit("-", 1)
            expected = reference[(name, board)]
            payload = job.payload
            assert payload["selected_unroll"] == list(expected.selected.unroll)
            assert payload["cycles"] == expected.selected.cycles
            assert payload["space"] == expected.selected.space
            assert payload["balance"] == pytest.approx(
                expected.selected.balance
            )
            assert payload["baseline_cycles"] == expected.baseline.cycles
            assert payload["points_searched"] == expected.points_searched
            assert payload["design_space_size"] == expected.design_space_size
            assert payload["trace"] == [
                str(step) for step in expected.search.trace
            ]

    def test_trace_cache_totals_match_cache_file(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        memo_dir = tmp_path / "memo"
        trace_path = tmp_path / "trace.jsonl"
        with Telemetry(trace_path) as telemetry:
            batch = BatchRunner(
                manifest, workers=2, memo_dir=memo_dir,
                telemetry=telemetry,
            ).run()
        events = read_trace(trace_path)
        summary = summarize_events(events)
        # Trace totals agree with what the runner aggregated...
        assert summary["cache_hits"] == batch.summary["cache_hits"]
        assert summary["cache_misses"] == batch.summary["cache_misses"]
        # ...and with the per-job point-memo counters each worker reported.
        finishes = [e for e in events if e.event == "job_finish"]
        assert summary["cache_misses"] == sum(
            e.data["cache_misses"] for e in finishes
        )
        # Cold disjoint jobs: every point lookup missed, and each miss
        # journaled exactly one point entry in the shared memo.
        assert summary["cache_hits"] == 0
        assert summary["cache_misses"] == summary["points_synthesized"]
        assert open_memo(memo_dir).counts()["point"] == summary["cache_misses"]

    def test_warm_cache_run_all_hits(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        memo_dir = tmp_path / "memo"
        cold = BatchRunner(manifest, workers=2, memo_dir=memo_dir).run()
        warm = BatchRunner(manifest, workers=2, memo_dir=memo_dir).run()
        assert warm.summary["cache_misses"] == 0
        assert warm.summary["cache_hits"] == warm.summary["points_synthesized"]
        for before, after in zip(cold.results, warm.results):
            assert (
                before.payload["selected_unroll"]
                == after.payload["selected_unroll"]
            )
            assert before.payload["cycles"] == after.payload["cycles"]
            assert before.payload["space"] == after.payload["space"]


class TestBatchCli:
    def test_batch_command_end_to_end(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path)
        trace = tmp_path / "trace.jsonl"
        out_json = tmp_path / "summary.json"
        assert main([
            "batch", str(manifest), "--jobs", "2",
            "--memo-dir", str(tmp_path / "memo"),
            "--trace", str(trace), "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "batch summary" in out
        assert "fir-pipelined" in out
        summary = json.loads(out_json.read_text())
        assert summary["summary"]["succeeded"] == len(JOBS)
        assert len(summary["jobs"]) == len(JOBS)
        assert all(job["status"] == "ok" for job in summary["jobs"])
        assert trace.exists()
        events = read_trace(trace)
        assert events[0].event == "batch_start"
        assert events[-1].event == "batch_finish"

    def test_batch_failure_exit_code(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        source = tmp_path / "broken.c"
        source.write_text("int A[4]; A[0] = ;")  # parses only in the worker
        manifest.write_text(json.dumps({
            "jobs": [
                {"program": str(source), "max_attempts": 1},
                {"program": "kernel:jac"},
            ]
        }))
        assert main(["batch", str(manifest), "--jobs", "1"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_bad_manifest_reported(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("[]")
        assert main(["batch", str(bad)]) == 1
        assert "non-empty" in capsys.readouterr().err


class TestExploreParallel:
    def test_explore_parallel_matches_serial_report(self, tmp_path, capsys):
        assert main(["explore", "kernel:jac", "kernel:fir",
                     "--parallel", "--jobs", "2",
                     "--memo-dir", str(tmp_path / "memo")]) == 0
        out = capsys.readouterr().out
        serial = {
            name: explore(kernel_by_name(name).program(), wildstar_pipelined())
            for name in ("jac", "fir")
        }
        for name, result in serial.items():
            unroll = ",".join(str(f) for f in result.selected.unroll)
            assert f"U={unroll} {result.selected.cycles} cycles" in out

    def test_explore_parallel_rejects_artifact_flags(self, tmp_path, capsys):
        assert main(["explore", "kernel:fir", "--parallel",
                     "--vhdl", str(tmp_path / "x.vhd")]) == 1
        assert "not supported with" in capsys.readouterr().err

    def test_explore_multiple_programs_serial(self, capsys):
        assert main(["explore", "kernel:jac", "kernel:mm"]) == 0
        out = capsys.readouterr().out
        assert "kernel jac" in out and "kernel mm" in out
