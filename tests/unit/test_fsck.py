"""``repro fsck``: inspection reports, repair semantics, CLI exit codes."""

import json

import pytest

from repro import faults
from repro.durable.fsck import (
    discover_journals,
    inspect_journal,
    inspect_path,
    repair_journal,
    repair_path,
)
from repro.durable.journal import (
    DurableJournal,
    quarantine_path,
    scan_journal,
    segment_paths,
)
from repro.errors import JournalError
from repro.server.store import JobStore, parse_submission


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    faults.deactivate()
    yield
    faults.deactivate()


def write_journal(tmp_path, events, prefix="jobs", **kwargs):
    journal = DurableJournal(tmp_path, prefix, **kwargs)
    journal.open()
    for event in events:
        journal.append(event)
    journal.close()
    return journal


def damage_line(path, index, mutate=lambda line: line[:10]):
    lines = path.read_text().splitlines()
    lines[index] = mutate(lines[index])
    path.write_text("\n".join(lines) + "\n")


class TestDiscovery:
    def test_empty_directory_is_loud(self, tmp_path):
        with pytest.raises(JournalError, match="no durable journal"):
            discover_journals(tmp_path)

    def test_not_a_directory_is_loud(self, tmp_path):
        with pytest.raises(JournalError, match="not a directory"):
            discover_journals(tmp_path / "missing")

    def test_finds_jobs_and_ledger(self, tmp_path):
        write_journal(tmp_path, [{"event": "a"}], prefix="jobs")
        write_journal(tmp_path, [{"event": "b"}], prefix="ledger")
        found = discover_journals(tmp_path)
        assert [prefix for _, prefix in found] == ["jobs", "ledger"]

    def test_finds_rotated_segments_without_base(self, tmp_path):
        # Compaction can retire segment zero; discovery must still see
        # the numbered survivors.
        (tmp_path / "jobs.0002.jsonl").write_text('{"event": "a"}\n')
        assert [p for _, p in discover_journals(tmp_path)] == ["jobs"]


class TestInspect:
    def test_clean_journal(self, tmp_path):
        write_journal(tmp_path, [{"event": "a"}, {"event": "b"}])
        report = inspect_journal(tmp_path, "jobs")
        assert report.clean
        assert report.total_records == 2
        assert report.corrupt_records == 0 and report.torn_tail is None
        assert [s.name for s in report.segments] == ["jobs.jsonl"]
        assert report.segments[0].framed == 2

    def test_legacy_line_mentioning_crc32_counts_as_legacy(self, tmp_path):
        (tmp_path / "jobs.jsonl").write_text(
            '{"event":"job_done","job_id":"j1","error":"crc32 mismatch"}\n'
        )
        write_journal(tmp_path, [{"event": "job_done", "job_id": "j2"}])
        scan = scan_journal(tmp_path, "jobs")
        assert (scan.framed_records, scan.legacy_records) == (1, 1)
        segment = inspect_journal(tmp_path, "jobs").segments[0]
        assert (segment.records, segment.framed, segment.legacy) == (2, 1, 1)

    def test_per_segment_damage_attribution(self, tmp_path):
        write_journal(
            tmp_path,
            [{"event": "e", "n": i} for i in range(6)],
            max_segment_bytes=40,
        )
        segments = segment_paths(tmp_path, "jobs")
        assert len(segments) >= 3
        damage_line(segments[1], 0)
        report = inspect_journal(tmp_path, "jobs")
        assert not report.clean
        assert report.corrupt_records == 1
        by_name = {s.name: s for s in report.segments}
        assert len(by_name[segments[1].name].corrupt) == 1
        assert not by_name[segments[0].name].corrupt

    def test_torn_tail_reported_separately(self, tmp_path):
        write_journal(tmp_path, [{"event": "a"}])
        with open(tmp_path / "jobs.jsonl", "a") as stream:
            stream.write('{"event": "b", "to')
        report = inspect_journal(tmp_path, "jobs")
        assert not report.clean
        assert report.corrupt_records == 0
        assert report.torn_tail["segment"] == "jobs.jsonl"
        assert report.segments[0].torn_tail

    def test_schema_problems_do_not_dirty(self, tmp_path):
        # A known event with an undeclared field: reported, still clean.
        write_journal(tmp_path, [
            {"event": "job_done", "schema_version": 1, "bogus_field": 1},
        ])
        report = inspect_journal(tmp_path, "jobs")
        assert report.clean
        assert report.schema_problems

    def test_to_doc_shape(self, tmp_path):
        write_journal(tmp_path, [{"event": "a"}])
        doc = inspect_journal(tmp_path, "jobs").to_doc()
        assert doc["journal"] == "jobs" and doc["clean"] is True
        assert doc["segments"][0]["segment"] == "jobs.jsonl"


class TestRepair:
    def test_repair_truncates_torn_tail(self, tmp_path):
        write_journal(tmp_path, [{"event": "a"}])
        with open(tmp_path / "jobs.jsonl", "a") as stream:
            stream.write('{"event": "b", "to')
        report = repair_journal(tmp_path, "jobs")
        assert report.truncated_tail
        assert report.dropped_records == 0  # a tail is not corruption
        assert inspect_journal(tmp_path, "jobs").clean

    def test_repair_quarantines_and_drops_corrupt(self, tmp_path):
        write_journal(tmp_path, [{"event": e} for e in ("a", "b", "c")])
        damage_line(tmp_path / "jobs.jsonl", 1)
        report = repair_journal(tmp_path, "jobs")
        assert report.quarantined == 1
        assert report.dropped_records == 1
        assert report.rewritten_segments == ["jobs.jsonl"]
        assert quarantine_path(tmp_path, "jobs").exists()
        after = inspect_journal(tmp_path, "jobs")
        assert after.clean and after.total_records == 2

    def test_repair_preserves_survivors_byte_for_byte(self, tmp_path):
        write_journal(tmp_path, [{"event": e} for e in ("a", "b", "c")])
        before = (tmp_path / "jobs.jsonl").read_text().splitlines()
        damage_line(tmp_path / "jobs.jsonl", 1)
        repair_journal(tmp_path, "jobs")
        after = (tmp_path / "jobs.jsonl").read_text().splitlines()
        assert after == [before[0], before[2]]

    def test_repair_on_clean_journal_is_a_noop(self, tmp_path):
        write_journal(tmp_path, [{"event": "a"}])
        before = (tmp_path / "jobs.jsonl").read_text()
        report = repair_journal(tmp_path, "jobs")
        assert report.dropped_records == 0
        assert not report.rewritten_segments
        assert (tmp_path / "jobs.jsonl").read_text() == before

    def test_repair_with_compact_folds_jobs_journal(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(parse_submission("kernel:fir"))
        assert store.claim_next() is job
        store.finish_ok(job, {"cycles": 7})
        store.close()
        damage_line(tmp_path / "jobs.jsonl", 0)  # the server_start record
        report = repair_journal(tmp_path, "jobs", compact=True)
        assert report.compacted
        scan = scan_journal(tmp_path, "jobs")
        assert scan.snapshot_records == 1
        # The folded store still resumes the finished job.
        resumed = JobStore(tmp_path, passive=True)
        assert resumed.resumed_done == 1
        assert resumed.jobs[job.id].payload == {"cycles": 7}
        resumed.close()


class TestRepairPath:
    def test_repairs_every_journal_under_a_directory(self, tmp_path):
        write_journal(tmp_path, [{"event": e} for e in ("a", "b", "c")],
                      prefix="jobs")
        write_journal(tmp_path, [{"event": e} for e in ("x", "y", "z")],
                      prefix="ledger")
        damage_line(tmp_path / "jobs.jsonl", 0)
        damage_line(tmp_path / "ledger.jsonl", 1)
        reports = repair_path(tmp_path)
        assert sorted(r.prefix for r in reports) == ["jobs", "ledger"]
        assert all(r.dropped_records == 1 for r in reports)
        assert all(r.clean for r in inspect_path(tmp_path))


class TestCli:
    def run_fsck(self, *argv):
        from repro.cli import main
        return main(["fsck", *[str(a) for a in argv]])

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        write_journal(tmp_path, [{"event": "a"}])
        assert self.run_fsck(tmp_path) == 0
        out = capsys.readouterr().out
        assert "jobs: clean" in out

    def test_damage_without_repair_exits_one(self, tmp_path, capsys):
        write_journal(tmp_path, [{"event": e} for e in ("a", "b", "c")])
        damage_line(tmp_path / "jobs.jsonl", 1)
        assert self.run_fsck(tmp_path) == 1
        assert "DAMAGED" in capsys.readouterr().out

    def test_repair_exits_zero_and_leaves_clean(self, tmp_path, capsys):
        write_journal(tmp_path, [{"event": e} for e in ("a", "b", "c")])
        damage_line(tmp_path / "jobs.jsonl", 1)
        assert self.run_fsck(tmp_path, "--repair") == 0
        assert "repaired" in capsys.readouterr().out
        assert self.run_fsck(tmp_path) == 0

    def test_json_report(self, tmp_path, capsys):
        write_journal(tmp_path, [{"event": e} for e in ("a", "b", "c")])
        damage_line(tmp_path / "jobs.jsonl", 1)
        out_path = tmp_path / "report.json"
        assert self.run_fsck(tmp_path, "--repair", "--json", out_path) == 0
        doc = json.loads(out_path.read_text())
        assert doc["reports"][0]["clean"] is False
        assert doc["repairs"][0]["dropped_records"] == 1
        assert doc["clean_after_repair"] is True
