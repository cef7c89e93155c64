"""Unit tests for the durable-log layer: framing, segments, compaction.

The contracts DESIGN.md §6.8 states, pinned one by one: checksummed
records are still plain JSON; legacy (unframed) records replay
unchanged; damage on the final line of the final segment is a torn
tail, damage anywhere else is corruption; rotation is size-driven;
compaction is atomic and replays to the same state; the three journal
fault sites do exactly what their names say; a group commit leaves the
bytes one-at-a-time appends would.
"""

import json
import os

import pytest

from repro import faults
from repro.durable.journal import (
    DurableJournal,
    JournalClosed,
    frame_record,
    quarantine_path,
    quarantine_records,
    record_crc,
    scan_journal,
    segment_paths,
    verify_line,
)


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    faults.deactivate()
    yield
    faults.deactivate()


def open_journal(tmp_path, **kwargs):
    journal = DurableJournal(tmp_path, "jobs", **kwargs)
    journal.open()
    return journal


class TestFraming:
    def test_framed_line_is_plain_json(self):
        line = frame_record({"event": "job_started", "job_id": "j1"})
        record = json.loads(line)
        assert record["event"] == "job_started"
        assert record["crc32"] == record_crc({"event": "job_started",
                                              "job_id": "j1"})

    def test_roundtrip(self):
        original = {"event": "job_done", "job_id": "j1", "attempts": 2}
        record, problem = verify_line(frame_record(original))
        assert problem is None
        assert record == original  # the frame field is stripped

    def test_crc_ignores_existing_frame_field(self):
        record = {"event": "x", "crc32": "deadbeef"}
        assert record_crc(record) == record_crc({"event": "x"})

    def test_legacy_line_accepted_verbatim(self):
        record, problem = verify_line('{"event": "job_started"}')
        assert problem is None and record == {"event": "job_started"}

    def test_single_bit_flip_detected(self):
        line = frame_record({"event": "job_done", "job_id": "j1"})
        data = bytearray(line.encode())
        data[len(data) // 2] ^= 0x01
        record, problem = verify_line(bytes(data).decode("utf-8", "replace"))
        assert record is None
        assert problem in ("crc_mismatch", "bad_json")

    def test_problem_taxonomy(self):
        assert verify_line("{torn")[1] == "bad_json"
        assert verify_line('"a string"')[1] == "not_object"
        bad = dict(json.loads(frame_record({"event": "x"})))
        bad["event"] = "y"  # body changed, frame kept
        assert verify_line(json.dumps(bad))[1] == "crc_mismatch"


class TestSegments:
    def test_fresh_journal_uses_legacy_base_name(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.close()
        assert (tmp_path / "jobs.jsonl").exists()
        assert segment_paths(tmp_path, "jobs") == [tmp_path / "jobs.jsonl"]

    def test_size_rotation(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=80)
        for index in range(6):
            journal.append({"event": "e", "n": index})
        journal.close()
        names = [path.name for path in segment_paths(tmp_path, "jobs")]
        assert names[0] == "jobs.jsonl"
        assert len(names) > 1 and names[1] == "jobs.0001.jsonl"
        # replay spans every segment, in order
        scan = scan_journal(tmp_path, "jobs")
        assert [r["n"] for r in scan.records] == list(range(6))

    def test_reopen_appends_to_newest_segment(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=80)
        for index in range(4):
            journal.append({"event": "e", "n": index})
        active = journal.active_path
        journal.close()
        second = open_journal(tmp_path, max_segment_bytes=10_000)
        assert second.active_path == active
        second.close()

    def test_append_on_closed_journal_raises(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.close()
        with pytest.raises(JournalClosed):
            journal.append({"event": "a"})


class TestDamageTaxonomy:
    def test_torn_final_line_is_tail_not_corruption(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.close()
        with open(tmp_path / "jobs.jsonl", "a") as stream:
            stream.write('{"event": "b", "trunc')
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is not None
        assert scan.corrupt == []
        assert [r["event"] for r in scan.records] == ["a"]

    def test_mid_file_damage_is_corruption(self, tmp_path):
        journal = open_journal(tmp_path)
        for name in ("a", "b", "c"):
            journal.append({"event": name})
        journal.close()
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        lines[1] = lines[1][:10]  # not the final line: corruption
        (tmp_path / "jobs.jsonl").write_text("\n".join(lines) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is None
        assert len(scan.corrupt) == 1
        assert scan.corrupt[0].lineno == 2
        assert [r["event"] for r in scan.records] == ["a", "c"]

    def test_form_feed_flip_is_one_record_at_its_own_line(self, tmp_path):
        # One bit flip turns ',' (0x2C) into a form feed (0x0C).
        # Records split at '\n' only: the damage is one bad record on
        # line 2, and line counts and numbering stay those of the file.
        journal = open_journal(tmp_path)
        for name in ("a", "b", "c"):
            journal.append({"event": name, "n": 1})
        journal.close()
        path = tmp_path / "jobs.jsonl"
        data = path.read_bytes()
        second = data.index(b"\n") + 1
        flip = data.index(b",", second)
        path.write_bytes(data[:flip] + b"\x0c" + data[flip + 1:])
        scan = scan_journal(tmp_path, "jobs")
        assert [(d.lineno, d.problem) for d in scan.corrupt] == [(2, "bad_json")]
        assert scan.torn_tail is None
        assert [r["event"] for r in scan.records] == ["a", "c"]
        assert scan.position.lines == 3
        from repro.durable.fsck import inspect_journal, repair_journal
        report = inspect_journal(tmp_path, "jobs")
        assert [d["line"] for s in report.segments for d in s.corrupt] == [2]
        repair_journal(tmp_path, "jobs")
        repaired = scan_journal(tmp_path, "jobs")
        assert [r["event"] for r in repaired.records] == ["a", "c"]
        assert repaired.corrupt == [] and repaired.position.lines == 2

    def test_torn_tail_only_in_final_segment(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=60)
        for index in range(4):
            journal.append({"event": "e", "n": index})
        journal.close()
        segments = segment_paths(tmp_path, "jobs")
        assert len(segments) >= 2
        # Damage the last line of a NON-final segment: corruption.
        victim = segments[0]
        lines = victim.read_text().splitlines()
        lines[-1] = lines[-1][:8]
        victim.write_text("\n".join(lines) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is None
        assert len(scan.corrupt) == 1

    def test_legacy_journal_replays_unchanged(self, tmp_path):
        # A pre-checksum journal: plain records, no crc32 anywhere.
        with open(tmp_path / "jobs.jsonl", "w") as stream:
            for name in ("a", "b"):
                stream.write(json.dumps({"event": name}) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert [r["event"] for r in scan.records] == ["a", "b"]
        assert scan.legacy_records == 2 and scan.framed_records == 0
        assert scan.corrupt == [] and scan.torn_tail is None


class TestQuarantine:
    def test_quarantine_writes_and_dedups(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.append({"event": "b"})
        journal.append({"event": "c"})
        journal.close()
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        lines[1] = lines[1][:9]
        (tmp_path / "jobs.jsonl").write_text("\n".join(lines) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert quarantine_records(tmp_path, "jobs", scan.corrupt) == 1
        # Re-quarantining the same damage is a no-op.
        assert quarantine_records(tmp_path, "jobs", scan.corrupt) == 0
        entries = [json.loads(line) for line in
                   quarantine_path(tmp_path, "jobs").read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["problem"] in ("bad_json", "crc_mismatch")
        assert entries[0]["segment"] == "jobs.jsonl"


class TestCompaction:
    def test_compact_folds_to_one_snapshot_segment(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=60)
        for index in range(5):
            journal.append({"event": "e", "n": index})
        journal.compact({"total": 5})
        assert len(segment_paths(tmp_path, "jobs")) == 1
        journal.append({"event": "after"})
        journal.close()
        scan = scan_journal(tmp_path, "jobs")
        events = [r["event"] for r in scan.records]
        assert events == ["journal_snapshot", "after"]
        snapshot = scan.records[0]
        assert snapshot["state"] == {"total": 5}
        assert snapshot["folded_records"] == 5
        assert scan.snapshot_records == 1

    def test_compact_then_reopen(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.compact({"seen": 1})
        journal.close()
        second = open_journal(tmp_path)
        second.append({"event": "b"})
        second.close()
        scan = scan_journal(tmp_path, "jobs")
        assert [r["event"] for r in scan.records] == \
            ["journal_snapshot", "b"]


class TestFaultSites:
    def _activate(self, tmp_path, rules):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"faults": rules}))
        faults.activate(str(spec))

    def test_disk_full_raises_enospc(self, tmp_path):
        journal = open_journal(tmp_path)
        self._activate(tmp_path, [
            {"site": "disk_full", "mode": "io_error", "max_hits": 1},
        ])
        import errno
        with pytest.raises(OSError) as caught:
            journal.append({"event": "a"})
        assert caught.value.errno == errno.ENOSPC
        journal.append({"event": "b"})  # max_hits spent: appends recover
        journal.close()

    def test_journal_bitflip_lands_but_fails_crc(self, tmp_path):
        journal = open_journal(tmp_path)
        self._activate(tmp_path, [
            {"site": "journal_bitflip", "mode": "bitflip", "max_hits": 1},
        ])
        journal.append({"event": "a"})
        journal.append({"event": "b"})
        journal.close()
        assert journal.damaged_writes == 1
        scan = scan_journal(tmp_path, "jobs")
        # The flipped record is on disk but damaged; the clean one reads.
        assert len(scan.records) == 1
        assert len(scan.corrupt) + (1 if scan.torn_tail else 0) == 1

    def test_journal_torn_truncates_and_drops_newline(self, tmp_path):
        journal = open_journal(tmp_path)
        self._activate(tmp_path, [
            {"site": "journal_torn", "mode": "corrupt", "max_hits": 1},
        ])
        journal.append({"event": "first"})
        journal.close()
        text = (tmp_path / "jobs.jsonl").read_text()
        assert not text.endswith("\n")  # mid-record: no newline landed
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is not None

    def test_damage_callback_counts(self, tmp_path):
        drops = []
        journal = DurableJournal(tmp_path, "jobs",
                                 on_damage=lambda: drops.append(1))
        journal.open()
        self._activate(tmp_path, [
            {"site": "journal_bitflip", "mode": "bitflip", "max_hits": 1},
        ])
        journal.append({"event": "a"})
        journal.close()
        assert drops == [1]


class TestGroupCommit:
    """``append_many`` against one-at-a-time ``append``: the same bytes
    on disk and the same damage count, for one fsync per segment."""

    RECORDS = [{"event": "e", "n": n, "pad": "x" * 40} for n in range(6)]

    def _spec(self, path, rules):
        path.write_text(json.dumps({"faults": rules}))
        return str(path)

    def _write(self, directory, batched, records, monkeypatch, **kwargs):
        """Write ``records`` into a fresh journal; returns the journal,
        the error that stopped the writes, and the fsync count."""
        syncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: syncs.append(fd) or real_fsync(fd))
        journal = DurableJournal(directory, "memo", clock=lambda: 0.0,
                                 **kwargs)
        journal.open()
        error = None
        try:
            if batched:
                journal.append_many(records)
            else:
                for record in records:
                    journal.append(record)
        except OSError as caught:
            error = caught
        journal.close()
        monkeypatch.setattr(os, "fsync", real_fsync)
        faults.deactivate()
        return journal, error, len(syncs)

    def _segments(self, directory):
        return [(path.name, path.read_bytes())
                for path in segment_paths(directory, "memo")]

    def _both(self, tmp_path, monkeypatch, records=None, rules=None,
              **kwargs):
        """Write the records batched and one at a time; both must leave
        the same bytes, damage count and landed count.  ``records``, when
        given, builds each run's record stream from a scratch path."""
        runs = {}
        for mode in ("batched", "single"):
            if rules:
                faults.activate(self._spec(tmp_path / f"{mode}.json", rules))
            written = (records(tmp_path / f"{mode}-late.json")
                       if records is not None else self.RECORDS)
            runs[mode] = self._write(tmp_path / mode, mode == "batched",
                                     written, monkeypatch, **kwargs)
        batched, single = runs["batched"], runs["single"]
        assert self._segments(tmp_path / "batched") == \
            self._segments(tmp_path / "single")
        assert batched[0].damaged_writes == single[0].damaged_writes
        assert batched[0].appended == single[0].appended
        assert (batched[1] is None) == (single[1] is None)
        return batched, single

    def test_no_fault(self, tmp_path, monkeypatch):
        batched, single = self._both(tmp_path, monkeypatch)
        assert batched[0].appended == len(self.RECORDS)
        assert batched[2] == 1
        assert single[2] == len(self.RECORDS)

    def test_bitflip_fires_per_record(self, tmp_path, monkeypatch):
        batched, _ = self._both(tmp_path, monkeypatch, rules=[
            {"site": "journal_bitflip", "mode": "bitflip", "max_hits": 2},
        ])
        assert batched[0].damaged_writes == 2
        assert len(scan_journal(tmp_path / "batched", "memo").records) == 4

    def test_torn_fires_per_record(self, tmp_path, monkeypatch):
        batched, _ = self._both(tmp_path, monkeypatch, rules=[
            {"site": "journal_torn", "mode": "corrupt", "max_hits": 1},
        ])
        assert batched[0].damaged_writes == 1
        assert batched[2] == 1

    def test_disk_full_mid_batch_keeps_earlier_records(self, tmp_path,
                                                       monkeypatch):
        spec_rules = [{"site": "disk_full", "mode": "io_error",
                       "max_hits": 1}]

        def disk_fills_at_fourth(spec_path):
            spec = self._spec(spec_path, spec_rules)
            for index, record in enumerate(self.RECORDS):
                if index == 3:
                    faults.activate(spec)
                yield record

        batched, single = self._both(tmp_path, monkeypatch,
                                     records=disk_fills_at_fourth)
        assert batched[1] is not None and single[1] is not None
        assert batched[0].appended == 3
        assert batched[2] == 1  # the three before the failure, synced once
        scan = scan_journal(tmp_path / "batched", "memo")
        assert [record["n"] for record in scan.records] == [0, 1, 2]

    def test_batch_across_rotation_syncs_each_segment(self, tmp_path,
                                                      monkeypatch):
        batched, _ = self._both(tmp_path, monkeypatch,
                                max_segment_bytes=200)
        segments = self._segments(tmp_path / "batched")
        assert len(segments) > 1
        assert batched[2] == len(segments)
        assert batched[0].rotations == len(segments) - 1
