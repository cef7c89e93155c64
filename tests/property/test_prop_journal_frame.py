"""Differential tests: journal framing against the re-serializing reference.

:func:`repro.durable.journal.verify_line` checks a stamp against the
line's own bytes and re-serializes only when that fails, and
:func:`repro.durable.journal.frame_record` serializes a record once and
splices the frame member in.  The reference implementations below are
the direct forms: parse, re-serialize canonically, compare; and
serialize the record with its stamp added.  Both must give the same
answers on every line, damaged or not.
"""

import itertools
import json
import zlib

import pytest

from repro.durable.journal import (
    DurableJournal,
    frame_record,
    scan_journal,
    verify_line,
)
from repro.incremental.journal import MemoJournal
from repro.incremental.memo import MemoStore
from repro.server.store import JobStore, parse_submission


def reference_crc(record):
    body = {k: v for k, v in record.items() if k != "crc32"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x}"


def reference_frame(record):
    stamped = {**record, "crc32": reference_crc(record)}
    return json.dumps(stamped, sort_keys=True, separators=(",", ":"))


def reference_verify(line):
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "bad_json"
    if not isinstance(record, dict):
        return None, "not_object"
    stamped = record.get("crc32")
    if stamped is None:
        return record, None
    record = {k: v for k, v in record.items() if k != "crc32"}
    if not isinstance(stamped, str) or stamped != reference_crc(record):
        return None, "crc_mismatch"
    return record, None


def journal_lines(directory, prefix):
    lines = []
    for path in sorted(directory.glob(f"{prefix}*.jsonl")):
        lines.extend(path.read_text().splitlines())
    return lines


@pytest.fixture(scope="module")
def framed_lines(tmp_path_factory):
    """One memo record, one job-store record and one snapshot record,
    each as its writer framed it."""
    memo_dir = tmp_path_factory.mktemp("memo")
    store = MemoStore()
    journal = MemoJournal(memo_dir)
    store.attach_journal(journal)
    store.point_put("p" * 64, {"cycles": 527, "space": 9653,
                               "balance": 0.5, "unroll": [8, 8]})
    store.flush()
    memo_line = journal_lines(memo_dir, "memo")[0]
    assert journal.compact()
    snapshot_line = journal_lines(memo_dir, "memo")[0]
    job_dir = tmp_path_factory.mktemp("jobs")
    jobs = JobStore(job_dir)
    try:
        jobs.submit(parse_submission("kernel:fir"))
    finally:
        jobs.close()
    job_line = next(line for line in journal_lines(job_dir, "jobs")
                    if '"job_submitted"' in line)
    lines = {"memo": memo_line, "job": job_line, "snapshot": snapshot_line}
    assert '"memo_entry"' in memo_line
    assert '"journal_snapshot"' in snapshot_line
    return lines


class TestVerifyLine:
    @pytest.mark.parametrize("kind", ["memo", "job", "snapshot"])
    def test_every_single_bit_flip_matches_the_reference(self, framed_lines,
                                                         kind):
        data = framed_lines[kind].encode("utf-8")
        assert verify_line(data.decode()) == reference_verify(data.decode())
        assert verify_line(data.decode())[1] is None
        for index in range(len(data)):
            for bit in range(8):
                damaged = bytearray(data)
                damaged[index] ^= 1 << bit
                line = bytes(damaged).decode("utf-8", "replace")
                assert verify_line(line) == reference_verify(line), (
                    index, bit,
                )

    @pytest.mark.parametrize("kind", ["memo", "job", "snapshot"])
    def test_non_canonical_framed_lines_still_verify(self, framed_lines,
                                                     kind):
        record = json.loads(framed_lines[kind])
        spaced = json.dumps(record)
        reordered = json.dumps(dict(reversed(list(record.items()))),
                               separators=(",", ":"))
        for line in (spaced, reordered):
            check = verify_line(line)
            assert check == reference_verify(line)
            assert check[1] is None and check.framed

    def test_legacy_and_null_stamped_lines_are_legacy(self):
        for line in ('{"event": "a"}', '{"crc32": null, "event": "a"}',
                     '{"event":"job_done","error":"crc32 mismatch"}'):
            check = verify_line(line)
            assert check == reference_verify(line)
            assert not check.framed


KEYS = ("", "a", "crc", "crc31", "crc32a", "z")


class TestFrameRecord:
    @pytest.mark.parametrize("size", range(len(KEYS) + 1))
    def test_every_key_set_splices_at_the_sorted_position(self, size):
        for keys in itertools.combinations(KEYS, size):
            record = {key: index for index, key in enumerate(keys)}
            assert frame_record(record) == reference_frame(record), keys

    @pytest.mark.parametrize("record", [
        {"z": "café ☃", "a": "\U0001f600", "crc": "\ud800"},
        {"a": {"crc32": "deadbeef", "z": [1, {"crc32": None}]}, "z": 1},
        {"crc32": "stale000", "event": "x", "b": [1.5, None, True]},
        {"state": {"entries": [["point", "k", {"crc32": 1}]]},
         "event": "journal_snapshot"},
    ])
    def test_values_and_nested_frame_keys(self, record):
        line = frame_record(record)
        assert line == reference_frame(record)
        assert verify_line(line) == reference_verify(line)
        assert verify_line(line)[0] == {
            k: v for k, v in record.items() if k != "crc32"
        }

    def test_writer_bytes_are_the_reference_bytes(self, tmp_path):
        records = [{"event": "e", "n": n, "crc": "c", "a": [n]}
                   for n in range(5)]
        journal = DurableJournal(tmp_path, "jobs")
        journal.open()
        journal.append_many(records)
        journal.close()
        expected = "".join(reference_frame(record) + "\n"
                           for record in records)
        assert (tmp_path / "jobs.jsonl").read_text() == expected
        scan = scan_journal(tmp_path, "jobs")
        assert scan.records == records and scan.framed_records == 5
