"""The shared durable-log layer: checksummed, segmented JSONL journals.

Both long-lived journals in this system — the server's job store
(``jobs.jsonl`` under ``--state-dir``) and the batch run ledger
(``ledger.jsonl`` under ``--run-dir``) — started as single append-only
files whose replay tolerated exactly one failure mode: a clean torn
tail.  That is not what disks do.  Bit rot, partial sector writes, and
filesystem bugs damage records *in the middle* of a file, and an
unchecksummed reader either misparses them or silently drops them,
which makes "restart-resume" only as trustworthy as the medium.  This
module is the common durability substrate beneath both journals:

**Per-record CRC32 framing.**  Every appended record is stamped with a
``crc32`` field — CRC32 over the record's canonical JSON serialization
(sorted keys, compact separators, ``crc32`` itself excluded).  The line
on disk stays plain JSON, so every existing consumer (``repro trace``,
smoke scripts, ad-hoc ``jq``) keeps working, and journals written
*before* checksumming replay unchanged: a record without ``crc32`` is a
legacy record, accepted as-is with the old torn-tail-only semantics.
A framed record whose checksum does not match is **corrupt** — the
reader can now distinguish "the process died mid-append" (only ever the
final line of the final segment) from "the disk lied" (anywhere else).

**Segment rotation.**  The journal is an ordered list of segment files:
the legacy base name (``jobs.jsonl``) is segment zero, and rotation
continues into ``jobs.0001.jsonl``, ``jobs.0002.jsonl``, …  A fresh
journal starts at the base name, so small deployments never see more
than one file; size- and age-based rotation bound how much any single
corruption event can take down and give compaction whole-file units to
retire.

**Snapshot compaction.**  :meth:`DurableJournal.compact` folds the
owner-provided state into a single ``journal_snapshot`` record, writes
it as the first record of a fresh segment (atomically: temp file +
fsync + rename), then retires every older segment.  Replay folds a
snapshot by *resetting* to its state and continuing with subsequent
events — so a compacted journal replays to exactly the state the
uncompacted one did, in O(live state) instead of O(history).

**Damage discipline.**  :func:`scan_journal` never raises on damaged
input.  It returns every good record in order plus a precise damage
report: mid-file corruption (bad JSON, non-object, checksum mismatch)
with segment/line positions, and at most one torn tail (damage confined
to the final line of the final segment).  Callers decide policy —
the job store quarantines corrupt records to a ``.quarantine`` sidecar
and keeps replaying; ``repro fsck --repair`` truncates torn tails and
rewrites clean segments.

**Group commit and resumable scans.**  :meth:`DurableJournal.append_many`
writes a batch of records and fsyncs once; ``append`` is the batch of
one, so there is a single write path.  :func:`scan_journal` records
where it stopped (:class:`JournalPosition`), and
:func:`scan_journal_since` reads only what was appended after that,
refusing whenever the segment chain has changed underneath it.

Fault sites (see :mod:`repro.faults`): ``disk_full`` fires before every
appended record (an ``io_error`` rule turns it into ENOSPC),
``journal_bitflip`` flips one deterministic bit in the serialized line,
``journal_torn`` truncates the line mid-record and suppresses the
newline — the three ways a journal append lies, injectable on demand.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
)

from repro import faults

#: The reserved frame field carried on every checksummed record.
FRAME_FIELD = "crc32"

#: The snapshot record's event name (typed in :mod:`repro.obs.events`).
SNAPSHOT_EVENT = "journal_snapshot"

#: Rotate the active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Numbered segment files: ``<prefix>.0001.jsonl`` and up.
_SEGMENT_RE = re.compile(r"^(?P<prefix>.+)\.(?P<index>\d{4,})\.jsonl$")

#: Sidecar holding quarantined (checksum-failed / unparseable) records.
QUARANTINE_SUFFIX = ".quarantine"


class JournalClosed(ValueError):
    """Append on a closed journal (the owner forgot to reopen)."""


# -- framing ------------------------------------------------------------------

def canonical_json(record: Mapping[str, Any]) -> str:
    """The byte-stable serialization the checksum covers."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_crc(record: Mapping[str, Any]) -> str:
    """CRC32 (8 hex chars) over the record's canonical form, with any
    existing frame field excluded."""
    body = {k: v for k, v in record.items() if k != FRAME_FIELD}
    crc = zlib.crc32(canonical_json(body).encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x}"


def frame_record(record: Mapping[str, Any]) -> str:
    """Serialize one record with its checksum stamped.

    The result is still one plain-JSON line — the frame is a field, not
    a wrapper — so pre-checksum readers parse it unchanged.
    """
    framed = dict(record)
    framed[FRAME_FIELD] = record_crc(record)
    return canonical_json(framed)


def verify_line(line: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Decode one journal line; returns ``(record, problem)``.

    Exactly one of the pair is ``None``.  Problems: ``bad_json`` (does
    not parse), ``not_object`` (parses to a non-dict), ``crc_mismatch``
    (framed, but the checksum disagrees — the disk lied).  A record with
    no frame field is legacy (pre-checksum) and is accepted verbatim.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "bad_json"
    if not isinstance(record, dict):
        return None, "not_object"
    stamped = record.get(FRAME_FIELD)
    if stamped is None:
        return record, None
    record = {k: v for k, v in record.items() if k != FRAME_FIELD}
    if not isinstance(stamped, str) or stamped != record_crc(record):
        return None, "crc_mismatch"
    return record, None


# -- segment discovery --------------------------------------------------------

def segment_paths(directory: Path, prefix: str) -> List[Path]:
    """Every segment of a journal, oldest first.

    The legacy base file (``<prefix>.jsonl``) sorts before every
    numbered segment — it is segment zero by construction.
    """
    directory = Path(directory)
    paths: List[Path] = []
    base = directory / f"{prefix}.jsonl"
    if base.exists():
        paths.append(base)
    numbered: List[Tuple[int, Path]] = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match and match.group("prefix") == prefix:
                numbered.append((int(match.group("index")), entry))
    paths.extend(path for _, path in sorted(numbered))
    return paths


def quarantine_path(directory: Path, prefix: str) -> Path:
    return Path(directory) / f"{prefix}{QUARANTINE_SUFFIX}"


# -- scanning -----------------------------------------------------------------

@dataclass(frozen=True)
class DamagedRecord:
    """One journal line that failed framing, parsing, or checksum."""

    segment: str          # segment file name
    lineno: int           # 1-based within the segment
    problem: str          # bad_json | not_object | crc_mismatch
    raw: str              # the damaged line, verbatim

    def key(self) -> str:
        """Content identity for quarantine dedup across replays."""
        digest = zlib.crc32(self.raw.encode("utf-8", "replace")) & 0xFFFFFFFF
        return f"{self.segment}:{self.lineno}:{digest:08x}"


#: How many consumed bytes a :class:`JournalPosition` keeps to recognise
#: its segment again.
_TAIL_BYTES = 64


@dataclass(frozen=True)
class JournalPosition:
    """Where a scan stopped, so a later scan can resume there.

    ``chain`` is the segment chain the scan read, oldest first, as
    ``(name, inode)`` pairs.  ``offset`` counts the bytes of the last
    segment it consumed: every complete line, never a final line whose
    newline has not landed yet.  ``lines`` is how many lines those bytes
    hold, and ``tail`` their last few bytes, so a segment rewritten in
    place under the same inode is not taken for one that only grew.
    """

    chain: Tuple[Tuple[str, int], ...] = ()
    offset: int = 0
    lines: int = 0
    tail: bytes = b""


@dataclass
class JournalScan:
    """Everything one pass over a journal's segments learned."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    #: mid-file damage — never includes the torn tail
    corrupt: List[DamagedRecord] = field(default_factory=list)
    #: damage confined to the final line of the final segment
    torn_tail: Optional[DamagedRecord] = None
    segments: List[Path] = field(default_factory=list)
    framed_records: int = 0
    legacy_records: int = 0
    snapshot_records: int = 0
    #: where the scan stopped; ``None`` when a segment could not be read
    position: Optional[JournalPosition] = None

    @property
    def total_records(self) -> int:
        return len(self.records)


def record_lines(data: bytes) -> List[str]:
    """A journal's lines, split at ``\n`` only.

    ``str.splitlines`` (and text-mode reads, which translate ``\r``)
    also break at ``\r``, ``\x0b``, ``\x0c``, ``\x1c``-``\x1e`` and
    ``\x85``: one corrupted byte inside a record would read as two
    damaged records and shift every later line number.
    """
    lines = data.decode("utf-8", "replace").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_record_lines(path: Path) -> List[str]:
    """:func:`record_lines` of a whole file."""
    return record_lines(path.read_bytes())


def _read_segment(path: Path, start: int = 0) -> Tuple[int, bytes]:
    """``(inode, bytes from start to end)`` of one segment."""
    with open(path, "rb") as stream:
        inode = os.fstat(stream.fileno()).st_ino
        stream.seek(start)
        return inode, stream.read()


def _scan_lines(scan: JournalScan, segment: str, lines: List[str],
                damaged: List[DamagedRecord], first_lineno: int = 1
                ) -> Optional[Tuple[str, int]]:
    """Verify ``lines`` into ``scan``; returns the last non-blank line's
    ``(segment, lineno)``."""
    last_entry = None
    for lineno, line in enumerate(lines, start=first_lineno):
        stripped = line.strip()
        if not stripped:
            continue
        last_entry = (segment, lineno)
        record, problem = verify_line(stripped)
        if problem is not None:
            damaged.append(DamagedRecord(
                segment=segment, lineno=lineno,
                problem=problem, raw=stripped,
            ))
            continue
        if FRAME_FIELD in stripped:
            scan.framed_records += 1
        else:
            scan.legacy_records += 1
        if record.get("event") == SNAPSHOT_EVENT:
            scan.snapshot_records += 1
        scan.records.append(record)
    return last_entry


def scan_journal(directory: Path, prefix: str) -> JournalScan:
    """Read every segment, verifying frames; never raises on damage.

    The one concession to the pre-checksum crash model: damage on the
    *final* line of the *final* segment is a torn tail (the process died
    mid-append), reported separately from mid-file corruption so callers
    can keep the old "skip the torn write" semantics without also
    forgiving the disk.
    """
    scan = JournalScan(segments=segment_paths(directory, prefix))
    damaged: List[DamagedRecord] = []
    last_entry: Optional[Tuple[str, int]] = None  # (segment name, lineno)
    chain: Optional[List[Tuple[str, int]]] = []
    data, lines = b"", []
    for segment in scan.segments:
        try:
            inode, data = _read_segment(segment)
        except OSError:
            chain = None
            continue
        if chain is not None:
            chain.append((segment.name, inode))
        lines = record_lines(data)
        last_entry = _scan_lines(
            scan, segment.name, lines, damaged
        ) or last_entry
    if damaged and last_entry is not None:
        tail = damaged[-1]
        if (tail.segment, tail.lineno) == last_entry:
            scan.torn_tail = tail
            damaged = damaged[:-1]
    scan.corrupt = damaged
    if chain is not None:
        offset = data.rfind(b"\n") + 1
        if offset < len(data):
            # The final line has no newline yet: leave it unconsumed.
            lines = record_lines(data[:offset])
        scan.position = JournalPosition(
            chain=tuple(chain), offset=offset, lines=len(lines),
            tail=data[max(0, offset - _TAIL_BYTES):offset],
        )
    return scan


def scan_journal_since(directory: Path, prefix: str,
                       position: JournalPosition) -> Optional[JournalScan]:
    """The records appended after ``position``; ``None`` when the journal
    can no longer be resumed from there.

    Resuming needs the same segment chain, names and inodes, whose last
    segment still ends its consumed bytes with ``position.tail``; a
    journal that did not exist at ``position`` may since have gained its
    first segment.  Rotation, compaction, a repair rewrite, truncation
    and read errors all return ``None``, and the caller rescans from the
    start.  Only complete lines are consumed: a final line whose newline
    has not landed is left for the next call, so the result never has a
    torn tail.  Damaged complete lines are reported in ``corrupt``.
    """
    paths = segment_paths(directory, prefix)
    names = [path.name for path in paths]
    if position.chain:
        if names != [name for name, _ in position.chain]:
            return None
    elif len(paths) > 1:
        return None
    scan = JournalScan(segments=paths, position=position)
    if not paths:
        return scan
    start = position.offset - len(position.tail)
    try:
        for path, (_, inode) in zip(paths[:-1], position.chain[:-1]):
            if os.stat(path).st_ino != inode:
                return None
        inode, data = _read_segment(paths[-1], start)
    except OSError:
        return None
    chain = position.chain or ((names[-1], inode),)
    if inode != chain[-1][1] or not data.startswith(position.tail):
        return None
    data = data[len(position.tail):]
    consumed = data.rfind(b"\n") + 1
    lines = record_lines(data[:consumed])
    damaged: List[DamagedRecord] = []
    _scan_lines(scan, paths[-1].name, lines, damaged, position.lines + 1)
    scan.corrupt = damaged
    offset = position.offset + consumed
    kept = position.tail + data[:consumed]
    scan.position = JournalPosition(
        chain=chain, offset=offset,
        lines=position.lines + len(lines), tail=kept[-_TAIL_BYTES:],
    )
    return scan


def quarantine_records(directory: Path, prefix: str,
                       damaged: List[DamagedRecord],
                       clock: Callable[[], float] = time.time) -> int:
    """Append damaged records to the journal's ``.quarantine`` sidecar.

    Each entry wraps the raw line with its provenance (segment, line,
    problem).  Entries are deduplicated by content key so a store that
    replays the same damaged journal twice (the operator has not run
    ``fsck --repair`` yet) does not grow the sidecar without bound.
    Returns how many entries were newly written; sidecar write failures
    are swallowed — quarantine is best-effort bookkeeping, replay must
    continue regardless.
    """
    if not damaged:
        return 0
    path = quarantine_path(directory, prefix)
    seen = set()
    try:
        for line in read_record_lines(path):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "key" in entry:
                seen.add(entry["key"])
    except OSError:
        pass
    written = 0
    try:
        with open(path, "a") as stream:
            for record in damaged:
                if record.key() in seen:
                    continue
                stream.write(json.dumps({
                    "ts": clock(),
                    "key": record.key(),
                    "segment": record.segment,
                    "lineno": record.lineno,
                    "problem": record.problem,
                    "raw": record.raw,
                }) + "\n")
                written += 1
    except OSError:
        return written
    return written


# -- the writer ---------------------------------------------------------------

class DurableJournal:
    """Append-only writer over a journal's segment chain.

    One instance owns the *active* segment: the newest existing segment
    at open time (the legacy base name for a fresh journal).
    ``append_many`` frames and writes a batch of lines, then flushes and
    fsyncs once; ``append`` is the batch of one.  Each record rotates
    first when the active segment has outgrown ``max_segment_bytes`` or
    ``max_segment_age_s``.  OSErrors propagate to the caller — append
    policy (required vs counted-drop vs read-only degradation) is the
    owner's concern, not the transport's.

    ``line_filter`` lets an owner keep a legacy mangle site in the write
    path (the run ledger's ``ledger_line``); any filter- or fault-damage
    to the line is counted on :attr:`damaged_writes` and reported
    through ``on_damage`` — a damaged write *is* a lost record, the
    checksum just makes the loss honest.
    """

    def __init__(
        self,
        directory: Path,
        prefix: str,
        clock: Callable[[], float] = time.time,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segment_age_s: Optional[float] = None,
        line_filter: Optional[Callable[[str], str]] = None,
        on_damage: Optional[Callable[[], None]] = None,
    ):
        self.directory = Path(directory)
        self.prefix = prefix
        self.max_segment_bytes = max(1, int(max_segment_bytes))
        self.max_segment_age_s = max_segment_age_s
        self.damaged_writes = 0
        #: records written and covered by a completed fsync
        self.appended = 0
        self.rotations = 0
        self.compactions = 0
        self._clock = clock
        self._line_filter = line_filter
        self._on_damage = on_damage
        self._stream = None
        self._active: Optional[Path] = None
        self._active_bytes = 0
        self._opened_at = 0.0

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._stream is None

    @property
    def active_path(self) -> Optional[Path]:
        return self._active

    def open(self) -> None:
        """(Re)open the newest segment for appending."""
        if self._stream is not None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        segments = segment_paths(self.directory, self.prefix)
        active = segments[-1] if segments else (
            self.directory / f"{self.prefix}.jsonl"
        )
        self._open_segment(active)

    def _open_segment(self, path: Path) -> None:
        self._stream = open(path, "a")
        self._active = path
        try:
            self._active_bytes = path.stat().st_size
        except OSError:
            self._active_bytes = 0
        self._opened_at = self._clock()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # -- appending ------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> bool:
        """Frame, write, flush, fsync one record; returns ``True`` when
        this append rotated onto a new segment.

        Raises :class:`JournalClosed` when closed and lets ``OSError``
        (ENOSPC, EIO, …) and serialization errors propagate — policy
        belongs to the owner.
        """
        return self.append_many([record])

    def append_many(self, records: Iterable[Mapping[str, Any]]) -> bool:
        """Frame and write every record, then flush and fsync once;
        returns ``True`` when the batch rotated onto a new segment.

        Group commit: a batch costs one fsync per segment it wrote to,
        because the outgoing segment is fsync'd before a rotation in the
        middle of the batch.  The fault sites fire once per record, so
        the bytes on disk are the ones one-at-a-time appends would
        leave.  When a record fails, the records before it are flushed
        and fsync'd before the error propagates; :attr:`appended` counts
        every record a completed fsync covered.  Errors propagate as in
        :meth:`append`.
        """
        if self._stream is None:
            raise JournalClosed(f"journal {self.prefix} is closed")
        rotated = False
        unsynced = 0
        try:
            for record in records:
                faults.check("disk_full", key=self.prefix)
                if self._due_for_rotation():
                    if unsynced:
                        self._sync()
                        self.appended += unsynced
                        unsynced = 0
                    self.rotate()
                    rotated = True
                self._write(record)
                unsynced += 1
        finally:
            if unsynced:
                self._sync()
                self.appended += unsynced
        return rotated

    def _write(self, record: Mapping[str, Any]) -> None:
        line = frame_record(record)
        written = line
        if self._line_filter is not None:
            written = self._line_filter(written)
        written = faults.mangle("journal_bitflip", written, key=self.prefix)
        torn = faults.mangle("journal_torn", written, key=self.prefix)
        # A torn write stops mid-record: no newline ever lands.
        data = torn if torn != written else written + "\n"
        self._stream.write(data)
        self._active_bytes += len(data.encode("utf-8", "replace"))
        if torn != line:
            self.damaged_writes += 1
            if self._on_damage is not None:
                self._on_damage()

    def _sync(self) -> None:
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def _due_for_rotation(self) -> bool:
        over_size = self._active_bytes >= self.max_segment_bytes
        over_age = (
            self.max_segment_age_s is not None
            and self._clock() - self._opened_at >= self.max_segment_age_s
        )
        return over_size or over_age

    def rotate(self) -> Path:
        """Close the active segment and start the next numbered one."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        next_path = self._next_segment_path()
        self._open_segment(next_path)
        self.rotations += 1
        return next_path

    def _next_segment_path(self) -> Path:
        highest = 0
        for path in segment_paths(self.directory, self.prefix):
            match = _SEGMENT_RE.match(path.name)
            if match and match.group("prefix") == self.prefix:
                highest = max(highest, int(match.group("index")))
        return self.directory / f"{self.prefix}.{highest + 1:04d}.jsonl"

    # -- compaction -----------------------------------------------------------

    def closed_segment_count(self) -> int:
        """Segments other than the active one — compaction's fodder."""
        segments = segment_paths(self.directory, self.prefix)
        if self._active is not None and self._active in segments:
            return len(segments) - 1
        return len(segments)

    def compact(self, state: Mapping[str, Any],
                schema_version: int = 1) -> Path:
        """Fold ``state`` into one snapshot record atomically, retire
        every older segment, and continue appending after the snapshot.

        The snapshot segment is written complete (temp file, flushed,
        fsync'd) and published with an atomic rename *before* any old
        segment is unlinked, so every crash window replays to the same
        state: crash before the rename reads the old segments; crash
        after it reads the snapshot (old segments, if any survive, are
        superseded the moment the replay folds the snapshot record).
        """
        retired = segment_paths(self.directory, self.prefix)
        folded_records = 0
        for segment in retired:
            try:
                folded_records += sum(
                    1 for line in read_record_lines(segment) if line.strip()
                )
            except OSError:
                continue
        snapshot = {
            "ts": self._clock(),
            "schema_version": schema_version,
            "event": SNAPSHOT_EVENT,
            "journal": self.prefix,
            "state": dict(state),
            "folded_segments": len(retired),
            "folded_records": folded_records,
        }
        target = self._next_segment_path()
        temp = target.with_suffix(target.suffix + ".tmp")
        with open(temp, "w") as stream:
            stream.write(frame_record(snapshot) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, target)
        self._fsync_directory()
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        for segment in retired:
            if segment == target:
                continue
            try:
                segment.unlink()
            except OSError:
                pass  # a survivor is superseded by the snapshot anyway
        self._open_segment(target)
        self.compactions += 1
        return target

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(str(self.directory), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FRAME_FIELD",
    "QUARANTINE_SUFFIX",
    "SNAPSHOT_EVENT",
    "DamagedRecord",
    "DurableJournal",
    "JournalClosed",
    "JournalPosition",
    "JournalScan",
    "canonical_json",
    "frame_record",
    "quarantine_path",
    "quarantine_records",
    "record_crc",
    "scan_journal",
    "scan_journal_since",
    "segment_paths",
    "verify_line",
]
