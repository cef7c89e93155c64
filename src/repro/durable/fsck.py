"""``repro fsck``: offline inspection and repair of durable journals.

A journal that replays is not necessarily a journal that is *healthy*:
replay quarantines checksum failures and keeps going, which is the
right posture for a server that must come back up, but it leaves the
damage on disk where every future boot re-reads it.  fsck is the
offline half of the recovery story — point it at a server state
directory or a batch run directory and it will:

* discover every journal there (``jobs``, ``ledger``) including all
  rotated segments;
* verify framing, checksums, and — for records the v1 event schema
  names — field shapes, reporting damage per segment and line;
* with ``--repair``: truncate torn tails, move corrupt records to the
  ``.quarantine`` sidecar and drop them from the segments (atomic
  rewrite: temp file, fsync, rename), leaving a journal whose next
  replay is byte-deterministic and damage-free;
* with ``--repair --compact``: additionally fold the repaired journal
  into a single :data:`~repro.durable.journal.SNAPSHOT_EVENT`
  checkpoint, retiring the event history (use after the damage is
  understood — compaction folds away the per-event audit trail).

The default repair deliberately preserves every undamaged record
verbatim — same bytes, same order — so invariants that count events
(exactly one ``job_started`` per job) hold across a repair by
construction, not by re-derivation.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.durable.journal import (
    DamagedRecord,
    JournalScan,
    SegmentTally,
    quarantine_records,
    read_record_lines,
    scan_journal,
    segment_paths,
)
from repro.errors import JournalError

#: The journals fsck knows how to find and (for repair) re-fold.
KNOWN_PREFIXES = ("jobs", "ledger", "memo")


# -- reports ------------------------------------------------------------------

@dataclass
class SegmentReport:
    """One segment file's health."""

    name: str
    records: int = 0
    framed: int = 0
    legacy: int = 0
    corrupt: List[Dict[str, Any]] = field(default_factory=list)
    torn_tail: bool = False

    def to_doc(self) -> Dict[str, Any]:
        return {
            "segment": self.name,
            "records": self.records,
            "framed": self.framed,
            "legacy": self.legacy,
            "corrupt": list(self.corrupt),
            "torn_tail": self.torn_tail,
        }


@dataclass
class JournalReport:
    """One journal's full inspection result."""

    directory: Path
    prefix: str
    segments: List[SegmentReport] = field(default_factory=list)
    corrupt_records: int = 0
    torn_tail: Optional[Dict[str, Any]] = None
    schema_problems: List[str] = field(default_factory=list)
    snapshot_records: int = 0
    total_records: int = 0

    @property
    def clean(self) -> bool:
        """No framing damage.  Schema problems are reported but do not
        make a journal dirty — they are a producer bug, not disk damage,
        and dropping the records would destroy information."""
        return self.corrupt_records == 0 and self.torn_tail is None

    def to_doc(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "journal": self.prefix,
            "clean": self.clean,
            "total_records": self.total_records,
            "snapshot_records": self.snapshot_records,
            "corrupt_records": self.corrupt_records,
            "torn_tail": self.torn_tail,
            "segments": [segment.to_doc() for segment in self.segments],
            "schema_problems": list(self.schema_problems),
        }


@dataclass
class RepairReport:
    """What ``--repair`` changed."""

    directory: Path
    prefix: str
    quarantined: int = 0
    dropped_records: int = 0
    truncated_tail: bool = False
    rewritten_segments: List[str] = field(default_factory=list)
    compacted: bool = False

    def to_doc(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "journal": self.prefix,
            "quarantined": self.quarantined,
            "dropped_records": self.dropped_records,
            "truncated_tail": self.truncated_tail,
            "rewritten_segments": list(self.rewritten_segments),
            "compacted": self.compacted,
        }


# -- discovery ----------------------------------------------------------------

def discover_journals(path: Path) -> List[Tuple[Path, str]]:
    """The durable journals under ``path`` (a state dir or run dir).

    Raises :class:`~repro.errors.JournalError` when the directory holds
    none — pointing fsck at the wrong directory should be loud, not a
    vacuous "all clean".
    """
    path = Path(path)
    if not path.is_dir():
        raise JournalError(f"{path} is not a directory")
    found: List[Tuple[Path, str]] = []
    for prefix in KNOWN_PREFIXES:
        if segment_paths(path, prefix):
            found.append((path, prefix))
    # The incremental memo journal lives in a ``memo/`` subdirectory by
    # convention (<run-dir>/memo, <state-dir>/memo) — cover it when fsck
    # is pointed at the parent.
    memo_dir = path / "memo"
    if memo_dir.is_dir() and segment_paths(memo_dir, "memo"):
        found.append((memo_dir, "memo"))
    if not found:
        raise JournalError(
            f"{path} holds no durable journal (looked for "
            f"{', '.join(f'{p}.jsonl' for p in KNOWN_PREFIXES)} "
            f"and rotated segments)"
        )
    return found


# -- inspection ---------------------------------------------------------------

def _damage_doc(record: DamagedRecord) -> Dict[str, Any]:
    return {
        "segment": record.segment,
        "line": record.lineno,
        "problem": record.problem,
    }


def _schema_problems(scan: JournalScan) -> List[str]:
    """Validate the surviving records against the v1 event schema.

    Unknown event names are tolerated (forward compatibility — the
    store's replay tolerates them too); known events with malformed
    fields are reported.
    """
    from repro.obs.events import validate_record
    problems: List[str] = []
    for position, record in enumerate(scan.records, start=1):
        found = [p for p in validate_record(record)
                 if not p.startswith("unknown event")]
        problems.extend(f"record {position}: {p}" for p in found)
    return problems


def inspect_journal(directory: Path, prefix: str) -> JournalReport:
    """Pure inspection: scan every segment, touch nothing."""
    scan = scan_journal(directory, prefix)
    report = JournalReport(
        directory=Path(directory), prefix=prefix,
        corrupt_records=len(scan.corrupt),
        torn_tail=_damage_doc(scan.torn_tail) if scan.torn_tail else None,
        snapshot_records=scan.snapshot_records,
        total_records=scan.total_records,
        schema_problems=_schema_problems(scan),
    )
    per_segment: Dict[str, SegmentReport] = {}
    for path in scan.segments:
        tally = scan.tallies.get(path.name, SegmentTally())
        per_segment[path.name] = SegmentReport(
            name=path.name, records=tally.records,
            framed=tally.framed, legacy=tally.legacy,
        )
        report.segments.append(per_segment[path.name])
    for damaged in scan.corrupt:
        segment = per_segment.get(damaged.segment)
        if segment is not None:
            segment.corrupt.append(_damage_doc(damaged))
    if scan.torn_tail is not None:
        segment = per_segment.get(scan.torn_tail.segment)
        if segment is not None:
            segment.torn_tail = True
    return report


def inspect_path(path: Path) -> List[JournalReport]:
    """Inspect every journal under a state/run directory."""
    return [inspect_journal(directory, prefix)
            for directory, prefix in discover_journals(path)]


# -- repair -------------------------------------------------------------------

def _rewrite_segment(path: Path, drop: Set[int]) -> None:
    """Rewrite one segment without the dropped line numbers, atomically.

    Surviving lines are preserved byte-for-byte — repair removes damage,
    it never re-serializes healthy records.
    """
    kept = [
        line for lineno, line in enumerate(read_record_lines(path), start=1)
        if lineno not in drop and line.strip()
    ]
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "w") as stream:
        for line in kept:
            stream.write(line + "\n")
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temp, path)


def _compact_journal(directory: Path, prefix: str,
                     clock: Callable[[], float]) -> bool:
    """Re-fold a repaired journal into one snapshot checkpoint."""
    if prefix == "jobs":
        from repro.server.store import JobStore
        store = JobStore(directory, clock=clock, passive=True)
        try:
            store.compact()
        finally:
            store.close()
        return True
    if prefix == "ledger":
        from repro.service.ledger import compact_ledger_dir
        return compact_ledger_dir(directory, clock=clock)
    if prefix == "memo":
        # Replay the (now repaired) journal into a fresh store and fold
        # it back into one snapshot segment — same path the online
        # compactor takes, so fsck and runtime compaction agree.
        from repro.incremental.journal import MemoJournal
        from repro.incremental.memo import MemoStore
        store = MemoStore()
        journal = MemoJournal(directory, clock=clock)
        store.attach_journal(journal)
        return journal.compact()
    return False


def repair_journal(directory: Path, prefix: str, compact: bool = False,
                   clock: Callable[[], float] = time.time) -> RepairReport:
    """Make a journal's next replay damage-free.

    Corrupt records are quarantined (sidecar) then dropped from their
    segments; a torn tail is truncated.  Every rewrite is atomic, so a
    crash mid-repair leaves either the old damaged segment or the new
    clean one — never a half-rewritten file.
    """
    directory = Path(directory)
    scan = scan_journal(directory, prefix)
    report = RepairReport(directory=directory, prefix=prefix)
    report.quarantined = quarantine_records(
        directory, prefix, list(scan.corrupt), clock=clock,
    )
    drops: Dict[str, Set[int]] = {}
    for damaged in scan.corrupt:
        drops.setdefault(damaged.segment, set()).add(damaged.lineno)
        report.dropped_records += 1
    if scan.torn_tail is not None:
        drops.setdefault(scan.torn_tail.segment, set()).add(
            scan.torn_tail.lineno
        )
        report.truncated_tail = True
    for segment in scan.segments:
        if segment.name not in drops:
            continue
        try:
            _rewrite_segment(segment, drops[segment.name])
        except OSError as error:
            raise JournalError(
                f"cannot rewrite {segment}: {error}"
            ) from None
        report.rewritten_segments.append(segment.name)
    if compact:
        report.compacted = _compact_journal(directory, prefix, clock)
    return report


def repair_path(path: Path, compact: bool = False,
                clock: Callable[[], float] = time.time) -> List[RepairReport]:
    """Repair every journal under a state/run directory."""
    return [repair_journal(directory, prefix, compact=compact, clock=clock)
            for directory, prefix in discover_journals(path)]


__all__ = [
    "KNOWN_PREFIXES",
    "JournalReport",
    "RepairReport",
    "SegmentReport",
    "discover_journals",
    "inspect_journal",
    "inspect_path",
    "repair_journal",
    "repair_path",
]
