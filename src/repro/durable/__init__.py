"""Durable-state substrate: checksummed segmented journals + fsck.

``repro.durable.journal`` is the write/replay layer the long-lived
journals (the server's job store, the batch run ledger, the memo
journal) sit on; ``repro.durable.lock`` serializes writers of a journal
shared between processes; ``repro.durable.fsck`` is the offline
inspection/repair toolkit behind the ``repro fsck`` CLI verb.  See
DESIGN.md §6.8 for the on-disk format and the corruption taxonomy.
"""

from repro.durable.journal import (
    DEFAULT_SEGMENT_BYTES,
    FRAME_FIELD,
    QUARANTINE_SUFFIX,
    SNAPSHOT_EVENT,
    DamagedRecord,
    DurableJournal,
    JournalPosition,
    JournalScan,
    frame_record,
    quarantine_path,
    quarantine_records,
    record_crc,
    scan_journal,
    scan_journal_since,
    segment_paths,
    verify_line,
)
from repro.durable.lock import FileLock
from repro.durable.fsck import (
    JournalReport,
    RepairReport,
    discover_journals,
    inspect_journal,
    inspect_path,
    repair_journal,
    repair_path,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FRAME_FIELD",
    "QUARANTINE_SUFFIX",
    "SNAPSHOT_EVENT",
    "DamagedRecord",
    "DurableJournal",
    "FileLock",
    "JournalPosition",
    "JournalReport",
    "JournalScan",
    "RepairReport",
    "discover_journals",
    "frame_record",
    "inspect_journal",
    "inspect_path",
    "quarantine_path",
    "quarantine_records",
    "record_crc",
    "repair_journal",
    "repair_path",
    "scan_journal",
    "scan_journal_since",
    "segment_paths",
    "verify_line",
]
