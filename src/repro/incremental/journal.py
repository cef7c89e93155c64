"""The persistent cross-run memo journal.

Warm starts should survive restarts, and fleet workers exploring the
same space should share what any of them learned.  ``MemoJournal``
gives the memo store both, on the durability substrate the job store
and run ledger already trust: CRC-framed segmented JSONL
(:mod:`repro.durable.journal`, prefix ``memo``), with the ``fsck``
verbs extended to cover it (``repro fsck`` knows the prefix).

**Record format** (one plain-JSON line, ``crc32``-framed):

.. code-block:: json

   {"event": "memo_entry", "schema_version": 1,
    "domain": "point", "key": "<sha256>", "value": {...}, "ts": ...,
    "crc32": "..."}

plus the substrate's ``journal_snapshot`` records written by
compaction, whose ``state`` holds the full entry map.

**Write policy.**  Appends are *buffered* and flushed in batch (end of
an exploration, end of a worker job) under one flock-guarded
:class:`~repro.durable.lock.FileLock` — ``DurableJournal.append``
fsyncs every record, so journaling inline with evaluation would cost
more than the work the memo saves.  A lost buffer is harmless: memo
entries are re-learnable, so the journal is best-effort durable where
the job store is required-durable.  Every write failure degrades to
in-memory operation and is counted, never raised.

**Read policy.**  ``load`` replays every good record through the
store's idempotent adopt path and counts every damaged one as an
``incremental.memo.invalidations`` (a corrupt memo record is simply a
memo we no longer have).  Replay never raises: a journal ruined
end-to-end loads as an empty memo and the walk runs from scratch —
the chaos suite pins exactly this degradation.

Fault sites come with the substrate: ``disk_full``,
``journal_bitflip``, and ``journal_torn`` keyed on ``"memo"`` fire
inside ``append``, so corruption is injectable mid-run without any
code here knowing about it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable.journal import (
    DurableJournal,
    SNAPSHOT_EVENT,
    scan_journal,
    segment_paths,
)
from repro.durable.lock import FileLock

#: The journal's segment prefix (``memo.jsonl``, ``memo.0001.jsonl``, …).
MEMO_PREFIX = "memo"

#: The v1 typed event name for one memo entry.
MEMO_EVENT = "memo_entry"

#: Compact once this many closed segments have accumulated.
_COMPACT_SEGMENTS = 2

#: Memo journals rotate early: segments are retired whole by
#: compaction, and smaller units bound what one corruption can erase.
_SEGMENT_BYTES = 1 * 1024 * 1024


class MemoJournal:
    """Durable, flock-guarded persistence for a :class:`MemoStore`.

    One instance belongs to one store (wired by
    ``MemoStore.attach_journal``).  Multiple processes may share the
    directory: the flush path holds ``memo.lock`` across
    re-open/append/close, so concurrent batch workers interleave whole
    batches rather than torn lines, and entries are value-transparent
    (content-hash keys cover every input), so replay order between
    processes cannot matter.
    """

    def __init__(
        self,
        directory: Path,
        lock_timeout_s: Optional[float] = 30.0,
        clock: Callable[[], float] = time.time,
        max_segment_bytes: int = _SEGMENT_BYTES,
    ):
        self.directory = Path(directory)
        self._clock = clock
        self._max_segment_bytes = max_segment_bytes
        self._lock = FileLock(
            self.directory / f"{MEMO_PREFIX}.lock", timeout_s=lock_timeout_s
        )
        self._pending: List[Tuple[str, str, Any]] = []
        self._store = None
        self.write_failures = 0
        self.records_flushed = 0
        self.records_loaded = 0
        self.compactions = 0

    # -- loading ---------------------------------------------------------------

    def load(self, store) -> int:
        """Replay the journal into ``store``; returns entries adopted.

        Damage never raises: corrupt records and torn tails count as
        invalidations on the store, then replay continues.  Unknown
        events are skipped silently (forward compatibility — a newer
        writer's vocabulary must not wedge an older reader).
        """
        self._store = store
        adopted = 0
        try:
            scan = scan_journal(self.directory, MEMO_PREFIX)
        except Exception:
            return 0
        damaged = len(scan.corrupt) + (1 if scan.torn_tail else 0)
        if damaged:
            store.invalidate(damaged, reason="corrupt")
        for record in scan.records:
            event = record.get("event")
            if event == SNAPSHOT_EVENT:
                adopted += self._adopt_snapshot(store, record.get("state"))
            elif event == MEMO_EVENT:
                domain = record.get("domain")
                key = record.get("key")
                if not isinstance(domain, str) or not isinstance(key, str):
                    store.invalidate(reason="malformed")
                    continue
                adopted += self._adopt(store, domain, key, record.get("value"))
        self.records_loaded += adopted
        return adopted

    def _adopt_snapshot(self, store, state) -> int:
        if not isinstance(state, dict):
            store.invalidate(reason="malformed")
            return 0
        adopted = 0
        entries = state.get("entries")
        if not isinstance(entries, list):
            store.invalidate(reason="malformed")
            return 0
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3
                    and isinstance(entry[0], str) and isinstance(entry[1], str)):
                store.invalidate(reason="malformed")
                continue
            adopted += self._adopt(store, entry[0], entry[1], entry[2])
        return adopted

    @staticmethod
    def _adopt(store, domain: str, key: str, value) -> int:
        try:
            return 1 if store._adopt(domain, key, value) else 0
        except (TypeError, ValueError, KeyError):
            store.invalidate(reason="undecodable")
            return 0

    # -- writing ---------------------------------------------------------------

    def record(self, domain: str, key: str, value: Any) -> None:
        """Buffer one new entry for the next :meth:`flush`."""
        self._pending.append((domain, key, value))

    def flush(self) -> int:
        """Append every buffered entry under the cross-process lock.

        Returns how many records landed.  Failures (lock timeout, disk
        full, any OSError — including the injected ``disk_full`` fault)
        are counted on :attr:`write_failures` and the batch is dropped:
        the memo keeps working in memory and re-learns on the next cold
        walk, which is exactly the degradation contract.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        written = 0
        try:
            with self._lock:
                journal = self._open()
                try:
                    for domain, key, value in pending:
                        journal.append({
                            "ts": self._clock(),
                            "schema_version": 1,
                            "event": MEMO_EVENT,
                            "domain": domain,
                            "key": key,
                            "value": value,
                        })
                        written += 1
                    self._maybe_compact(journal)
                finally:
                    journal.close()
        except (OSError, TimeoutError):
            self.write_failures += 1
            if self._store is not None:
                self._store.invalidate(len(pending) - written,
                                       reason="write_failed")
            return written
        self.records_flushed += written
        return written

    def _open(self) -> DurableJournal:
        journal = DurableJournal(
            self.directory, MEMO_PREFIX,
            clock=self._clock,
            max_segment_bytes=self._max_segment_bytes,
            on_damage=self._on_damage,
        )
        journal.open()
        return journal

    def _on_damage(self) -> None:
        # A fault-mangled append (bitflip/torn) is a record the next
        # load will reject — count the loss where it happens.
        if self._store is not None:
            self._store.invalidate(reason="damaged_write")

    def _maybe_compact(self, journal: DurableJournal) -> None:
        if journal.closed_segment_count() < _COMPACT_SEGMENTS:
            return
        if self._store is None:
            return
        journal.compact({"entries": self._snapshot_entries()})
        self.compactions += 1

    def compact(self) -> bool:
        """Fold the attached store into one snapshot segment now."""
        if self._store is None:
            return False
        try:
            with self._lock:
                journal = self._open()
                try:
                    journal.compact({"entries": self._snapshot_entries()})
                finally:
                    journal.close()
        except (OSError, TimeoutError):
            self.write_failures += 1
            return False
        self.compactions += 1
        return True

    def _snapshot_entries(self) -> List[List[Any]]:
        store = self._store
        entries: List[List[Any]] = []
        for key, value in store._points.items():
            entries.append(["point", key, value])
        for key, depths in store._legality.items():
            entries.append(["legality", key, list(depths)])
        for key in sorted(store._verified):
            entries.append(["verify", key, True])
        for key, value in store._schedules.items():
            entries.append(["schedule", key, value])
        return entries

    def close(self) -> None:
        self.flush()

    # -- inspection ------------------------------------------------------------

    def segment_count(self) -> int:
        return len(segment_paths(self.directory, MEMO_PREFIX))

    @property
    def pending(self) -> int:
        return len(self._pending)


def open_memo(directory: Optional[Path]):
    """The standard construction: a :class:`MemoStore`, journal-backed
    when ``directory`` is given, ephemeral otherwise.

    This is what every entry point (explore, batch worker, server
    scheduler, fleet shard) calls; the directory convention is
    ``<run-dir or state-dir>/memo/``.
    """
    from repro.incremental.memo import MemoStore

    store = MemoStore()
    if directory is not None:
        store.attach_journal(MemoJournal(Path(directory)))
    return store
