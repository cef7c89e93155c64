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
:class:`~repro.durable.lock.FileLock`.  A flush is one group commit
(``DurableJournal.append_many``): every buffered record is written,
then fsync'd once, so journaling costs one fsync per job rather than
one per entry.  A lost buffer is harmless: memo entries are
re-learnable, so the journal is best-effort durable where the job store
is required-durable.  Every write failure degrades to in-memory
operation and is counted, never raised.

**Read policy.**  ``load`` replays every good record through the
store's idempotent adopt path and counts every damaged one as an
``incremental.memo.invalidations`` (a corrupt memo record is simply a
memo we no longer have).  Replay never raises: a journal ruined
end-to-end loads as an empty memo and the walk runs from scratch —
the chaos suite pins exactly this degradation.  ``catch_up`` replays
only the complete lines appended since the last load or catch-up, with
the same checks; it refuses, and the caller replays in full, whenever
the segment chain has changed since (rotation, compaction, an ``fsck
--repair`` rewrite) or the active segment no longer holds what was
read.  ``incremental.memo.replays{mode="full"|"catch_up"}`` counts
both.

**Resident stores.**  :func:`resident_memo` is how long-lived worker
entry points (batch and server jobs, fleet shards) get their store: one
per memo directory per process, kept between jobs and caught up before
each one, so a job's memo cost grows with the records written since the
previous job, not with the journal's history.  ``explore(memo_dir=...)``
and :func:`open_memo` replay in full on every call.

Fault sites come with the substrate: ``disk_full``,
``journal_bitflip``, and ``journal_torn`` keyed on ``"memo"`` fire
once per record inside ``append_many``, so corruption is injectable
mid-run without any code here knowing about it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, Union,
)

from repro.durable.journal import (
    DurableJournal,
    JournalPosition,
    JournalScan,
    SNAPSHOT_EVENT,
    scan_journal,
    scan_journal_since,
    segment_paths,
)
from repro.durable.lock import FileLock
from repro.obs import current_registry

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
        clock: Optional[Callable[[], float]] = None,
        max_segment_bytes: int = _SEGMENT_BYTES,
    ):
        self.directory = Path(directory)
        # Resolved now, not when the class was defined, so a clock pinned
        # by a caller that cannot reach this constructor still applies.
        self._clock = clock if clock is not None else time.time
        self._max_segment_bytes = max_segment_bytes
        self._lock = FileLock(
            self.directory / f"{MEMO_PREFIX}.lock", timeout_s=lock_timeout_s
        )
        self._pending: List[Tuple[str, str, Any]] = []
        self._store = None
        #: where the last load or catch-up stopped reading
        self._position: Optional[JournalPosition] = None
        self.write_failures = 0
        self.damaged_writes = 0
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
        self._position = None
        try:
            scan = scan_journal(self.directory, MEMO_PREFIX)
        except Exception:
            return 0
        self._position = scan.position
        current_registry().counter("incremental.memo.replays",
                                   mode="full").inc()
        return self._replay(store, scan)

    def catch_up(self, store) -> bool:
        """Adopt into ``store`` what was appended since the last
        :meth:`load` or catch-up; ``False`` when the journal cannot be
        resumed from there and the caller must :meth:`load` afresh.

        Records are checked exactly as ``load`` checks them, and a
        final line whose newline has not landed is left for next time.
        """
        if self._position is None:
            return False
        try:
            scan = scan_journal_since(self.directory, MEMO_PREFIX,
                                      self._position)
        except Exception:
            scan = None
        if scan is None:
            return False
        self._position = scan.position
        current_registry().counter("incremental.memo.replays",
                                   mode="catch_up").inc()
        self._replay(store, scan)
        return True

    def _replay(self, store, scan: JournalScan) -> int:
        adopted = 0
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
        """Append every buffered entry under the cross-process lock, as
        one group commit.

        Returns how many records landed.  Failures (lock timeout, disk
        full, any OSError — including the injected ``disk_full`` fault)
        are counted on :attr:`write_failures` and the rest of the batch
        is dropped: the memo keeps working in memory and re-learns on
        the next cold walk, which is exactly the degradation contract.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        journal = None
        try:
            with self._lock:
                journal = self._open()
                try:
                    journal.append_many({
                        "ts": self._clock(),
                        "schema_version": 1,
                        "event": MEMO_EVENT,
                        "domain": domain,
                        "key": key,
                        "value": value,
                    } for domain, key, value in pending)
                    self._maybe_compact(journal)
                finally:
                    journal.close()
        except (OSError, TimeoutError):
            written = journal.appended if journal is not None else 0
            self.write_failures += 1
            if self._store is not None:
                self._store.invalidate(len(pending) - written,
                                       reason="write_failed")
            return written
        self.records_flushed += len(pending)
        return len(pending)

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
        self.damaged_writes += 1
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

    @property
    def diverged(self) -> bool:
        """Whether a write failed or landed damaged, so the store may
        hold entries the journal does not."""
        return bool(self.write_failures or self.damaged_writes)


def open_memo(directory: Optional[Path]):
    """The standard construction: a :class:`MemoStore`, journal-backed
    when ``directory`` is given, ephemeral otherwise.

    Every call replays the journal in full; this is what ``explore``
    uses when handed a ``memo_dir``, and what :func:`resident_memo`
    falls back to.  The directory convention is
    ``<run-dir or state-dir>/memo/``.
    """
    from repro.incremental.memo import MemoStore

    store = MemoStore()
    if directory is not None:
        store.attach_journal(MemoJournal(Path(directory)))
    return store


#: This process's resident stores, by absolute memo directory.  A job
#: checks its store out of the map for its whole run, so concurrent jobs
#: in one process never share one.
_resident: Dict[str, Any] = {}


@contextmanager
def resident_memo(directory: Optional[Union[str, Path]]
                  ) -> Iterator[Any]:
    """The memo store one worker job runs against.

    With a directory, the process keeps one store per directory between
    jobs.  Each job checks it out, catches it up on what other writers
    appended (:meth:`MemoJournal.catch_up`), and falls back to a full
    replay when the journal cannot be resumed.  Each job starts fresh
    tallies, with the memo counters registered at zero in the ambient
    registry.  The store goes back only when the journal holds
    everything it does.  A failed or damaged flush, an unflushed buffer
    or an exception evicts it, and the next job replays from disk and
    re-records what was lost, as a fresh store would.  A job that finds
    the store checked out by another thread replays in full.

    Without a directory every job gets a fresh ephemeral store.
    """
    if directory is None:
        yield open_memo(None)
        return
    key = os.path.abspath(directory)
    store = _resident.pop(key, None)
    if store is not None:
        store.reset_tallies()
        if not store._journal.catch_up(store):
            store = None
    if store is None:
        store = open_memo(Path(directory))
    yield store
    journal = store._journal
    if not journal.pending and not journal.diverged:
        _resident[key] = store


def release_memo(directory: Optional[Union[str, Path]]) -> None:
    """Drop this process's resident store for ``directory``: the next
    job replays the journal in full.  In-process runners call this when
    they stop, so a later run starts from disk."""
    if directory is not None:
        _resident.pop(os.path.abspath(directory), None)
