"""The journaled run ledger: what makes a batch killable.

A batch that dies — OOM kill, SIGKILL, power loss — must not forfeit
the explorations it already finished.  The ledger is an append-only
JSONL journal inside a *run directory*, fsync'd per event, recording
every job's attempts and terminal result.  ``--resume <run-dir>``
replays it, adopts every terminal result verbatim, re-enqueues attempts
that were in flight when the run died, and runs only what is missing —
so a resumed batch produces selections bit-identical to an
uninterrupted one (each job is a deterministic function of its spec,
and terminal payloads are adopted bytes-for-bytes).

Run directory layout::

    <run-dir>/
      manifest.json    normalized manifest snapshot (paths resolved)
      ledger.jsonl     the journal: run_start, job_attempt, job_done, ...
      trace.jsonl      telemetry (default location; append on resume)
      memo/            memo journal, the persistent estimate store
                       (default location, when incremental)

Consistency: ``run_start`` records a fingerprint over every job's
*spec hash* (the result-determining fields: program, board, search and
pipeline options).  Resume recomputes it from the manifest snapshot and
refuses a mismatch with :class:`~repro.errors.LedgerError` — resuming a
ledger against a different manifest would silently mix two batches.
Robustness knobs (``timeout_s``, ``max_attempts``, ``call_deadline_s``)
are deliberately outside the hash: tightening them between resumes does
not change results.

Crash-window analysis, event by event: a torn or missing ``job_attempt``
only loses an attempt count; a torn ``job_done`` means the job re-runs
on resume — wasteful, never wrong, because the re-run recomputes the
identical payload.  Replay therefore skips a torn final line.  A
*failed* append (ENOSPC, injected fault) degrades the same way: it is
counted on :attr:`RunLedger.dropped_writes`, surfaced in the batch
summary, and the batch keeps running on its in-memory state.

Since PR 8 the ledger sits on :mod:`repro.durable.journal`: records are
CRC32-framed (the checksum rides as a ``crc32`` field, so every line is
still plain JSON and pre-checksum ledgers replay unchanged), the file
rotates into ``ledger.0001.jsonl``… segments past a size threshold, and
compaction can fold history into a ``journal_snapshot`` checkpoint.
Replay now tells a torn tail (only ever the final line of the final
segment) apart from mid-file corruption: damaged records elsewhere are
counted on :attr:`LedgerState.corrupt_records` — and quarantined to the
``ledger.quarantine`` sidecar by :meth:`RunLedger.resume` — instead of
being silently conflated with crash debris.  ``repro fsck <run-dir>``
inspects and repairs the same format offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import faults
from repro.durable.journal import (
    DEFAULT_SEGMENT_BYTES,
    SNAPSHOT_EVENT,
    DurableJournal,
    quarantine_records,
    scan_journal,
    segment_paths,
)
from repro.errors import LedgerError
from repro.obs import current_registry
from repro.obs.events import SCHEMA_VERSION
from repro.service.jobs import BatchManifest, JobSpec, parse_manifest

LEDGER_NAME = "ledger.jsonl"
MANIFEST_NAME = "manifest.json"

#: Segment-file prefix (``ledger.jsonl`` is segment zero).
LEDGER_PREFIX = "ledger"

#: Rotations auto-compact once this many closed segments accumulate.
DEFAULT_COMPACT_SEGMENTS = 4


# -- identity -----------------------------------------------------------------

def spec_hash(spec: JobSpec) -> str:
    """Hash of a job's result-determining fields.

    Covers exactly what :func:`repro.service.worker.execute_job` feeds
    the exploration; retry/timeout knobs are excluded on purpose.
    """
    doc = {
        "id": spec.id,
        "program": spec.program,
        "board": spec.board,
        "search": dict(spec.search),
        "pipeline": dict(spec.pipeline),
    }
    # Only non-default estimation settings enter the hash, so ledgers
    # written before backends existed still resume cleanly.
    if spec.backend != "analytic":
        doc["backend"] = spec.backend
    if spec.fidelity != "single":
        doc["fidelity"] = spec.fidelity
    # Same conditional-inclusion discipline for the tenant: pre-tenant
    # ledgers (and every default-tenant manifest) hash unchanged.
    if spec.tenant != "default":
        doc["tenant"] = spec.tenant
    encoded = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def manifest_fingerprint(manifest: BatchManifest) -> str:
    """Order-sensitive fingerprint over every job's spec hash."""
    joined = "\n".join(spec_hash(spec) for spec in manifest.jobs)
    return hashlib.sha256(joined.encode()).hexdigest()


def manifest_document(manifest: BatchManifest) -> Dict[str, Any]:
    """A normalized manifest snapshot that re-parses to the same jobs.

    Source-file paths were resolved to absolute paths at load time, so
    the snapshot is location-independent.
    """
    jobs: List[Dict[str, Any]] = []
    for spec in manifest.jobs:
        job: Dict[str, Any] = {
            "id": spec.id, "program": spec.program, "board": spec.board,
            "max_attempts": spec.max_attempts,
        }
        if spec.search:
            job["search"] = dict(spec.search)
        if spec.pipeline:
            job["pipeline"] = dict(spec.pipeline)
        if spec.timeout_s is not None:
            job["timeout_s"] = spec.timeout_s
        if spec.call_deadline_s is not None:
            job["call_deadline_s"] = spec.call_deadline_s
        if spec.backend != "analytic":
            job["backend"] = spec.backend
        if spec.fidelity != "single":
            job["fidelity"] = spec.fidelity
        if spec.tenant != "default":
            job["tenant"] = spec.tenant
        jobs.append(job)
    return {"jobs": jobs}


# -- replay state -------------------------------------------------------------

@dataclass
class LedgerState:
    """What a replayed ledger says about a run.

    Attributes:
        completed: job id -> its terminal ``job_done`` record (the
            payload/failure inside is adopted verbatim on resume).
        in_flight: job id -> the highest attempt number that started
            without reaching a terminal record (re-enqueued on resume).
        fingerprint: the manifest fingerprint ``run_start`` recorded.
        resumes: how many times this run has been resumed before.
        corrupt_records: mid-file damage found by replay (checksum
            failures, unparseable lines that are *not* the torn tail).
        torn_tail: the final line of the final segment was a torn write.
    """

    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    in_flight: Dict[str, int] = field(default_factory=dict)
    fingerprint: Optional[str] = None
    resumes: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False

    def snapshot_state(self) -> Dict[str, Any]:
        """The compaction checkpoint :func:`replay` folds back."""
        return {
            "fingerprint": self.fingerprint,
            "resumes": self.resumes,
            "completed": dict(self.completed),
            "in_flight": dict(self.in_flight),
        }


def replay(path: Path) -> LedgerState:
    """Fold a ledger (all segments) into its end state.

    ``path`` is the ledger's base file (``<run-dir>/ledger.jsonl``);
    rotated segments next to it are replayed in order.  A torn final
    line is skipped as the crash-window analysis always allowed;
    mid-file damage is *counted*, never silently conflated with crash
    debris (quarantining is :meth:`RunLedger.resume`'s job — this
    function stays read-only).  A ``journal_snapshot`` record resets
    state to its checkpoint.
    """
    path = Path(path)
    scan = scan_journal(path.parent, _prefix_of(path))
    state = LedgerState(
        corrupt_records=len(scan.corrupt),
        torn_tail=scan.torn_tail is not None,
    )
    for record in scan.records:
        event = record.get("event")
        if event == SNAPSHOT_EVENT:
            _fold_snapshot(state, record)
        elif event == "run_start":
            state.fingerprint = record.get("fingerprint")
        elif event == "run_resume":
            state.resumes += 1
        elif event == "job_attempt":
            job_id = record.get("job_id")
            if isinstance(job_id, str) and job_id not in state.completed:
                attempt = record.get("attempt", 1)
                state.in_flight[job_id] = max(
                    state.in_flight.get(job_id, 1),
                    attempt if isinstance(attempt, int) else 1,
                )
        elif event == "job_done":
            job_id = record.get("job_id")
            if isinstance(job_id, str):
                state.completed[job_id] = record
                state.in_flight.pop(job_id, None)
    return state


def _prefix_of(path: Path) -> str:
    name = Path(path).name
    return name[:-len(".jsonl")] if name.endswith(".jsonl") else name


def _fold_snapshot(state: LedgerState, record: Mapping[str, Any]) -> None:
    doc = record.get("state")
    if not isinstance(doc, Mapping):
        return
    fingerprint = doc.get("fingerprint")
    if isinstance(fingerprint, str):
        state.fingerprint = fingerprint
    resumes = doc.get("resumes")
    if isinstance(resumes, int):
        state.resumes = resumes
    state.completed = {
        job_id: dict(done) for job_id, done in doc.get("completed", {}).items()
        if isinstance(job_id, str) and isinstance(done, Mapping)
    }
    state.in_flight = {
        job_id: attempt for job_id, attempt in doc.get("in_flight", {}).items()
        if isinstance(job_id, str) and isinstance(attempt, int)
    }


def compact_ledger_dir(run_dir: Path, clock=time.time) -> bool:
    """Fold a run directory's ledger into one snapshot checkpoint.

    The offline entry point ``repro fsck --repair --compact`` uses; a
    live batch compacts through its own :class:`RunLedger` instead.
    Returns ``False`` when there is no ledger to compact.
    """
    run_dir = Path(run_dir)
    if not segment_paths(run_dir, LEDGER_PREFIX):
        return False
    state = replay(run_dir / LEDGER_NAME)
    journal = DurableJournal(run_dir, LEDGER_PREFIX, clock=clock)
    try:
        journal.compact(state.snapshot_state(), schema_version=SCHEMA_VERSION)
    finally:
        journal.close()
    return True


# -- the ledger ---------------------------------------------------------------

class RunLedger:
    """Append-only journal of one batch run, fsync'd per event.

    Construct through :meth:`create` (fresh run directory) or
    :meth:`resume` (existing one); both leave the ledger open for
    appending.  Append failures never raise — they are counted on
    :attr:`dropped_writes` (losing a journal entry only costs re-work on
    the *next* resume, while raising would fail the job that just
    finished).
    """

    def __init__(self, run_dir: Path, fingerprint: str, clock=time.time,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 compact_segments: int = DEFAULT_COMPACT_SEGMENTS):
        self.run_dir = Path(run_dir)
        #: segment zero — the name every pre-rotation reader knows.
        self.path = self.run_dir / LEDGER_NAME
        self.fingerprint = fingerprint
        self.dropped_writes = 0
        self.compact_segments = max(1, int(compact_segments))
        self._clock = clock
        self._journal = DurableJournal(
            self.run_dir, LEDGER_PREFIX, clock=clock,
            max_segment_bytes=max_segment_bytes,
            line_filter=lambda line: faults.mangle("ledger_line", line),
            on_damage=self._count_drop,
        )

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(
        cls, run_dir: Path, manifest: BatchManifest, clock=time.time
    ) -> "RunLedger":
        """Start a fresh run directory; refuses to clobber an existing
        ledger (that is what :meth:`resume` is for)."""
        run_dir = Path(run_dir)
        ledger_path = run_dir / LEDGER_NAME
        if segment_paths(run_dir, LEDGER_PREFIX):
            raise LedgerError(
                f"{ledger_path} already exists; resume the run instead"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        snapshot = manifest_document(manifest)
        (run_dir / MANIFEST_NAME).write_text(
            json.dumps(snapshot, indent=2) + "\n"
        )
        ledger = cls(run_dir, manifest_fingerprint(manifest), clock=clock)
        ledger._open()
        ledger._append({
            "event": "run_start",
            "fingerprint": ledger.fingerprint,
            "jobs": len(manifest),
            "manifest_source": manifest.source,
        })
        return ledger

    @classmethod
    def resume(
        cls, run_dir: Path, clock=time.time
    ) -> Tuple["RunLedger", BatchManifest, LedgerState]:
        """Reopen a run directory: replay the journal, verify it against
        the manifest snapshot, and return everything a resumed run needs.
        """
        run_dir = Path(run_dir)
        ledger_path = run_dir / LEDGER_NAME
        manifest_path = run_dir / MANIFEST_NAME
        if not segment_paths(run_dir, LEDGER_PREFIX) \
                or not manifest_path.exists():
            raise LedgerError(
                f"{run_dir} is not a run directory (missing "
                f"{LEDGER_NAME} or {MANIFEST_NAME})"
            )
        try:
            raw = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise LedgerError(
                f"manifest snapshot {manifest_path} is corrupt: {error}"
            ) from None
        manifest = parse_manifest(
            raw, source=str(manifest_path), base_dir=run_dir
        )
        state = replay(ledger_path)
        if state.corrupt_records:
            # Damage that is not a torn tail: quarantine it (the sidecar
            # dedups across resumes) and keep resuming — a batch must
            # come back up even when the disk lied to it.
            scan = scan_journal(run_dir, LEDGER_PREFIX)
            quarantine_records(run_dir, LEDGER_PREFIX, scan.corrupt,
                               clock=clock)
            current_registry().counter("journal.corrupt_records").inc(
                state.corrupt_records
            )
        fingerprint = manifest_fingerprint(manifest)
        if state.fingerprint is None:
            raise LedgerError(
                f"{ledger_path} has no readable run_start record"
            )
        if state.fingerprint != fingerprint:
            raise LedgerError(
                f"{run_dir}: manifest does not match the ledger "
                f"(fingerprint {fingerprint[:12]} vs recorded "
                f"{state.fingerprint[:12]}); refusing to resume"
            )
        hashes = {spec.id: spec_hash(spec) for spec in manifest.jobs}
        for job_id, record in state.completed.items():
            if job_id not in hashes:
                raise LedgerError(
                    f"{run_dir}: ledger records job {job_id!r} that is "
                    f"not in the manifest; refusing to resume"
                )
            recorded = record.get("spec_hash")
            if recorded is not None and recorded != hashes[job_id]:
                raise LedgerError(
                    f"{run_dir}: job {job_id!r} changed since it was "
                    f"recorded; refusing to resume"
                )
        ledger = cls(run_dir, fingerprint, clock=clock)
        ledger._open()
        ledger._append({
            "event": "run_resume",
            "completed": len(state.completed),
            "in_flight": len(state.in_flight),
        })
        return ledger, manifest, state

    def _open(self) -> None:
        self._journal.open()

    def close(self) -> None:
        self._journal.close()

    def compact(self) -> None:
        """Fold the ledger's history into one snapshot checkpoint.

        Resume-critical state (terminal results, in-flight attempts,
        the fingerprint) survives by construction; the per-event audit
        trail folds away, which is the point — a long campaign's ledger
        stops growing with its history.
        """
        state = replay(self.path)
        state.fingerprint = state.fingerprint or self.fingerprint
        self._journal.compact(state.snapshot_state(),
                              schema_version=SCHEMA_VERSION)

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recording ------------------------------------------------------------

    def record_attempt(self, spec: JobSpec, attempt: int) -> None:
        self._append({
            "event": "job_attempt", "job_id": spec.id, "attempt": attempt,
            "spec_hash": spec_hash(spec),
        })

    def record_success(
        self, spec: JobSpec, attempt: int, payload: Mapping[str, Any]
    ) -> None:
        self._append({
            "event": "job_done", "job_id": spec.id, "status": "ok",
            "attempts": attempt, "spec_hash": spec_hash(spec),
            "payload": dict(payload),
        })

    def record_failure(
        self, spec: JobSpec, attempt: int, failure: Mapping[str, Any]
    ) -> None:
        self._append({
            "event": "job_done", "job_id": spec.id, "status": "failed",
            "attempts": attempt, "spec_hash": spec_hash(spec),
            "failure": dict(failure),
        })

    def record_strategy_selected(
        self, job_id: str, strategy: str, reason: str = "",
        features: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Journal one ``--strategy auto`` resolution (typed v1 event;
        replay ignores it — it is audit evidence, not resume state)."""
        record: Dict[str, Any] = {
            "event": "strategy_selected", "job_id": job_id,
            "strategy": strategy, "reason": reason,
        }
        if features is not None:
            record["features"] = dict(features)
        self._append(record)

    def record_strategy_outcome(
        self, job_id: str, strategy: str, won: bool,
        speedup: Optional[float] = None,
        points_searched: Optional[int] = None,
        trials: int = 0, win_rate: float = 0.0,
    ) -> None:
        """Journal one entry of the per-strategy win-rate ledger:
        ``trials``/``win_rate`` snapshot the scoreboard *after* this
        outcome folded in."""
        self._append({
            "event": "strategy_outcome", "job_id": job_id,
            "strategy": strategy, "won": won, "speedup": speedup,
            "points_searched": points_searched, "trials": trials,
            "win_rate": win_rate,
        })

    def record_finish(self, succeeded: int, failed: int) -> None:
        self._append({
            "event": "run_finish", "succeeded": succeeded, "failed": failed,
        })

    def _count_drop(self) -> None:
        self.dropped_writes += 1
        current_registry().counter("ledger.dropped").inc()

    def _append(self, record: Dict[str, Any]) -> None:
        """One framed, fsync'd, schema-versioned journal line; failures
        become counted drops (a mangled line — the ``ledger_line`` /
        ``journal_torn`` / ``journal_bitflip`` fault sites — counts as a
        drop too: the bytes land, the record is lost, and now the
        checksum makes the loss detectable on replay).  Rotation
        auto-compacts once enough closed segments accumulate.
        """
        if self._journal.closed:
            self._count_drop()
            return
        record = {
            "ts": self._clock(),
            "schema_version": SCHEMA_VERSION,
            **record,
        }
        try:
            faults.check("ledger_write")
            rotated = self._journal.append(record)
        except (OSError, TypeError, ValueError):
            self._count_drop()
            return
        if rotated and self._journal.closed_segment_count() >= \
                self.compact_segments:
            try:
                self.compact()
            except (OSError, LedgerError):
                pass  # compaction is an optimization; the journal stands
