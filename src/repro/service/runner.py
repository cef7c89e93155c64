"""The batch exploration engine: queue -> workers -> results.

:class:`BatchRunner` takes a validated manifest and drives every job to
a terminal state.  Scheduling is wave-based: each wave submits all
runnable jobs to a fresh ``concurrent.futures`` process pool, collects
completions, and carries failures (worker exceptions, crashed worker
processes, per-job timeouts) into the next wave until each job either
succeeds or exhausts its ``max_attempts``.  A fresh pool per wave keeps
the failure semantics simple and honest: a hung or crashed worker can
poison a pool, and recycling the pool is the only reliable reclaim.

Failures are *typed*, not stringly: every terminal failure is a
:class:`JobFailure` carrying the stable ``kind`` and ``transient``
classification from :mod:`repro.errors`.  Classification drives the
retry policy — transient failures (crashes, timeouts, deadline
overruns, foreign exceptions) retry up to ``max_attempts``; permanent
ones (parse errors, corrupt estimates, bad manifests) fail fast, since
re-running a deterministic function on the same input cannot help.

Crash safety: give the runner a :class:`~repro.service.ledger.RunLedger`
and every attempt start and terminal result is journaled (fsync'd)
before the engine moves on; give it a replayed
:class:`~repro.service.ledger.LedgerState` and it adopts completed jobs
verbatim (emitting ``job_resumed``) and re-enqueues in-flight attempts
— the mechanics behind ``repro batch --resume``.

Degradation is graceful and explicit: with ``workers <= 1``, or when a
process pool cannot be created at all (restricted environments), jobs
run serially in-process through the *same* worker function, a
``pool_unavailable`` event is emitted, and only timeout preemption is
lost.

Determinism guarantee: jobs are independent and each exploration is a
deterministic function of its job spec, and the shared memo journal is
value-transparent (content-hash keys cover every input to an estimate).
Parallel execution therefore changes wall time and memo hit/miss
counters, never selections — ``--jobs 8`` picks bit-identical designs
to ``--jobs 1``, and a killed-and-resumed run picks bit-identical
designs to an uninterrupted one.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.incremental.journal import release_memo
from repro.obs import MetricsRegistry, use_registry
from repro.service.jobs import BatchManifest, JobSpec
from repro.service.ledger import LedgerState, RunLedger
from repro.service.telemetry import Telemetry
from repro.service.worker import (
    absorb_obs, execute_job, strategy_won, with_runtime,
)
from repro.errors import failure_kind, is_transient

#: How often the coordinator wakes to check deadlines (seconds).
_POLL_S = 0.05


@dataclass(frozen=True)
class JobFailure:
    """One terminal (or retried) failure, typed.

    ``kind`` is the stable taxonomy string from :mod:`repro.errors`
    (``"timeout"``, ``"worker_crash"``, ``"corrupt_estimate"``, ...);
    ``transient`` records whether retrying could have helped — which is
    exactly what the engine's retry policy keyed on.
    """

    kind: str
    message: str
    transient: bool
    exception: Optional[str] = None   # original exception class, if any

    def __str__(self) -> str:
        return self.message

    @classmethod
    def from_exception(cls, error: BaseException) -> "JobFailure":
        return cls(
            kind=failure_kind(error),
            message=f"{type(error).__name__}: {error}",
            transient=is_transient(error),
            exception=type(error).__name__,
        )

    @classmethod
    def crash(cls) -> "JobFailure":
        return cls(
            kind="worker_crash", message="worker process crashed",
            transient=True,
        )

    @classmethod
    def timeout(cls, timeout_s: float) -> "JobFailure":
        return cls(
            kind="timeout", message=f"timed out after {timeout_s:.1f}s",
            transient=True,
        )

    def as_dict(self) -> Dict[str, Any]:
        record = {
            "kind": self.kind, "message": self.message,
            "transient": self.transient,
        }
        if self.exception is not None:
            record["exception"] = self.exception
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "JobFailure":
        return cls(
            kind=str(record.get("kind", "exception")),
            message=str(record.get("message", "unknown failure")),
            transient=bool(record.get("transient", False)),
            exception=record.get("exception"),
        )


@dataclass
class JobResult:
    """Terminal state of one job after the engine is done with it."""

    spec: JobSpec
    status: str                       # "ok" | "failed"
    attempts: int
    payload: Optional[Dict[str, Any]] = None
    failure: Optional[JobFailure] = None
    resumed: bool = False             # adopted from a ledger, not re-run

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def error(self) -> Optional[str]:
        """The failure message (compatibility accessor; the typed record
        is :attr:`failure`)."""
        return self.failure.message if self.failure is not None else None


@dataclass
class BatchResult:
    """Everything a batch run produced, jobs in manifest order."""

    results: List[JobResult]
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def succeeded(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failed

    def report(self) -> str:
        """One line per job plus failure details — the CLI's output."""
        lines = []
        for result in self.results:
            mark = " [resumed]" if result.resumed else ""
            if result.ok:
                payload = result.payload
                unroll = ",".join(str(f) for f in payload["selected_unroll"])
                lines.append(
                    f"{result.spec.id}: U={unroll} {payload['cycles']} cycles "
                    f"{payload['space']} slices speedup {payload['speedup']:.2f}x "
                    f"({payload['points_searched']} of "
                    f"{payload['design_space_size']} points){mark}"
                )
            else:
                lines.append(
                    f"{result.spec.id}: FAILED after {result.attempts} "
                    f"attempt(s): {result.error}{mark}"
                )
        return "\n".join(lines)


class BatchRunner:
    """Fans a manifest's jobs out over a process pool.

    Args:
        manifest: the validated jobs to run.
        workers: process-pool size; ``<= 1`` means serial in-process.
        telemetry: event sink; a silent in-memory one is created when
            omitted.
        worker: the job-execution callable, ``worker(payload)`` —
            injectable for tests; must be picklable (module-level) when
            ``workers > 1``.
        default_timeout_s: per-job timeout for jobs that do not set
            their own; only enforceable in pool mode.
        ledger: journal attempts and terminal results here (optional).
        resume_state: a replayed ledger's end state; completed jobs are
            adopted without re-execution, in-flight attempts re-enqueued.
        call_deadline_s: default per-estimator-call deadline for jobs
            that do not set their own.
        fault_spec: fault-injection spec path handed to workers (chaos
            testing; see :mod:`repro.faults`).
        incremental: hand workers the incremental-evaluation switch
            (memoized cross-point reuse; see :mod:`repro.incremental`).
            Defaults on; hits are bit-identical to recomputation, so
            the knob never changes selections — only wall time.
        memo_dir: shared memo-journal directory for the run — the one
            persistent estimate store; entries learned by one job are
            replayed into jobs scheduled later (and into future runs
            pointed at the same directory).
        spans_path: append every span the workers ship back to this
            JSONL file (``repro trace`` renders it); ``None`` keeps
            spans in worker payloads only until they are discarded.
        metrics: the run's :class:`~repro.obs.MetricsRegistry`; worker
            snapshots are merged into it and it is installed ambiently
            for the coordinator's own instrumented code (telemetry and
            ledger drop counters).  A fresh registry is created when
            omitted; either way the final snapshot lands in
            ``summary["metrics"]``.
    """

    def __init__(
        self,
        manifest: BatchManifest,
        workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        worker: Callable[..., Dict[str, Any]] = execute_job,
        default_timeout_s: Optional[float] = None,
        ledger: Optional[RunLedger] = None,
        resume_state: Optional[LedgerState] = None,
        call_deadline_s: Optional[float] = None,
        fault_spec: Optional[str] = None,
        spans_path: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
        incremental: bool = True,
        memo_dir: Optional[Path] = None,
    ):
        self.manifest = manifest
        self.workers = max(1, int(workers))
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.worker = worker
        self.default_timeout_s = default_timeout_s
        self.ledger = ledger
        self.resume_state = resume_state
        self.call_deadline_s = call_deadline_s
        self.fault_spec = fault_spec
        self.incremental = bool(incremental)
        self.memo_dir = str(memo_dir) if memo_dir else None
        self.spans_path = Path(spans_path) if spans_path else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        from repro.dse.selector import StrategyScoreboard
        #: the run's per-strategy win-rate ledger; every successful job
        #: folds in, and each fold is journaled as a typed
        #: ``strategy_outcome`` event.
        self.scoreboard = StrategyScoreboard()

    # -- public entry ---------------------------------------------------------

    def run(self) -> BatchResult:
        """Drive every job to success or exhaustion; never raises for
        job-level failures (they are reported in the result)."""
        with use_registry(self.metrics):
            return self._run()

    def _run(self) -> BatchResult:
        results: Dict[str, JobResult] = {}
        if self.spans_path is not None and self.resume_state is None:
            # Fresh run: truncate; resumed runs append to the old spans.
            self.spans_path.parent.mkdir(parents=True, exist_ok=True)
            self.spans_path.write_text("")
        queue = self._build_queue(results)
        self.telemetry.emit(
            "batch_start",
            jobs=len(self.manifest),
            workers=self.workers,
            manifest=self.manifest.source,
            resumed_jobs=len(results),
        )
        if self.workers <= 1:
            self._run_serial(queue, results)
        else:
            self._run_pool(queue, results)
        ordered = [results[spec.id] for spec in self.manifest.jobs]
        batch = BatchResult(results=ordered, summary=self.telemetry.summary())
        if self.ledger is not None:
            self.ledger.record_finish(
                succeeded=len(batch.succeeded), failed=len(batch.failed),
            )
        self.telemetry.emit(
            "batch_finish",
            succeeded=len(batch.succeeded),
            failed=len(batch.failed),
            resumed=sum(1 for r in ordered if r.resumed),
            cache_hits=batch.summary.get("cache_hits", 0),
            cache_misses=batch.summary.get("cache_misses", 0),
            points_synthesized=batch.summary.get("points_synthesized", 0),
            telemetry_dropped=self.telemetry.dropped,
            ledger_dropped=(
                self.ledger.dropped_writes if self.ledger is not None else 0
            ),
        )
        batch.summary["telemetry_dropped"] = self.telemetry.dropped
        batch.summary["ledger_dropped"] = (
            self.ledger.dropped_writes if self.ledger is not None else 0
        )
        batch.summary["metrics"] = self.metrics.snapshot()
        return batch

    # -- resume adoption ------------------------------------------------------

    def _build_queue(
        self, results: Dict[str, JobResult]
    ) -> List[Tuple[JobSpec, int]]:
        """The work list, minus jobs a resumed ledger already finished.

        Adopted results are verbatim (payload bytes from the journal);
        in-flight jobs re-enter at their recorded attempt number — the
        attempt whose terminal record the crash swallowed simply runs
        again, recomputing the identical payload.
        """
        queue: List[Tuple[JobSpec, int]] = []
        state = self.resume_state
        for spec in self.manifest.jobs:
            record = state.completed.get(spec.id) if state else None
            if record is None:
                attempt = state.in_flight.get(spec.id, 1) if state else 1
                queue.append((spec, max(1, attempt)))
                continue
            status = record.get("status", "failed")
            attempts = record.get("attempts", 1)
            if status == "ok":
                results[spec.id] = JobResult(
                    spec=spec, status="ok", attempts=attempts,
                    payload=record.get("payload"), resumed=True,
                )
            else:
                results[spec.id] = JobResult(
                    spec=spec, status="failed", attempts=attempts,
                    failure=JobFailure.from_dict(record.get("failure") or {}),
                    resumed=True,
                )
            self.telemetry.emit(
                "job_resumed", job_id=spec.id, status=status,
                attempts=attempts,
            )
        return queue

    # -- payloads -------------------------------------------------------------

    def _payload(self, spec: JobSpec) -> Dict[str, Any]:
        """The spec payload plus the engine's runtime knobs."""
        return with_runtime(
            spec.to_payload(), call_deadline_s=self.call_deadline_s,
            fault_spec=self.fault_spec, incremental=self.incremental,
            memo_dir=self.memo_dir,
        )

    # -- serial path ----------------------------------------------------------

    def _run_serial(
        self, queue: List[Tuple[JobSpec, int]], results: Dict[str, JobResult]
    ) -> None:
        """In-process execution: same worker function, no preemption.

        The jobs share this process's resident memo store, released at
        the end so a later run in the process replays from disk.
        """
        pending = list(queue)
        try:
            while pending:
                spec, attempt = pending.pop(0)
                self._note_attempt(spec, attempt)
                try:
                    payload = self.worker(self._payload(spec))
                except Exception as error:  # noqa: BLE001 - isolate failures
                    self._note_failure(
                        spec, attempt, JobFailure.from_exception(error),
                        pending, results,
                    )
                    continue
                self._note_success(spec, attempt, payload, results)
        finally:
            release_memo(self.memo_dir)

    # -- pool path ------------------------------------------------------------

    def _make_executor(self) -> ProcessPoolExecutor:
        """Build the wave's pool; overridable/injectable for tests."""
        return ProcessPoolExecutor(max_workers=self.workers)

    def _run_pool(
        self, queue: List[Tuple[JobSpec, int]], results: Dict[str, JobResult]
    ) -> None:
        pending = list(queue)
        while pending:
            try:
                executor = self._make_executor()
            except Exception as error:  # noqa: BLE001 - degrade, don't die
                self.telemetry.emit(
                    "pool_unavailable", error=f"{type(error).__name__}: {error}"
                )
                self._run_serial(pending, results)
                return
            pending = self._run_wave(executor, pending, results)

    def _run_wave(
        self,
        executor: ProcessPoolExecutor,
        wave: List[Tuple[JobSpec, int]],
        results: Dict[str, JobResult],
    ) -> List[Tuple[JobSpec, int]]:
        """Submit one wave; returns the retry list for the next wave.

        Any timeout or worker crash marks the pool dirty: it is shut
        down without waiting (the stuck process cannot be reclaimed
        through the executor API) and the next wave gets a fresh one.
        """
        retry: List[Tuple[JobSpec, int]] = []
        info: Dict[Any, Tuple[JobSpec, int, float]] = {}
        for spec, attempt in wave:
            self._note_attempt(spec, attempt)
            future = executor.submit(self.worker, self._payload(spec))
            info[future] = (spec, attempt, time.monotonic())

        dirty = False
        outstanding = set(info)
        while outstanding:
            done, outstanding = wait(
                outstanding, timeout=_POLL_S, return_when=FIRST_COMPLETED
            )
            for future in done:
                spec, attempt, _t0 = info.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    # The culprit cannot be identified from outside, so
                    # every job caught in the broken pool retries.
                    dirty = True
                    self._note_failure(
                        spec, attempt, JobFailure.crash(), retry, results,
                    )
                except Exception as error:  # noqa: BLE001 - per-job isolation
                    self._note_failure(
                        spec, attempt, JobFailure.from_exception(error),
                        retry, results,
                    )
                else:
                    self._note_success(spec, attempt, payload, results)
            # deadline sweep over the still-running futures
            now = time.monotonic()
            for future in list(outstanding):
                spec, attempt, t0 = info[future]
                timeout_s = (
                    spec.timeout_s
                    if spec.timeout_s is not None else self.default_timeout_s
                )
                if timeout_s is None or now - t0 <= timeout_s:
                    continue
                info.pop(future)
                outstanding.discard(future)
                if not future.cancel():
                    dirty = True  # already running: pool must be recycled
                self._note_failure(
                    spec, attempt, JobFailure.timeout(timeout_s),
                    retry, results,
                )
        if dirty:
            executor.shutdown(wait=False, cancel_futures=True)
        else:
            executor.shutdown(wait=True)
        return retry

    # -- shared bookkeeping ----------------------------------------------------

    def _note_attempt(self, spec: JobSpec, attempt: int) -> None:
        """Journal first, then announce: the ledger line must hit disk
        before the attempt exists anywhere else, so a crash can never
        leave an attempt the journal knows nothing about."""
        if self.ledger is not None:
            self.ledger.record_attempt(spec, attempt)
        self.telemetry.emit("job_start", job_id=spec.id, attempt=attempt)

    def _note_success(
        self,
        spec: JobSpec,
        attempt: int,
        payload: Dict[str, Any],
        results: Dict[str, JobResult],
    ) -> None:
        absorb_obs(payload, self.metrics, self.spans_path)
        if self.ledger is not None:
            self.ledger.record_success(spec, attempt, payload)
        finish_fields = {
            key: payload.get(key)
            for key in (
                "program", "board", "cycles", "space", "speedup",
                "points_searched", "design_space_size",
                "cache_hits", "cache_misses", "estimator_retries",
                "deadline_hits",
                "wall_seconds", "phase_seconds",
            )
            if payload.get(key) is not None
        }
        # fail-soft and strategy fields ride along only when they carry
        # signal, so a clean default-strategy run's trace stays
        # identical to earlier releases
        for key in ("infeasible_count", "baseline_degraded", "strategy"):
            if payload.get(key):
                finish_fields[key] = payload[key]
        self.telemetry.emit(
            "job_finish", job_id=spec.id, attempt=attempt,
            selected_unroll=payload.get("selected_unroll"), **finish_fields,
        )
        self._note_strategy(spec, payload)
        results[spec.id] = JobResult(
            spec=spec, status="ok", attempts=attempt, payload=payload,
        )

    def _note_strategy(
        self, spec: JobSpec, payload: Mapping[str, Any]
    ) -> None:
        """Fold one finished job into the strategy win-rate ledger.

        An auto-selection decision (if the worker made one) and the
        scored outcome are journaled as typed v1 events; the outcome's
        ``trials``/``win_rate`` snapshot the scoreboard after the fold.
        A win follows :func:`~repro.service.worker.strategy_won`.
        """
        from repro.dse import DEFAULT_STRATEGY
        selection = payload.get("strategy_selection")
        if isinstance(selection, Mapping):
            self.telemetry.emit(
                "strategy_selected", job_id=spec.id,
                strategy=selection.get("strategy"),
                reason=selection.get("reason", ""),
                features=selection.get("features"),
            )
            if self.ledger is not None:
                self.ledger.record_strategy_selected(
                    spec.id, selection.get("strategy"),
                    reason=selection.get("reason", ""),
                    features=selection.get("features"),
                )
        strategy = payload.get("strategy") or DEFAULT_STRATEGY
        speedup = payload.get("speedup")
        won = strategy_won(payload)
        self.scoreboard.record(strategy, won)
        trials = self.scoreboard.trials(strategy)
        win_rate = self.scoreboard.win_rate(strategy)
        self.telemetry.emit(
            "strategy_outcome", job_id=spec.id, strategy=strategy,
            won=won, speedup=speedup,
            points_searched=payload.get("points_searched"),
            trials=trials, win_rate=win_rate,
        )
        if self.ledger is not None:
            self.ledger.record_strategy_outcome(
                spec.id, strategy, won, speedup=speedup,
                points_searched=payload.get("points_searched"),
                trials=trials, win_rate=win_rate,
            )

    def _note_failure(
        self,
        spec: JobSpec,
        attempt: int,
        failure: JobFailure,
        retry: List[Tuple[JobSpec, int]],
        results: Dict[str, JobResult],
    ) -> None:
        """Retry transient failures while attempts remain; permanent
        failures fail fast — the job is a deterministic function of its
        spec, so re-running a parse error or corrupt estimate can only
        waste the batch's time."""
        if failure.transient and attempt < spec.max_attempts:
            self.telemetry.emit(
                "job_retry", job_id=spec.id, attempt=attempt,
                reason=failure.message, kind=failure.kind,
                transient=failure.transient,
            )
            retry.append((spec, attempt + 1))
            return
        if self.ledger is not None:
            self.ledger.record_failure(spec, attempt, failure.as_dict())
        self.telemetry.emit(
            "job_failed", job_id=spec.id, attempt=attempt,
            reason=failure.message, kind=failure.kind,
            transient=failure.transient,
        )
        results[spec.id] = JobResult(
            spec=spec, status="failed", attempts=attempt, failure=failure,
        )


def run_batch(
    manifest: Optional[BatchManifest] = None,
    workers: int = 1,
    trace_path: Optional[Path] = None,
    default_timeout_s: Optional[float] = None,
    run_dir: Optional[Path] = None,
    resume: bool = False,
    call_deadline_s: Optional[float] = None,
    fault_spec: Optional[str] = None,
    spans_path: Optional[Path] = None,
    incremental: bool = True,
    memo_dir: Optional[Path] = None,
) -> BatchResult:
    """One-call convenience wrapper around the full crash-safe stack.

    Without ``run_dir`` this is the classic ephemeral batch: telemetry
    to ``trace_path`` (optional), no journal.  With ``run_dir`` the run
    is *journaled*: a :class:`RunLedger` is created there, trace, spans,
    and the memo journal default to paths inside it, and the coordinator's
    merged metrics registry is persisted as ``<run-dir>/metrics.json``
    when the batch finishes — the artifacts ``repro trace`` renders.
    With ``resume=True`` the run directory is replayed instead —
    ``manifest`` must be ``None`` (the snapshot inside the run directory
    is the manifest; passing another one would invite mixing batches) —
    completed jobs are adopted, and telemetry appends to the existing
    trace.
    """
    ledger: Optional[RunLedger] = None
    resume_state: Optional[LedgerState] = None
    trace_mode = "w"
    if resume:
        if run_dir is None:
            raise ValueError("resume=True requires run_dir")
        if manifest is not None:
            raise ValueError(
                "resume=True loads the manifest snapshot from the run "
                "directory; do not pass one"
            )
        ledger, manifest, resume_state = RunLedger.resume(run_dir)
        trace_mode = "a"
    elif run_dir is not None:
        if manifest is None:
            raise ValueError("a fresh run needs a manifest")
        ledger = RunLedger.create(run_dir, manifest)
    if run_dir is not None:
        run_dir = Path(run_dir)
        if trace_path is None:
            trace_path = run_dir / "trace.jsonl"
        if spans_path is None:
            spans_path = run_dir / "spans.jsonl"
        if memo_dir is None and incremental:
            # Journaled runs get a durable memo by default: a resumed or
            # repeated run replays the journal and starts warm.
            memo_dir = run_dir / "memo"
    try:
        with Telemetry(trace_path, mode=trace_mode) as telemetry:
            runner = BatchRunner(
                manifest,
                workers=workers,
                telemetry=telemetry,
                default_timeout_s=default_timeout_s,
                ledger=ledger,
                resume_state=resume_state,
                call_deadline_s=call_deadline_s,
                fault_spec=fault_spec,
                spans_path=spans_path,
                incremental=incremental,
                memo_dir=memo_dir,
            )
            batch = runner.run()
            if run_dir is not None:
                try:
                    (run_dir / "metrics.json").write_text(
                        json.dumps(batch.summary.get("metrics", {}), indent=1)
                        + "\n"
                    )
                except (OSError, TypeError, ValueError):
                    pass  # observability must never fail the batch
            return batch
    finally:
        if ledger is not None:
            ledger.close()
