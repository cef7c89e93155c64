"""The asyncio scheduler that drains the server's job queue.

One coroutine (:meth:`Scheduler.run`) owns the dispatch loop: whenever a
worker slot is free and admission has not been stopped, it claims the
oldest queued job from the :class:`~repro.server.store.JobStore` and
spawns a task that drives that job to a terminal state.  Execution
itself reuses the batch engine's worker function
(:func:`repro.service.worker.execute_job`) on a ``concurrent.futures``
process pool, so a server job and a batch job run byte-identical code —
same estimation guard, same shared memo journal, same typed failure
taxonomy (:class:`~repro.service.runner.JobFailure` is imported, not
reimplemented).

Robustness, layer by layer:

* **Per-estimator-call deadlines** ride the job payload's ``runtime``
  map into the worker's :class:`~repro.service.guard.EstimationGuard`,
  exactly as in batch mode.
* **Per-job timeouts** are enforced from the event loop with
  ``asyncio.wait_for`` over the pool future; a timed-out future that
  cannot be cancelled means a stuck worker process, so the pool is
  marked dirty and recycled — the batch runner's fresh-pool-per-wave
  reclaim, adapted to a long-lived service.
* **Retries**: transient failures (crash, timeout, deadline, foreign
  exceptions) retry up to the job's ``max_attempts`` without giving up
  the slot; permanent failures terminate immediately.
* **Degraded mode**: when a process pool cannot be created (or
  ``workers=0`` asks for it), jobs run in-process on a dedicated
  single worker thread — same worker function, no timeout preemption,
  and serialized on purpose: the worker installs the process-wide
  ambient tracer/registry while it runs, so in-process jobs must not
  overlap.  The ``server.pool_unavailable`` counter records the
  degradation.  The thread's jobs share one resident memo store, which
  drain releases.

Fault site ``server`` is consulted once per dispatch (keyed by the job
id), which is where the chaos suite injects ``kill`` to murder the
scheduler mid-drain and prove the journal brings everything back.

Observability: worker metrics snapshots merge into the server's ambient
registry the moment a job finishes (the live numbers ``GET /metrics``
serves), and worker spans append to ``<state-dir>/spans.jsonl``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from repro import faults
from repro.incremental.journal import release_memo
from repro.obs import MetricsRegistry
from repro.server.store import JobStore, ServerJob
from repro.service.runner import JobFailure
from repro.service.worker import (
    absorb_obs, execute_job, strategy_won, with_runtime,
)

#: How long the dispatch loop dozes when there is nothing to do (s).
_IDLE_POLL_S = 0.05

#: Latency buckets for whole jobs (seconds) — wider than estimator-call
#: buckets because a job spans a whole exploration.
JOB_SECONDS_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0)


class Scheduler:
    """Drains the store's queue through a bounded worker pool.

    Args:
        store: the durable queue + archive.
        registry: the server's metrics registry (merged worker numbers
            land here; ``/metrics`` renders it).
        worker: the job-execution callable; module-level (picklable)
            when a process pool is used.  Injectable for tests.
        workers: process-pool size; ``0`` forces degraded in-process
            (thread) execution — no preemption, but no pickling either,
            which is what the unit tests want for stub workers.
        max_concurrency: jobs in flight at once (defaults to
            ``max(1, workers)``).
        default_timeout_s / call_deadline_s / fault_spec: per-job
            runtime knobs, as on the batch runner.
        executor_factory: builds the pool from a worker count —
            injectable so tests can substitute a thread pool.
    """

    def __init__(
        self,
        store: JobStore,
        registry: MetricsRegistry,
        worker: Callable[..., Dict[str, Any]] = execute_job,
        workers: int = 2,
        max_concurrency: Optional[int] = None,
        default_timeout_s: Optional[float] = None,
        call_deadline_s: Optional[float] = None,
        fault_spec: Optional[str] = None,
        executor_factory: Optional[Callable[[int], Any]] = None,
        spans_path: Optional[Path] = None,
        incremental: bool = True,
        memo_dir: Optional[Path] = None,
    ):
        self.store = store
        self.registry = registry
        self.worker = worker
        self.workers = max(0, int(workers))
        self.max_concurrency = max(
            1, max_concurrency if max_concurrency is not None else self.workers
        )
        self.default_timeout_s = default_timeout_s
        self.call_deadline_s = call_deadline_s
        self.fault_spec = fault_spec
        self.incremental = bool(incremental)
        self.memo_dir = str(memo_dir) if memo_dir else None
        self.executor_factory = executor_factory or (
            lambda count: ProcessPoolExecutor(max_workers=count)
        )
        self.spans_path = Path(spans_path) if spans_path else None
        self.draining = False
        #: flipped when a pool could not be built and the scheduler fell
        #: back to in-process serial execution — ``/readyz`` reports it
        #: as a degraded (but still ready) status.
        self.pool_failed = False
        self._executor: Optional[Any] = None
        self._serial: Optional[Any] = None
        self._executor_dead = False
        self._inflight: "set[asyncio.Task]" = set()
        self._wake: Optional[asyncio.Event] = None

    # -- loop interface --------------------------------------------------------

    def notify(self) -> None:
        """Wake the dispatch loop (new submission, drain request)."""
        if self._wake is not None:
            self._wake.set()

    def begin_drain(self) -> None:
        """Stop claiming queued jobs; :meth:`run` returns once the
        in-flight ones finish.  Queued jobs stay journaled."""
        self.draining = True
        self.notify()

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    async def run(self) -> None:
        """The dispatch loop; returns after a drain completes."""
        self._wake = asyncio.Event()
        try:
            while True:
                if self.draining:
                    if self._inflight:
                        await asyncio.wait(set(self._inflight))
                        continue
                    return
                job = None
                if (len(self._inflight) < self.max_concurrency
                        and not self.store.read_only):
                    # A read-only store (failed disk) stops *new* claims:
                    # each claim journals job_started, and starting work
                    # whose result cannot be journaled widens the replay
                    # window for nothing.  In-flight jobs finish.
                    job = self.store.claim_next()
                if job is None:
                    await self._doze()
                    continue
                faults.check("server", key=job.id)
                task = asyncio.create_task(self._drive(job))
                self._inflight.add(task)
                task.add_done_callback(self._task_done)
        finally:
            self._shutdown_executor(wait=True)
            self._wake = None

    async def _doze(self) -> None:
        self._wake.clear()
        # Re-check state at least every poll tick even without a notify
        # (belt-and-braces against a lost wakeup).
        try:
            await asyncio.wait_for(self._wake.wait(), _IDLE_POLL_S)
        except asyncio.TimeoutError:
            pass

    def _task_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        if not task.cancelled() and task.exception() is not None:
            # _drive never raises by design; a bug here must be visible,
            # not silently swallowed by the task machinery.
            self.registry.counter("server.scheduler.errors").inc()
        self.notify()

    # -- one job ---------------------------------------------------------------

    async def _drive(self, job: ServerJob) -> None:
        """Run one claimed job to a terminal state (never raises)."""
        started = time.monotonic()
        while True:
            try:
                payload = await self._execute(job)
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 - typed below
                failure = self._classify(error)
                if failure.transient and job.attempts < job.spec.max_attempts:
                    self.registry.counter("server.jobs.retried").inc()
                    self.store.note_retry(job)
                    continue
                self.store.finish_failed(job, failure.as_dict())
                self.registry.counter(
                    "server.jobs.failed", kind=failure.kind
                ).inc()
                break
            absorb_obs(payload, self.registry, self.spans_path)
            self.store.finish_ok(job, payload)
            self._note_strategy(job, payload)
            self.registry.counter("server.jobs.completed").inc()
            break
        self.registry.histogram(
            "server.job_seconds", boundaries=JOB_SECONDS_BUCKETS
        ).observe(time.monotonic() - started)
        self.registry.gauge("server.queue_depth").set(self.store.queue_depth)

    def _note_strategy(self, job: ServerJob, payload: Any) -> None:
        """Fold one finished job into the store's durable scoreboard —
        the batch runner's win rule
        (:func:`~repro.service.worker.strategy_won`), journaled so the
        tally survives restarts."""
        if not isinstance(payload, Mapping):
            return
        from repro.dse import DEFAULT_STRATEGY
        selection = payload.get("strategy_selection")
        if isinstance(selection, Mapping):
            self.store.record_strategy_selected(
                job.id, selection.get("strategy"),
                reason=selection.get("reason", ""),
                features=selection.get("features"),
            )
        strategy = payload.get("strategy") or DEFAULT_STRATEGY
        won = strategy_won(payload)
        self.store.record_strategy_outcome(
            job.id, strategy, won, speedup=payload.get("speedup"),
            points_searched=payload.get("points_searched"),
        )
        self.registry.counter(
            "dse.strategy.outcome", strategy=strategy, won=str(won).lower()
        ).inc()

    def _classify(self, error: BaseException) -> JobFailure:
        if isinstance(error, _JobTimeout):
            return JobFailure.timeout(error.timeout_s)
        if isinstance(error, BrokenProcessPool):
            return JobFailure.crash()
        return JobFailure.from_exception(error)

    async def _execute(self, job: ServerJob) -> Dict[str, Any]:
        """One attempt on the pool (or degraded thread), under timeout."""
        executor = self._ensure_executor()
        if executor is None:
            executor = self._ensure_serial()
        payload = self._payload(job.spec)
        pool_future = executor.submit(self.worker, payload)
        future = asyncio.wrap_future(pool_future)
        timeout_s = (
            job.spec.timeout_s
            if job.spec.timeout_s is not None else self.default_timeout_s
        )
        try:
            if timeout_s is None:
                return await future
            return await asyncio.wait_for(asyncio.shield(future), timeout_s)
        except asyncio.TimeoutError:
            if not pool_future.cancel():
                # Already running: the worker is stuck and cannot be
                # reclaimed through the executor API.  Recycle the pool.
                self._executor_dead = True
            _swallow(future)
            raise _JobTimeout(timeout_s or 0.0) from None
        except BrokenProcessPool:
            self._executor_dead = True
            raise

    def _payload(self, spec) -> Dict[str, Any]:
        """Spec payload + the server's runtime knobs."""
        # Ship the durable win-rate tallies so a worker resolving
        # ``--strategy auto`` consults everything every previous server
        # life learned, not just this boot's outcomes.
        return with_runtime(
            spec.to_payload(),
            call_deadline_s=spec.call_deadline_s or self.call_deadline_s,
            fault_spec=self.fault_spec, incremental=self.incremental,
            memo_dir=self.memo_dir,
            scoreboard=self.store.scoreboard_snapshot(),
        )

    # -- pool management -------------------------------------------------------

    def _ensure_executor(self) -> Optional[Any]:
        """The live pool, recycled after crashes; ``None`` = degraded."""
        if self.workers == 0:
            return None
        if self._executor_dead and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._executor_dead = False
        if self._executor is None:
            try:
                self._executor = self.executor_factory(self.workers)
            except Exception:  # noqa: BLE001 - degrade, don't die
                self.registry.counter("server.pool_unavailable").inc()
                self.workers = 0
                self.pool_failed = True
                return None
        return self._executor

    def _ensure_serial(self) -> Any:
        """The degraded-mode executor: one thread, on purpose — the
        worker installs the process-wide ambient tracer and registry
        while it runs, so in-process jobs must never overlap (two
        interleaved restores would leak one job's tracer globally)."""
        if self._serial is None:
            self._serial = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-degraded"
            )
        return self._serial

    def _shutdown_executor(self, wait: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait and not self._executor_dead,
                                    cancel_futures=True)
            self._executor = None
        if self._serial is not None:
            # Never wait here: a timed-out in-process worker may be
            # stuck on this thread, and drain must not hang behind it.
            self._serial.shutdown(wait=False, cancel_futures=True)
            self._serial = None
            # The in-process jobs are over: drop their resident memo
            # store, so a later server in this process reads the disk.
            release_memo(self.memo_dir)


class _JobTimeout(Exception):
    """Internal marker: one attempt overran its wall-clock budget."""

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        super().__init__(f"timed out after {timeout_s:.1f}s")


def _swallow(future: asyncio.Future) -> None:
    """Detach from an abandoned future without leaking 'exception was
    never retrieved' warnings when it eventually fails."""
    def _done(f: asyncio.Future) -> None:
        if not f.cancelled():
            f.exception()
    future.add_done_callback(_done)
