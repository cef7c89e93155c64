"""The exploration server: HTTP intake + durable store + scheduler.

:class:`ExplorationServer` wires the three server pieces together and
owns the process-level concerns: the listening socket, signal handlers,
admission control, and the drain-on-SIGTERM contract.

Endpoint semantics (the full state machine is DESIGN.md §6.5):

=============================  =============================================
``POST /jobs``                 201 new job, 200 dedup hit (same id back),
                               429 + ``Retry-After`` when the queue is at
                               its admission limit, 503 while draining or
                               when the journal append fails
``GET /jobs/<id>``             status document; 404 unknown id
``GET /jobs/<id>/report``      202 while queued/running; 200 with the
                               worker payload (ok) or typed failure doc
``GET /healthz``               always 200 while the process lives;
                               echoes the package version
``GET /readyz``                200 accepting work, 503 draining
``GET /metrics``               Prometheus text exposition of the server
                               registry (merged worker counters included)
=============================  =============================================

Graceful shutdown: the first SIGTERM/SIGINT stops admission (``POST``
returns 503, ``/readyz`` flips), lets in-flight jobs finish, journals a
stop marker, and exits 0.  Queued-but-unstarted jobs stay in the journal
and run on the next boot with the same ``--state-dir`` — the
restart-resume path the smoke test exercises end to end.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro import faults
from repro.errors import ServerError
from repro.obs import MetricsRegistry, render_prometheus, use_registry
from repro.server.admission import AdmissionController, TenantPolicy, retry_after_s
from repro.server.http import Request, Response, serve_client
from repro.server.leases import DEFAULT_LEASE_TTL_S
from repro.server.scheduler import Scheduler
from repro.server.store import DONE, JobStore, parse_submission
from repro.service.worker import execute_job
from repro.version import get_version

#: Default admission limit: submissions beyond this many queued jobs
#: bounce with 429 until the scheduler catches up.
DEFAULT_QUEUE_LIMIT = 64


class ExplorationServer:
    """One server instance; :meth:`serve` runs it until signalled.

    The HTTP handler, store, and scheduler are also usable directly (no
    socket) — the unit tests drive :meth:`handle` with synthetic
    :class:`Request` objects and run the scheduler on their own loop.
    """

    def __init__(
        self,
        state_dir: Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_concurrency: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_timeout_s: Optional[float] = None,
        call_deadline_s: Optional[float] = None,
        fault_spec: Optional[str] = None,
        worker: Callable[..., Dict[str, Any]] = execute_job,
        executor_factory: Optional[Callable[[int], Any]] = None,
        registry: Optional[MetricsRegistry] = None,
        fleet: bool = False,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        shard_points: Optional[int] = None,
        tenant_policies: Optional[Dict[str, TenantPolicy]] = None,
        journal_segment_bytes: Optional[int] = None,
        incremental: bool = True,
        memo_dir: Optional[Path] = None,
    ):
        self.state_dir = Path(state_dir)
        self.host = host
        self.port = port
        self.queue_limit = max(1, queue_limit)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.version = get_version()
        self.draining = False
        # The server consults the `server` fault site in its own
        # dispatch loop (workers get the spec via the job payload).
        faults.activate(fault_spec)
        self.admission = AdmissionController(
            policies=tenant_policies, registry=self.registry,
        )
        store_kwargs: Dict[str, Any] = {}
        if journal_segment_bytes is not None:
            store_kwargs["max_segment_bytes"] = journal_segment_bytes
        self.store = JobStore(
            self.state_dir, queue_policy=self.admission.pick_next,
            **store_kwargs,
        )
        #: incremental evaluation: on by default, memo journal under the
        #: state dir so every job (and every server life) shares one
        #: warm store.  ``memo_dir=None`` with ``incremental=False``
        #: disables cross-point reuse entirely.
        self.incremental = bool(incremental)
        self.memo_dir = (
            Path(memo_dir) if memo_dir is not None
            else (self.state_dir / "memo" if self.incremental else None)
        )
        self.coordinator = None
        if fleet:
            from repro.server.fleet import (
                DEFAULT_SHARD_POINTS, FleetCoordinator,
            )
            self.coordinator = FleetCoordinator(
                self.store,
                lease_ttl_s=lease_ttl_s,
                shard_points=shard_points or DEFAULT_SHARD_POINTS,
                incremental=self.incremental,
                memo_dir=self.memo_dir,
            )
        self.scheduler = Scheduler(
            self.store,
            self.registry,
            worker=worker,
            workers=workers,
            max_concurrency=max_concurrency,
            default_timeout_s=default_timeout_s,
            call_deadline_s=call_deadline_s,
            fault_spec=fault_spec,
            executor_factory=executor_factory,
            spans_path=self.state_dir / "spans.jsonl",
            incremental=self.incremental,
            memo_dir=self.memo_dir,
        )
        self._bound_port: Optional[int] = None

    # -- routing ---------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route one request (the :mod:`repro.server.http` handler)."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/jobs" and method == "POST":
            return self._submit(request)
        if path == "/fleet" or path.startswith("/fleet/"):
            return self._fleet_route(request, method, path)
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if method != "GET":
                return Response.error(405, f"{method} not allowed here")
            if rest.endswith("/report"):
                return self._report(rest[: -len("/report")])
            if "/" not in rest:
                return self._status(rest)
            return Response.error(404, f"no route for {path}")
        if method != "GET":
            return Response.error(405, f"{method} not allowed here")
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/metrics":
            return self._metrics()
        return Response.error(404, f"no route for {path}")

    def _submit(self, request: Request) -> Response:
        if self.draining:
            return Response.error(503, "server is draining; resubmit to "
                                       "the next instance")
        try:
            entry = request.json()
        except (ValueError, UnicodeDecodeError) as error:
            return Response.error(400, f"request body is not JSON: {error}")
        try:
            spec = parse_submission(entry, base_dir=self.state_dir)
            # Admission gates *new* work only: a duplicate of an
            # already-admitted job consumes no queue slot, and a
            # retrying client must always be able to find its job.
            if self.store.get(spec.id) is None:
                quota = self.admission.policy_for(spec.tenant).quota
                if self.store.queue_depth >= self.queue_limit:
                    self.registry.counter("server.jobs.rejected").inc()
                    self.admission.registry.counter(
                        "admission.rejected", tenant=spec.tenant
                    ).inc()
                    backoff = retry_after_s(self.store.queue_depth, quota)
                    return Response.error(
                        429,
                        f"queue is full ({self.queue_limit} jobs); "
                        f"retry later",
                        **{"Retry-After": str(backoff)},
                    )
                rejection = self.admission.check(
                    spec.tenant, self.store.active_counts()
                )
                if rejection is not None:
                    self.registry.counter("server.jobs.rejected").inc()
                    return Response.error(
                        429,
                        f"tenant {spec.tenant!r} is over its active-job "
                        f"quota ({quota}); retry later",
                        **{"Retry-After": str(rejection.retry_after_s)},
                    )
            job, created = self.store.submit(spec)
        except ServerError as error:
            status = 503 if "journal" in str(error) else 400
            return Response.error(status, str(error))
        except Exception as error:  # noqa: BLE001 - manifest validation
            return Response.error(400, str(error))
        if created:
            self.registry.counter("server.jobs.submitted").inc()
            self.registry.counter(
                "server.jobs.submitted", tenant=spec.tenant
            ).inc()
            self.scheduler.notify()
        else:
            self.registry.counter("server.jobs.deduped").inc()
        self.registry.gauge("server.queue_depth").set(self.store.queue_depth)
        return Response.json(201 if created else 200, {
            "job_id": job.id,
            "status": job.status,
            "created": created,
            "dedup_hits": job.dedup_hits,
        })

    def _status(self, job_id: str) -> Response:
        job = self.store.get(job_id)
        if job is None:
            return Response.error(404, f"unknown job id {job_id!r}")
        return Response.json(200, job.describe())

    def _report(self, job_id: str) -> Response:
        job = self.store.get(job_id)
        if job is None:
            return Response.error(404, f"unknown job id {job_id!r}")
        if job.status != DONE:
            return Response.json(202, {
                "job_id": job.id,
                "status": job.status,
                "detail": "not finished; poll again",
            })
        if job.result == "ok":
            return Response.json(200, {
                "job_id": job.id, "status": "ok", "result": job.payload,
            })
        return Response.json(200, {
            "job_id": job.id, "status": "failed", "failure": job.failure,
        })

    def _healthz(self) -> Response:
        doc = {
            "status": "ok",
            "version": self.version,
            "draining": self.draining,
            "jobs": self.store.counts(),
            "inflight": self.scheduler.inflight_count,
        }
        if self.coordinator is not None:
            doc["fleet"] = self.coordinator.status()
        return Response.json(200, doc)

    def _readyz(self) -> Response:
        """Ready, degraded, or draining — degraded is still 200 (the
        server answers and makes progress), but load balancers and
        humans can see the capacity loss and its reason."""
        if self.draining:
            return Response.json(503, {"ready": False, "reason": "draining"})
        if self.store.read_only:
            # The journal's disk failed (ENOSPC/EIO): reads and
            # in-flight work still serve, new submissions 503.
            return Response.json(200, {
                "ready": True, "status": "degraded",
                "reason": "journal_readonly",
                "detail": self.store.read_only_reason,
            })
        if self.scheduler.pool_failed:
            return Response.json(200, {
                "ready": True, "status": "degraded", "reason": "pool_failed",
            })
        if (
            self.coordinator is not None
            and not self.coordinator.leases.live_workers()
            and self.store.queue_depth > 0
        ):
            return Response.json(200, {
                "ready": True, "status": "degraded", "reason": "no_workers",
            })
        return Response.json(200, {"ready": True, "status": "ok"})

    # -- fleet endpoints -------------------------------------------------------

    def _fleet_route(self, request: Request, method: str,
                     path: str) -> Response:
        if self.coordinator is None:
            return Response.error(404, "fleet mode is off (start with "
                                       "--fleet)")
        if path == "/fleet" and method == "GET":
            return Response.json(200, self.coordinator.status())
        if method != "POST":
            return Response.error(405, f"{method} not allowed here")
        try:
            body = request.json()
        except (ValueError, UnicodeDecodeError) as error:
            return Response.error(400, f"request body is not JSON: {error}")
        if not isinstance(body, dict):
            return Response.error(400, "fleet requests take a JSON object")
        worker_id = body.get("worker")
        if not isinstance(worker_id, str) or not worker_id:
            return Response.error(400, "fleet requests need a 'worker' id")
        if path == "/fleet/workers":
            if self.draining:
                return Response.error(503, "server is draining")
            return Response.json(201, self.coordinator.register(worker_id))
        if path == "/fleet/heartbeat":
            if not self.coordinator.heartbeat(worker_id):
                return Response.error(
                    410, f"worker {worker_id!r} holds no live lease; "
                         f"re-register",
                )
            return Response.json(200, {"ok": True})
        if path == "/fleet/claim":
            if self.draining:
                return Response.json(200, {"shard": None})
            try:
                shard = self.coordinator.claim(worker_id)
            except Exception as error:  # noqa: BLE001 - lease gone
                return Response.error(410, str(error))
            return Response.json(200, {"shard": shard})
        if path == "/fleet/result":
            shard_id = body.get("shard_id")
            result = body.get("result")
            if not isinstance(shard_id, str) or not isinstance(result, dict):
                return Response.error(
                    400, "fleet results need 'shard_id' and 'result'",
                )
            accepted = self.coordinator.complete(worker_id, shard_id, result)
            return Response.json(200, {"ok": True, "accepted": accepted})
        return Response.error(404, f"no route for {path}")

    def _metrics(self) -> Response:
        self.registry.gauge("server.queue_depth").set(self.store.queue_depth)
        return Response.text(200, render_prometheus(self.registry.snapshot()))

    # -- lifecycle -------------------------------------------------------------

    def begin_shutdown(self) -> None:
        """Stop admission and ask the scheduler to drain (idempotent)."""
        self.draining = True
        self.scheduler.begin_drain()

    @property
    def bound_port(self) -> Optional[int]:
        return self._bound_port

    async def run_async(
        self, port_file: Optional[Path] = None, banner=None
    ) -> Dict[str, int]:
        """Listen, schedule, drain on signal; returns the drain summary."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            # RuntimeError/ValueError: not the main thread (embedded or
            # test use) — the embedder drives begin_shutdown itself.
            with contextlib.suppress(
                NotImplementedError, RuntimeError, ValueError
            ):
                loop.add_signal_handler(signum, self.begin_shutdown)
        server = await asyncio.start_server(
            lambda r, w: serve_client(r, w, self.handle),
            host=self.host, port=self.port,
        )
        self._bound_port = server.sockets[0].getsockname()[1]
        if port_file is not None:
            Path(port_file).write_text(f"{self._bound_port}\n")
        if banner is not None:
            banner(self)
        with use_registry(self.registry):
            try:
                if self.coordinator is not None:
                    # Fleet mode: the coordinator owns claim_next; the
                    # lease sweep runs until drain.  Unfinished shards
                    # are durable (shard_done journal records) and are
                    # adopted by the next coordinator life.
                    await self.coordinator.run(
                        stopping=lambda: self.draining
                    )
                else:
                    await self.scheduler.run()   # returns when drained
            finally:
                server.close()
                with contextlib.suppress(Exception):
                    await server.wait_closed()
        counts = self.store.counts()
        self.store.close(reason="drain")
        return counts

    def serve(self, port_file: Optional[Path] = None, stream=None) -> int:
        """Blocking entry point for the CLI; returns the exit code."""
        out = stream if stream is not None else sys.stdout

        def banner(server: "ExplorationServer") -> None:
            resumed = (
                self.store.resumed_queued + self.store.resumed_running
            )
            print(
                f"repro server {self.version} listening on "
                f"http://{self.host}:{server.bound_port} "
                f"(state: {self.state_dir}, resumed {resumed} queued, "
                f"adopted {self.store.resumed_done} done)",
                file=out, flush=True,
            )

        counts = asyncio.run(self.run_async(port_file=port_file,
                                            banner=banner))
        print(
            "drained: "
            + json.dumps(counts, sort_keys=True)
            + f" (journal: {self.store.path})",
            file=out, flush=True,
        )
        return 0
