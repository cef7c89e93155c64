"""Fleet-scale sharded exploration: coordinator, shards, and workers.

The single-process server (PR 5) walks one design space per job on one
box.  This module goes horizontal without giving up the crash-safety
story: a **coordinator** partitions a job's unroll-factor lattice into
content-addressed **shards**, hands them to registered **workers** over
HTTP, and survives worker death by watching leases
(:mod:`repro.server.leases`) and rehoming orphaned shards.

Determinism contract — the property the chaos suite pins:

* Shards are contiguous chunks of ``DesignSpace.enumerable_points()``
  under the same automatic pinning the single-process explorer applies,
  so the union of shard points *is* the exhaustive lattice.
* Each shard returns every evaluated point (unroll, cycles, space,
  balance, fits); :func:`merge_shard_results` folds them with
  order-independent reductions (min by ``(cycles, space, unroll)``,
  non-dominated union for the Pareto front).  N workers therefore
  produce a result bit-identical to one worker — worker count, claim
  order, and rehoming history cannot leak into the answer.
* Shard ids are hashes of ``(submission hash, shard index, points)``:
  a coordinator restart re-plans the identical shards and can adopt
  ``shard_done`` journal records from the previous life verbatim.

Exactly-once accounting: ``job_started`` is journaled once, by
``JobStore.claim_next``, when the coordinator claims the job and plans
its shards.  Rehoming re-dispatches *shards*, never the job, so a
worker dying mid-shard adds ``lease_expired`` + ``shard_rehomed``
events but no second ``job_started``.  Duplicate shard results (a
presumed-dead worker delivering late) are deduplicated by shard id
before anything is journaled.

Fault sites (see :mod:`repro.faults`): ``heartbeat`` fires inside the
worker's renewal loop (a raise skips beats until the lease lapses),
``worker_kill`` fires at shard-execution entry keyed by shard id (a
``kill`` rule dies mid-shard), ``rehome`` fires in the coordinator
just before a shard is rehomed.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import faults
from repro.errors import ServiceError, failure_kind
from repro.obs import current_registry
from repro.server.leases import DEFAULT_LEASE_TTL_S, LeaseTable
from repro.server.store import JobStore, ServerJob
from repro.service.jobs import JobSpec
from repro.service.worker import (
    build_options, job_memo, load_program, resolve_board, with_runtime,
)

#: Default points per shard — small enough that a kernel's lattice
#: (18–42 points on the five paper kernels) spreads across workers,
#: large enough that HTTP round-trips do not dominate.
DEFAULT_SHARD_POINTS = 16


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardSpec:
    """One content-addressed chunk of a job's lattice.

    ``mode`` is ``"points"`` for the classic contiguous lattice chunk;
    a ``"walk"`` shard carries no points — it asks one worker to run
    the job's full sequential search (how non-partitionable strategies
    ride the fleet).
    """

    shard_id: str
    job_id: str
    index: int
    total: int
    points: Tuple[Tuple[int, ...], ...]
    mode: str = "points"

    def to_payload(self, spec: JobSpec) -> Dict[str, Any]:
        """The wire shape a worker receives."""
        payload = {
            "shard_id": self.shard_id,
            "job_id": self.job_id,
            "index": self.index,
            "total": self.total,
            "points": [list(point) for point in self.points],
            "spec": spec.to_payload(),
        }
        if self.mode != "points":
            payload["mode"] = self.mode
        return payload


@dataclass
class ShardPlan:
    """A job's full partition."""

    job_id: str
    shards: List[ShardSpec]
    total_points: int
    pinned_depths: Tuple[int, ...]
    design_space_size: int
    mode: str = "points"


def _shard_id(submission_hash: str, index: int,
              points: Tuple[Tuple[int, ...], ...],
              mode: str = "points") -> str:
    doc: Dict[str, Any] = {
        "hash": submission_hash, "index": index,
        "points": [list(p) for p in points],
    }
    # Conditional inclusion: point-mode ids are byte-identical to the
    # pre-walk-shard format, so old journals adopt cleanly.
    if mode != "points":
        doc["mode"] = mode
    encoded = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f"shard-{hashlib.sha256(encoded.encode()).hexdigest()[:12]}"


def plan_shards(spec: JobSpec, submission_hash: str,
                shard_points: int = DEFAULT_SHARD_POINTS) -> ShardPlan:
    """Partition a job's enumerable lattice into contiguous shards.

    Pins loops exactly as the explorer does
    (:func:`repro.dse.explorer.auto_pinned_space`), so the shard union
    equals the point set a single-process exhaustive walk would visit.

    The job's search strategy decides the plan's shape: strategies that
    declare themselves partitionable (the default balance walk, the
    exhaustive sweep) fan out as point shards whose union is the
    lattice; a non-partitionable strategy (its walk is sequential
    state) becomes one ``"walk"``-mode shard that a single worker runs
    end to end.  ``--strategy auto`` is resolved here, on the pinned
    space, with the same selector the explorer uses.
    """
    if shard_points < 1:
        raise ServiceError(f"shard_points must be >= 1, got {shard_points!r}")
    from repro.dse.explorer import auto_pinned_space
    program, kernel = load_program(spec.program)
    board = resolve_board(spec.board)
    _search, options = build_options(spec, kernel)
    space = auto_pinned_space(program, board, options)
    points = [point.factors for point in space.enumerable_points()]

    from repro.dse.selector import select_strategy
    from repro.dse.strategy import DEFAULT_STRATEGY, get_strategy
    requested = dict(spec.search).get("strategy", DEFAULT_STRATEGY)
    if requested == "auto":
        requested = select_strategy(space).strategy
    if not get_strategy(requested).partitionable:
        shard = ShardSpec(
            shard_id=_shard_id(submission_hash, 0, (), mode="walk"),
            job_id=spec.id, index=0, total=1, points=(), mode="walk",
        )
        return ShardPlan(
            job_id=spec.id, shards=[shard], total_points=len(points),
            pinned_depths=space.pinned_depths,
            design_space_size=space.size(),
            mode="walk",
        )

    shards: List[ShardSpec] = []
    chunks = [
        tuple(points[start:start + shard_points])
        for start in range(0, len(points), shard_points)
    ]
    for index, chunk in enumerate(chunks):
        shards.append(ShardSpec(
            shard_id=_shard_id(submission_hash, index, chunk),
            job_id=spec.id,
            index=index,
            total=len(chunks),
            points=chunk,
        ))
    return ShardPlan(
        job_id=spec.id,
        shards=shards,
        total_points=len(points),
        pinned_depths=space.pinned_depths,
        design_space_size=space.size(),
    )


# ---------------------------------------------------------------------------
# Shard execution (runs on workers)
# ---------------------------------------------------------------------------

def execute_shard(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Evaluate one shard's points; returns a primitives-only dict.

    The ``worker_kill`` fault site fires here, keyed by shard id, which
    is how the chaos suite murders a worker deterministically mid-shard
    (``max_hits: 1`` → exactly one death, the retry after rehoming runs
    clean).
    """
    shard_id = payload.get("shard_id", "")
    runtime = payload.get("runtime") or {}
    faults.activate(runtime.get("fault_spec"))
    faults.check("worker_kill", key=shard_id)

    if payload.get("mode") == "walk":
        return _execute_walk_shard(payload)

    spec = JobSpec.from_payload(payload["spec"])
    program, kernel = load_program(spec.program)
    board = resolve_board(spec.board)
    _search, options = build_options(spec, kernel)
    from repro.dse.space import DesignSpace
    from repro.incremental import use_memo
    from repro.transform.unroll import UnrollVector
    space = DesignSpace(program, board, options, backend=spec.backend)
    started = time.perf_counter()
    evaluated: List[Dict[str, Any]] = []
    memo_stats = None
    # Point shards share schedule/legality/verify work across their
    # points; with a memo_dir, across shards and runs too.
    with job_memo(runtime) as memo, use_memo(memo):
        for raw_point in payload.get("points", ()):
            vector = UnrollVector(tuple(int(f) for f in raw_point))
            evaluation = space.try_evaluate(vector)
            if evaluation is None:
                continue
            evaluated.append({
                "unroll": list(evaluation.unroll.factors),
                "cycles": evaluation.cycles,
                "space": evaluation.space,
                "balance": evaluation.balance,
                "fits": evaluation.estimate.fits(board),
            })
        if memo is not None:
            # Flush before reading the tallies: a failed or damaged
            # journal write counts invalidations, and those belong in
            # this shard's stats.
            memo.flush()
            memo_stats = {
                "hits": memo.hits, "misses": memo.misses,
                "invalidations": memo.invalidations,
            }
    out = {
        "shard_id": shard_id,
        "job_id": payload.get("job_id", spec.id),
        "points": evaluated,
        "infeasible_count": space.points_failed,
        "infeasible_points": [
            diagnostic.as_dict() for diagnostic in space.infeasible_points()
        ],
        "wall_seconds": time.perf_counter() - started,
    }
    if memo_stats is not None:
        out["memo"] = memo_stats
    return out


def _execute_walk_shard(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Run a job's full sequential search as one shard.

    Non-partitionable strategies keep their walk state on one worker;
    the result dict carries the complete exploration outcome so the
    coordinator adopts it directly instead of merging point sets.  The
    shape mirrors :func:`repro.service.worker.execute_job`'s payload
    (minus the per-job observability plumbing).
    """
    shard_id = payload.get("shard_id", "")
    runtime = payload.get("runtime") or {}
    spec = JobSpec.from_payload(payload["spec"])
    program, kernel = load_program(spec.program)
    board = resolve_board(spec.board)
    search_options, pipeline_options = build_options(spec, kernel)
    from repro.dse import DEFAULT_STRATEGY, ExploreConfig, explore
    started = time.perf_counter()
    with job_memo(runtime) as memo:
        result = explore(program, board, config=ExploreConfig(
            search=search_options,
            pipeline=pipeline_options,
            backend=spec.backend,
            fidelity=spec.fidelity,
            incremental=memo is not None,
            memo=memo,
        ))
    out: Dict[str, Any] = {
        "shard_id": shard_id,
        "job_id": payload.get("job_id", spec.id),
        "mode": "walk",
        "selected_unroll": list(result.selected.unroll),
        "cycles": result.selected.cycles,
        "space": result.selected.space,
        "balance": result.selected.balance,
        "baseline_cycles": result.baseline.cycles,
        "baseline_space": result.baseline.space,
        "baseline_degraded": result.baseline_degraded,
        "speedup": result.speedup,
        "points_searched": result.points_searched,
        "design_space_size": result.design_space_size,
        "trace": [str(step) for step in result.search.trace],
        "infeasible_count": len(result.infeasible),
        "infeasible_points": [
            diagnostic.as_dict() for diagnostic in result.infeasible
        ],
        "wall_seconds": time.perf_counter() - started,
    }
    if result.strategy != DEFAULT_STRATEGY:
        out["strategy"] = result.strategy
    if result.strategy_selection is not None:
        out["strategy_selection"] = result.strategy_selection.as_dict()
    if result.memo_stats is not None:
        out["memo"] = result.memo_stats
    switches = result.search.fidelity_switches
    if switches:
        out["fidelity_switches"] = [switch.as_dict() for switch in switches]
    return out


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------

def _point_key(point: Mapping[str, Any]) -> Tuple:
    return (point["cycles"], point["space"], tuple(point["unroll"]))


def _pareto_front(points: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Non-dominated set over (cycles, space), deterministically ordered."""
    front: List[Mapping[str, Any]] = []
    for candidate in points:
        dominated = any(
            other["cycles"] <= candidate["cycles"]
            and other["space"] <= candidate["space"]
            and (other["cycles"] < candidate["cycles"]
                 or other["space"] < candidate["space"])
            for other in points
        )
        if not dominated:
            front.append(candidate)
    # Dedup identical (cycles, space, unroll) rows and order stably.
    unique = {_point_key(p): p for p in front}
    return [dict(unique[key]) for key in sorted(unique)]


def merge_shard_results(results: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard point sets into the global result.

    Every reduction is order-independent (min by a total order; set
    union), so the merged document is identical whatever the dispatch
    interleaving was — the fleet's bit-identical-to-one-worker claim.
    """
    points: List[Mapping[str, Any]] = []
    infeasible = 0
    diagnostics: List[Any] = []
    for result in results:
        points.extend(result.get("points", ()))
        infeasible += int(result.get("infeasible_count", 0))
        diagnostics.extend(result.get("infeasible_points", ()))
    if not points:
        from repro.errors import NoFeasiblePoint
        raise NoFeasiblePoint(
            f"fleet merge: every point failed across {len(results)} shards "
            f"({infeasible} failures)"
        )
    feasible = [p for p in points if p.get("fits")]
    pool = feasible or points
    best = min(pool, key=_point_key)
    baseline = None
    for point in points:
        if all(factor == 1 for factor in point["unroll"]):
            baseline = point
            break
    baseline_degraded = baseline is None
    if baseline is None:
        baseline = best
    speedup = baseline["cycles"] / best["cycles"] if best["cycles"] else 0.0
    return {
        "selected_unroll": list(best["unroll"]),
        "cycles": best["cycles"],
        "space": best["space"],
        "balance": best["balance"],
        "baseline_cycles": baseline["cycles"],
        "baseline_space": baseline["space"],
        "baseline_degraded": baseline_degraded,
        "speedup": speedup,
        "pareto_front": _pareto_front(pool),
        "points_searched": len(points),
        "infeasible_count": infeasible,
        "infeasible_points": sorted(
            (dict(d) for d in diagnostics),
            key=lambda d: tuple(d.get("unroll", ())),
        ),
        "shards": len(results),
    }


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

@dataclass
class _JobState:
    """One claimed job's shard bookkeeping."""

    job: ServerJob
    plan: ShardPlan
    pending: List[str] = field(default_factory=list)      # shard ids
    inflight: Dict[str, str] = field(default_factory=dict)  # shard -> worker
    done: Dict[str, Mapping[str, Any]] = field(default_factory=dict)

    def shard(self, shard_id: str) -> Optional[ShardSpec]:
        for shard in self.plan.shards:
            if shard.shard_id == shard_id:
                return shard
        return None


class FleetCoordinator:
    """Owns leases, shard dispatch, rehoming, and the merged results.

    Single-lock design: every public method takes ``self._lock``, so
    the coordinator can be driven from the asyncio server, from tests,
    and from the lease-sweep tick without ordering hazards.  The store
    journals everything through its own lock (lock order is always
    coordinator → store, never the reverse).
    """

    def __init__(self, store: JobStore,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 shard_points: int = DEFAULT_SHARD_POINTS,
                 clock: Callable[[], float] = time.monotonic,
                 incremental: bool = True,
                 memo_dir: Optional[Any] = None):
        self.store = store
        self.shard_points = shard_points
        #: incremental-evaluation knobs stamped into every shard
        #: payload's runtime map; ``memo_dir`` is coordinator-local, so
        #: a worker on another machine overrides it with its own
        #: ``--memo-dir`` (or degrades to a per-shard in-memory memo).
        self.incremental = bool(incremental)
        self.memo_dir = str(memo_dir) if memo_dir else None
        self.leases = LeaseTable(ttl_s=lease_ttl_s, clock=clock)
        self._lock = threading.Lock()
        self._jobs: Dict[str, _JobState] = {}           # job id -> state
        self._worker_shards: Dict[str, List[str]] = {}  # worker -> shard ids
        #: shard_done records adopted from a previous coordinator life.
        self._adopted: Dict[str, Dict[str, Mapping[str, Any]]] = {}
        #: (shard_id, dead_worker) pairs awaiting rehoming — kept across
        #: ticks so an injected ``rehome`` fault delays, never loses.
        self._orphans: List[Tuple[str, str]] = []
        self.duplicate_results = 0
        self.rehomed_total = 0
        self._adopt_journal()

    # -- journal adoption ------------------------------------------------------

    def _adopt_journal(self) -> None:
        """Collect completed shards journaled by a previous coordinator.

        Shard ids are content-addressed, so a restart re-plans byte-
        identical shards and these results apply verbatim — finished
        work is never re-dispatched.
        """
        for record in self.store.replay_records():
            if record.get("event") != "shard_done":
                continue
            job_id = record.get("job_id")
            shard_id = record.get("shard_id")
            result = record.get("result")
            if not (isinstance(job_id, str) and isinstance(shard_id, str)
                    and isinstance(result, Mapping)):
                continue
            self._adopted.setdefault(job_id, {})[shard_id] = result

    # -- worker lifecycle ------------------------------------------------------

    def register(self, worker_id: str) -> Dict[str, Any]:
        """Grant (or refresh) a worker's lease."""
        if not worker_id or not isinstance(worker_id, str):
            raise ServiceError("worker registration needs a non-empty id")
        with self._lock:
            lease = self.leases.register(worker_id)
            self._worker_shards.setdefault(worker_id, [])
            self.store.append_event({
                "event": "worker_registered", "worker": worker_id,
                "ttl_s": self.leases.ttl_s,
            })
            current_registry().gauge("fleet.workers").set(len(self.leases))
            return {"worker": worker_id, "ttl_s": self.leases.ttl_s,
                    "expires_at": lease.expires_at}

    def heartbeat(self, worker_id: str) -> bool:
        """Renew a lease; ``False`` = lease lost, worker must re-register."""
        with self._lock:
            if not self.leases.renew(worker_id):
                return False
            self.store.append_event({
                "event": "lease_renewed", "worker": worker_id,
            })
            return True

    # -- dispatch --------------------------------------------------------------

    def claim(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Hand the next shard to a live worker (``None`` = no work).

        Raises :class:`ServiceError` for a worker with no live lease —
        the HTTP layer maps it to 410 so the worker re-registers before
        it can hold work the coordinator would not track.
        """
        with self._lock:
            if not self.leases.alive(worker_id):
                raise ServiceError(f"worker {worker_id!r} holds no live lease")
            if self.store.read_only:
                # Degraded journal: refuse to dispatch *new* shards (a
                # dispatch journals shard_dispatched, and a fresh claim
                # would journal job_started) — but keep accepting shard
                # results in :meth:`complete`, so in-flight work lands.
                return None
            shard, spec = self._next_shard()
            if shard is None:
                return None
            state = self._jobs[shard.job_id]
            state.pending.remove(shard.shard_id)
            state.inflight[shard.shard_id] = worker_id
            self._worker_shards.setdefault(worker_id, []).append(
                shard.shard_id
            )
            self.store.append_event({
                "event": "shard_dispatched", "shard_id": shard.shard_id,
                "job_id": shard.job_id, "worker": worker_id,
                "points": len(shard.points),
            })
            current_registry().counter("fleet.shards_dispatched").inc()
            return with_runtime(
                shard.to_payload(spec), incremental=self.incremental,
                memo_dir=self.memo_dir,
            )

    def _next_shard(self) -> Tuple[Optional[ShardSpec], Optional[JobSpec]]:
        """The next pending shard, claiming a fresh job if none remain."""
        for state in self._jobs.values():
            if state.pending:
                shard = state.shard(state.pending[0])
                return shard, state.job.spec
        # No pending shards: claim the next job.  ``claim_next`` journals
        # its single ``job_started`` — the exactly-once anchor.
        job = self.store.claim_next()
        if job is None:
            return None, None
        try:
            plan = plan_shards(job.spec, job.hash,
                               shard_points=self.shard_points)
        except Exception as error:  # noqa: BLE001 - plan failure fails the job
            self.store.finish_failed(job, {
                "kind": failure_kind(error), "message": str(error),
            })
            return None, None
        state = _JobState(job=job, plan=plan)
        state.pending = [shard.shard_id for shard in plan.shards]
        self._jobs[job.id] = state
        # Adopt shards a previous coordinator life already finished.
        for shard_id, result in self._adopted.pop(job.id, {}).items():
            if shard_id in state.pending:
                state.pending.remove(shard_id)
                state.done[shard_id] = result
        if not state.pending and not state.inflight:
            self._finish_job(state)
            return self._next_shard()
        if state.pending:
            shard = state.shard(state.pending[0])
            return shard, job.spec
        return None, None

    # -- results ---------------------------------------------------------------

    def complete(self, worker_id: str, shard_id: str,
                 result: Mapping[str, Any]) -> bool:
        """Accept one shard result; ``False`` = duplicate, dropped.

        Late deliveries from presumed-dead workers land here after the
        shard was rehomed and re-run: the first result to arrive wins,
        the duplicate is counted and never journaled (one ``shard_done``
        per shard, like one ``job_started`` per job).
        """
        with self._lock:
            state = self._state_for_shard(shard_id)
            if state is None or shard_id in state.done:
                self.duplicate_results += 1
                current_registry().counter("fleet.duplicate_results").inc()
                return False
            state.inflight.pop(shard_id, None)
            if shard_id in state.pending:
                state.pending.remove(shard_id)
            shards = self._worker_shards.get(worker_id, [])
            if shard_id in shards:
                shards.remove(shard_id)
            state.done[shard_id] = dict(result)
            self.store.append_event({
                "event": "shard_done", "shard_id": shard_id,
                "job_id": state.job.id, "worker": worker_id,
                "result": dict(result),
            })
            current_registry().counter("fleet.shards_done").inc()
            if not state.pending and not state.inflight:
                self._finish_job(state)
            return True

    def _state_for_shard(self, shard_id: str) -> Optional[_JobState]:
        for state in self._jobs.values():
            if state.shard(shard_id) is not None:
                return state
        return None

    def _finish_job(self, state: _JobState) -> None:
        """All shards done: merge and journal the terminal result.

        A walk-mode plan has exactly one shard whose result *is* the
        full exploration outcome — it is adopted verbatim, no merge.
        """
        ordered = [
            state.done[shard.shard_id] for shard in state.plan.shards
        ]
        if state.plan.mode == "walk":
            payload = dict(ordered[0])
            payload.pop("shard_id", None)
            payload["shards"] = len(ordered)
            payload["job_id"] = state.job.id
            payload["program"] = state.job.spec.program
            payload["board"] = state.job.spec.board
            payload["backend"] = state.job.spec.backend
            self.store.finish_ok(state.job, payload)
            del self._jobs[state.job.id]
            return
        try:
            payload = merge_shard_results(ordered)
        except Exception as error:  # noqa: BLE001 - merge failure fails the job
            self.store.finish_failed(state.job, {
                "kind": failure_kind(error), "message": str(error),
            })
            del self._jobs[state.job.id]
            return
        payload["job_id"] = state.job.id
        payload["program"] = state.job.spec.program
        payload["board"] = state.job.spec.board
        payload["backend"] = state.job.spec.backend
        payload["design_space_size"] = state.plan.design_space_size
        self.store.finish_ok(state.job, payload)
        del self._jobs[state.job.id]

    # -- lease sweep & rehoming ------------------------------------------------

    def tick(self) -> List[str]:
        """Expire lapsed leases and rehome their shards; returns the
        expired worker ids (for logs/tests)."""
        with self._lock:
            expired = self.leases.expire_due()
            for worker_id in expired:
                self.store.append_event({
                    "event": "lease_expired", "worker": worker_id,
                })
                current_registry().counter("fleet.leases_expired").inc()
                for shard_id in self._worker_shards.pop(worker_id, []):
                    self._orphans.append((shard_id, worker_id))
            if expired:
                current_registry().gauge("fleet.workers").set(
                    len(self.leases)
                )
            # Rehome every orphan; an injected ``rehome`` fault leaves
            # the rest queued for the next tick instead of losing them.
            pending = self._orphans
            self._orphans = []
            for position, (shard_id, dead_worker) in enumerate(pending):
                try:
                    self._rehome(shard_id, dead_worker)
                except Exception:  # noqa: BLE001 - injected fault: defer
                    self._orphans.extend(pending[position:])
                    break
            return expired

    def _rehome(self, shard_id: str, dead_worker: str) -> None:
        state = self._state_for_shard(shard_id)
        if state is None or shard_id in state.done:
            return
        faults.check("rehome", key=shard_id)
        state.inflight.pop(shard_id, None)
        if shard_id not in state.pending:
            # Front of the queue: an orphaned shard is the oldest work.
            state.pending.insert(0, shard_id)
        self.rehomed_total += 1
        self.store.append_event({
            "event": "shard_rehomed", "shard_id": shard_id,
            "job_id": state.job.id, "from_worker": dead_worker,
        })
        current_registry().counter("fleet.shards_rehomed").inc()

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The ``GET /fleet`` document."""
        with self._lock:
            return {
                "workers": sorted(self.leases.live_workers()),
                "lease_ttl_s": self.leases.ttl_s,
                "jobs_inflight": len(self._jobs),
                "shards_pending": sum(
                    len(state.pending) for state in self._jobs.values()
                ),
                "shards_running": sum(
                    len(state.inflight) for state in self._jobs.values()
                ),
                "shards_rehomed": self.rehomed_total,
                "duplicate_results": self.duplicate_results,
            }

    @property
    def idle(self) -> bool:
        """No claimed job has outstanding shards."""
        with self._lock:
            return not self._jobs

    async def run(self, poll_s: float = 0.25,
                  stopping: Optional[Callable[[], bool]] = None) -> None:
        """The coordinator's background loop: sweep leases forever."""
        import asyncio
        while stopping is None or not stopping():
            self.tick()
            await asyncio.sleep(poll_s)


# ---------------------------------------------------------------------------
# The worker loop (runs in worker processes, talks HTTP)
# ---------------------------------------------------------------------------

@dataclass
class WorkerOptions:
    """Knobs for :class:`FleetWorker`."""

    server: str
    worker_id: str
    poll_s: float = 0.5
    fault_spec: Optional[str] = None
    #: exit after this many shards (None = run until idle_exit_s).
    max_shards: Optional[int] = None
    #: exit after this long with no work (None = run forever).
    idle_exit_s: Optional[float] = None
    #: worker-local memo-journal directory; overrides the coordinator's
    #: (coordinator paths are only valid on the coordinator's machine).
    memo_dir: Optional[str] = None


class FleetWorker:
    """Pull-based worker: register, heartbeat, claim, execute, report.

    The heartbeat runs on a daemon thread at TTL/3 so two beats can be
    lost before the lease lapses; the ``heartbeat`` fault site fires
    inside the beat (an injected raise silently skips that beat, which
    is how the chaos suite starves a lease without killing the
    process).  A 410 from any endpoint means the lease is gone — the
    worker re-registers and carries on.
    """

    def __init__(self, options: WorkerOptions):
        self.options = options
        self.shards_done = 0
        self._ttl_s = DEFAULT_LEASE_TTL_S
        self._stop = threading.Event()

    # -- client plumbing -------------------------------------------------------

    def _register(self) -> None:
        from repro.server.client import register_worker
        grant = register_worker(self.options.server, self.options.worker_id)
        self._ttl_s = float(grant.get("ttl_s", DEFAULT_LEASE_TTL_S))

    def _beat_loop(self) -> None:
        from repro.server.client import LeaseLost, fleet_heartbeat
        while not self._stop.wait(self._ttl_s / 3.0):
            try:
                faults.check("heartbeat", key=self.options.worker_id)
                fleet_heartbeat(self.options.server, self.options.worker_id)
            except LeaseLost:
                try:
                    self._register()
                except OSError:
                    pass  # next beat retries
            except Exception:  # noqa: BLE001 - a skipped beat, not a crash
                continue

    # -- the loop --------------------------------------------------------------

    def run(self) -> int:
        """Work until told to stop; returns the number of shards done."""
        from repro.server.client import (
            LeaseLost, ServerError, claim_shard, post_shard_result,
        )
        faults.activate(self.options.fault_spec)
        self._register()   # fail fast here: a bad --server is an error
        beat = threading.Thread(target=self._beat_loop, daemon=True)
        beat.start()
        idle_since = time.monotonic()

        def idled_out() -> bool:
            return (self.options.idle_exit_s is not None
                    and time.monotonic() - idle_since
                    >= self.options.idle_exit_s)

        try:
            while True:
                if (self.options.max_shards is not None
                        and self.shards_done >= self.options.max_shards):
                    return self.shards_done
                try:
                    shard = claim_shard(
                        self.options.server, self.options.worker_id
                    )
                except LeaseLost:
                    try:
                        self._register()
                    except ServerError:
                        pass  # coordinator mid-restart: poll again
                    continue
                except ServerError:
                    # Coordinator unreachable (draining, restarting, or a
                    # network blip): back off like idle time, so a
                    # restarted coordinator finds us waiting and
                    # --idle-exit bounds how long we linger if it never
                    # comes back.
                    if idled_out():
                        return self.shards_done
                    time.sleep(self.options.poll_s)
                    continue
                if shard is None:
                    if idled_out():
                        return self.shards_done
                    time.sleep(self.options.poll_s)
                    continue
                idle_since = time.monotonic()
                if self.options.fault_spec or self.options.memo_dir:
                    # Merge, don't replace: the coordinator's runtime
                    # knobs (incremental switch, scoreboard) must survive
                    # worker-local overrides.
                    shard = dict(shard)
                    runtime = dict(shard.get("runtime") or {})
                    if self.options.fault_spec:
                        runtime["fault_spec"] = self.options.fault_spec
                    if self.options.memo_dir:
                        runtime["memo_dir"] = self.options.memo_dir
                    shard["runtime"] = runtime
                result = execute_shard(shard)
                try:
                    post_shard_result(
                        self.options.server, self.options.worker_id,
                        result["shard_id"], result,
                    )
                except LeaseLost:
                    # The shard was rehomed while we computed it; the
                    # coordinator will drop our late duplicate anyway.
                    try:
                        self._register()
                    except ServerError:
                        pass
                except ServerError:
                    # Undeliverable result: the coordinator is gone, and
                    # with it the lease — the shard is re-planned and
                    # re-run on the next coordinator life.  Nothing to do.
                    pass
                self.shards_done += 1
        finally:
            self._stop.set()


__all__ = [
    "DEFAULT_SHARD_POINTS",
    "FleetCoordinator",
    "FleetWorker",
    "ShardPlan",
    "ShardSpec",
    "WorkerOptions",
    "execute_shard",
    "merge_shard_results",
    "plan_shards",
]
