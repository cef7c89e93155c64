"""The per-job execution function that runs inside worker processes.

:func:`execute_job` is the unit of work the batch engine distributes: it
rebuilds the program, board, and options from a primitives-only payload
(nothing rich crosses the pipe inbound), runs the full exploration, and
returns a primitives-only result dict (nothing rich crosses back out
either — ``CompiledDesign`` IR stays in the worker).  The same function
runs unchanged in-process when the engine degrades to serial execution,
so both paths share one code path and one telemetry shape.

Robustness discipline inside the worker:

* every estimator call goes through an
  :class:`~repro.service.guard.EstimationGuard` (per-call deadline,
  backoff on transient faults, corrupt-output validation) — configured
  from the job's ``call_deadline_s`` and the payload's ``runtime`` map;
* a failed memo-journal flush degrades, it does not fail the job: the
  selections are already computed, the loss is counted as memo
  invalidations, and the estimates are simply re-learned next time;
* fault-injection sites ``worker`` (entry) and the guard's sites are
  active whenever a fault spec is (env or runtime), which is how the
  chaos suite drives this exact code path.

The batch runner, the server scheduler and the fleet coordinator build
the payload with :func:`with_runtime`; the first two also fold a
result's observations with :func:`absorb_obs` and score its strategy
with :func:`strategy_won`.

Estimates persist in the memo journal named by the runtime map's
``memo_dir``, and each job flushes what it learned before returning, so
estimates learned by one job are visible to jobs scheduled later.  The
worker process keeps its memo store resident between jobs
(:func:`repro.incremental.journal.resident_memo`): a job catches the
store up on records appended since the previous job, and replays the
whole journal only when the process has no store yet, the previous
flush failed, or the journal's segment chain has changed since.  The
payload's ``cache_hits``/``cache_misses`` are the job's point-domain
memo tallies.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import faults
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.service.guard import EstimationGuard, GuardPolicy
from repro.service.jobs import JobSpec


def resolve_board(name: str):
    """A board preset from its manifest name."""
    from repro.target import wildstar_nonpipelined, wildstar_pipelined
    if name == "pipelined":
        return wildstar_pipelined()
    if name == "nonpipelined":
        return wildstar_nonpipelined()
    from repro.errors import ServiceError
    raise ServiceError(f"unknown board {name!r}")


def load_program(spec: str) -> Tuple[Any, Optional[Any]]:
    """``(program, kernel-or-None)`` from ``kernel:<name>`` or a path."""
    from repro.errors import ServiceError
    from repro.frontend import compile_source
    from repro.kernels import kernel_by_name
    if spec.startswith("kernel:"):
        try:
            kernel = kernel_by_name(spec.split(":", 1)[1])
        except KeyError as error:
            raise ServiceError(error.args[0]) from None
        return kernel.program(), kernel
    path = Path(spec)
    if not path.exists():
        raise ServiceError(f"no such program file: {spec}")
    return compile_source(path.read_text(), name=path.stem), None


def build_options(spec: JobSpec, kernel) -> Tuple[Any, Any]:
    """(SearchOptions, PipelineOptions) from a spec's override maps."""
    from repro.dse import SearchOptions
    from repro.transform import PipelineOptions
    search = SearchOptions(**dict(spec.search))
    pipeline_overrides = dict(spec.pipeline)
    options = PipelineOptions(**pipeline_overrides)
    if options.narrow_bitwidths and kernel is not None:
        options.input_value_ranges = kernel.value_ranges()
    return search, options


def job_memo(runtime: Mapping[str, Any]):
    """The context a job's memo store lives in: the process's resident
    store for the runtime map's ``memo_dir`` (an ephemeral one without
    it), or ``None`` when the map turns incremental evaluation off.

    Incremental evaluation is an engine knob, not part of job identity:
    memo hits are bit-identical to recomputation, so the flag rides the
    runtime map (like fault_spec) and never perturbs job hashes.  A
    shared memo_dir makes entries learned by one job visible to jobs
    scheduled later — the journal is flock-guarded, so concurrent
    workers flush safely.
    """
    if not runtime.get("incremental", True):
        return nullcontext()
    from repro.incremental.journal import resident_memo
    memo_dir = runtime.get("memo_dir")
    return resident_memo(Path(memo_dir) if memo_dir else None)


def _guard_seed(spec: JobSpec) -> int:
    """A stable per-job seed for backoff jitter (reproducible runs)."""
    from repro.service.ledger import spec_hash
    return int(spec_hash(spec)[:8], 16)


def _make_guard(spec: JobSpec, runtime: Mapping[str, Any]) -> EstimationGuard:
    deadline = spec.call_deadline_s
    if deadline is None:
        deadline = runtime.get("call_deadline_s")
    return EstimationGuard(
        GuardPolicy(call_deadline_s=deadline), seed=_guard_seed(spec),
        key=spec.id,
    )


def with_runtime(
    payload: Dict[str, Any],
    *,
    call_deadline_s: Optional[float] = None,
    fault_spec: Optional[str] = None,
    incremental: bool = True,
    memo_dir: Optional[str] = None,
    scoreboard: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """``payload`` with the caller's runtime knobs under ``runtime``.

    The key is only added when a knob is set, so injected test workers
    see exactly the spec payload otherwise.
    """
    runtime: Dict[str, Any] = {}
    if call_deadline_s is not None:
        runtime["call_deadline_s"] = call_deadline_s
    if fault_spec is not None:
        runtime["fault_spec"] = fault_spec
    if not incremental:
        runtime["incremental"] = False
    if memo_dir is not None:
        runtime["memo_dir"] = memo_dir
    if scoreboard:
        runtime["scoreboard"] = scoreboard
    if runtime:
        payload["runtime"] = runtime
    return payload


def absorb_obs(
    payload: Any, registry: MetricsRegistry, spans_path: Optional[Path]
) -> None:
    """Pop a worker result's shipped observations and fold them into the
    caller's: the metrics snapshot merges into ``registry``, spans
    append to ``spans_path``.

    Observations leave the payload before it reaches a ledger or job
    store: spans and metrics are run-level artifacts with their own
    files, and journaling them per job would bloat every record.  Never
    a point of failure: a bad spans disk degrades to a counted drop.
    """
    if not isinstance(payload, dict):
        return
    obs = payload.pop("obs", None)
    if not isinstance(obs, Mapping):
        return
    metrics = obs.get("metrics")
    if isinstance(metrics, Mapping):
        registry.merge(metrics)
    spans = obs.get("spans")
    if spans and spans_path is not None:
        try:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "a") as stream:
                for span in spans:
                    stream.write(json.dumps(span) + "\n")
        except (OSError, TypeError, ValueError):
            registry.counter("obs.spans.dropped").inc(len(spans))


def strategy_won(payload: Mapping[str, Any]) -> bool:
    """The strategy win rule: the walk found a real speedup without a
    degraded baseline."""
    speedup = payload.get("speedup")
    return (
        isinstance(speedup, (int, float)) and speedup >= 1.0
        and not payload.get("baseline_degraded")
    )


def execute_job(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one exploration job; returns the primitives-only result dict.

    The dict carries everything the coordinator reports: the selection
    (unroll/cycles/space/balance), baseline and speedup, search effort
    (points vs design-space size), the narrative trace, this job's
    point-memo hit/miss counters, guard counters (estimator retries and
    deadline hits), and wall seconds split by phase.

    Observability: unless the payload's runtime map sets
    ``trace: false``, the whole job runs under a fresh per-job
    :class:`~repro.obs.Tracer` (every span stamped with this job's id)
    and :class:`~repro.obs.MetricsRegistry`; both are serialized into
    the result under ``"obs"`` (``{"spans": [...], "metrics": {...}}``)
    for the coordinator to fold into the run's span file and registry —
    workers share no memory with the parent, so observations ride the
    same pipe as results.
    """
    spec = JobSpec.from_payload(payload)
    runtime = payload.get("runtime") or {}
    faults.activate(runtime.get("fault_spec"))
    faults.check("worker", key=spec.id)

    traced = runtime.get("trace", True)
    tracer = Tracer(base_attributes={"job": spec.id}) if traced else None
    registry = MetricsRegistry()
    with use_tracer(tracer) if traced else nullcontext(), \
            use_registry(registry):
        result_dict = _execute(spec, runtime)
    if traced:
        result_dict["obs"] = {
            "spans": tracer.to_dicts(),
            "metrics": registry.snapshot(),
        }
    else:
        result_dict["obs"] = {"spans": [], "metrics": registry.snapshot()}
    return result_dict


def _execute(spec: JobSpec, runtime: Mapping[str, Any]) -> Dict[str, Any]:
    t_start = time.perf_counter()
    program, kernel = load_program(spec.program)
    board = resolve_board(spec.board)
    search_options, pipeline_options = build_options(spec, kernel)
    t_loaded = time.perf_counter()

    guard = _make_guard(spec, runtime)
    from repro.dse import ExploreConfig, explore
    # An auto-strategy job consults the coordinator's persisted win
    # rates (the server journals strategy_outcome events durably), so
    # selection keeps learning across server restarts.
    scoreboard = None
    tallies = runtime.get("scoreboard")
    if isinstance(tallies, Mapping) and tallies:
        from repro.dse.selector import StrategyScoreboard
        scoreboard = StrategyScoreboard.from_dict(tallies)
    with job_memo(runtime) as store:
        result = explore(program, board, config=ExploreConfig(
            search=search_options,
            pipeline=pipeline_options,
            guard=guard,
            backend=spec.backend,
            fidelity=spec.fidelity,
            incremental=store is not None,
            memo=store,
            scoreboard=scoreboard,
        ))
    t_explored = time.perf_counter()
    memo = result.memo_stats or {}

    out = {
        "job_id": spec.id,
        "program": result.program_name,
        "board": result.board_name,
        "selected_unroll": list(result.selected.unroll),
        "cycles": result.selected.cycles,
        "space": result.selected.space,
        "balance": result.selected.balance,
        "baseline_cycles": result.baseline.cycles,
        "baseline_space": result.baseline.space,
        "speedup": result.speedup,
        "points_searched": result.points_searched,
        "design_space_size": result.design_space_size,
        "trace": [str(step) for step in result.search.trace],
        "infeasible_count": len(result.infeasible),
        "infeasible_points": [
            diagnostic.as_dict() for diagnostic in result.infeasible
        ],
        "baseline_degraded": result.baseline_degraded,
        "backend": result.backend,
        "fidelity": spec.fidelity,
        "confirmation": _confirmation_dict(result.confirmation),
        "rank_agreement": _differential_dict(result.differential),
        "cache_hits": memo.get("point_hits", 0),
        "cache_misses": memo.get("point_misses", 0),
        "estimator_retries": guard.retries,
        "deadline_hits": guard.deadline_hits,
        "wall_seconds": t_explored - t_start,
        "phase_seconds": {
            "load": t_loaded - t_start,
            "explore": t_explored - t_loaded,
        },
        "report": result.report(),
    }
    # Strategy details ride the payload only when they carry signal —
    # default-strategy runs keep the exact PR-8 payload shape.
    from repro.dse import DEFAULT_STRATEGY
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


def _confirmation_dict(confirmation) -> Optional[Dict[str, Any]]:
    """Primitives-only view of a multi-fidelity confirmation."""
    return confirmation.as_dict() if confirmation is not None else None


def _differential_dict(differential) -> Optional[Dict[str, Any]]:
    """Primitives-only view of a differential validation report."""
    return differential.as_dict() if differential is not None else None
