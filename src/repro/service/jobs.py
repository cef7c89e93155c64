"""Job manifests: what the batch engine runs.

A *job* is one complete exploration — a program (built-in kernel or
C-subset source file) on one board with one set of search and pipeline
options.  A *manifest* is an ordered list of jobs plus shared defaults,
written as JSON::

    {
      "defaults": {"board": "pipelined", "timeout_s": 300},
      "jobs": [
        {"program": "kernel:fir"},
        {"program": "kernel:mm", "board": "nonpipelined",
         "search": {"balance_tolerance": 0.05}},
        {"program": "designs/sobel.c",
         "pipeline": {"narrow_bitwidths": true}}
      ]
    }

A bare JSON list is also accepted as shorthand for ``{"jobs": [...]}``,
and a job may be just the program string.  Everything here is plain
data: a :class:`JobSpec` crosses process boundaries as a primitives-only
payload dict, and the worker re-resolves programs, boards, and options
on its own side of the pipe, so no IR objects are ever pickled.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ServiceError

#: Manifest/job keys accepted by :func:`parse_manifest`.
_JOB_KEYS = {
    "id", "program", "board", "search", "pipeline", "timeout_s",
    "max_attempts", "call_deadline_s", "backend", "fidelity", "tenant",
}
_MANIFEST_KEYS = {"defaults", "jobs"}
_DEFAULT_KEYS = _JOB_KEYS - {"id", "program"}
_SEARCH_KEYS = {
    "balance_tolerance", "max_iterations", "max_point_failures", "strategy",
}
_PIPELINE_KEYS = {
    "exploit_outer_reuse", "register_cap", "apply_data_layout",
    "run_licm", "narrow_bitwidths",
}
_BOARDS = ("pipelined", "nonpipelined")
_FIDELITIES = ("single", "multi")

#: The implicit tenant for submissions that name none.  Jobs under this
#: tenant hash identically to pre-tenant submissions, so existing job
#: ids (and dedup hits against old journals) stay byte-identical.
DEFAULT_TENANT = "default"

_TENANT_OK = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _check_tenant(context: str, tenant: Any) -> str:
    """Validate a tenant id (it becomes a metrics label and a fair-queue
    key, so the charset is deliberately narrow)."""
    if not isinstance(tenant, str) or not _TENANT_OK.match(tenant):
        raise ServiceError(
            f"{context}: tenant must match {_TENANT_OK.pattern!r}, "
            f"got {tenant!r}"
        )
    return tenant


def _check_backend(context: str, backend: Any) -> str:
    """Validate a backend id against the estimate registry, fail-fast."""
    from repro.estimate import backend_ids
    if not isinstance(backend, str) or backend not in backend_ids():
        raise ServiceError(
            f"{context}: unknown backend {backend!r}; "
            f"expected one of {backend_ids()}"
        )
    return backend


def _check_fidelity(context: str, fidelity: Any) -> str:
    if fidelity not in _FIDELITIES:
        raise ServiceError(
            f"{context}: unknown fidelity {fidelity!r}; "
            f"expected one of {_FIDELITIES}"
        )
    return fidelity


def _check_strategy(context: str, strategy: Any) -> str:
    """Validate a search-strategy id against the DSE registry, fail-fast
    at intake (``auto`` defers to the selector at run time)."""
    from repro.dse.strategy import strategy_ids
    valid = strategy_ids() + ("auto",)
    if not isinstance(strategy, str) or strategy not in valid:
        raise ServiceError(
            f"{context}: unknown search strategy {strategy!r}; "
            f"expected one of {valid}"
        )
    return strategy


def _normalize_search(context: str, overrides: Tuple) -> Tuple:
    """Validate the ``strategy`` override and drop it when it names the
    default, so default-strategy specs hash byte-identically to
    pre-strategy ones (the same conditional-inclusion pattern the
    backend/fidelity/tenant fields use)."""
    from repro.dse.strategy import DEFAULT_STRATEGY
    items = dict(overrides)
    if "strategy" in items:
        strategy = _check_strategy(context, items["strategy"])
        if strategy == DEFAULT_STRATEGY:
            del items["strategy"]
    return tuple(sorted(items.items()))


@dataclass
class JobConfig:
    """The single configuration object :meth:`JobSpec.create` accepts.

    Attributes:
        board: ``pipelined`` or ``nonpipelined``.
        search: a :class:`repro.dse.SearchOptions` instance or a mapping
            of field overrides (the manifest shape).
        pipeline: a :class:`repro.transform.PipelineOptions` instance or
            a mapping of primitive-valued field overrides.
        timeout_s / max_attempts / call_deadline_s: robustness knobs,
            as on :class:`JobSpec`.
        backend: estimation backend id the job navigates on.
        fidelity: ``single`` or ``multi`` (authoritative confirmation).
        tenant: accounting identity for multi-tenant admission (quota,
            fair queueing, per-tenant metrics series).
    """

    board: str = "pipelined"
    search: Optional[Any] = None
    pipeline: Optional[Any] = None
    timeout_s: Optional[float] = None
    max_attempts: int = 2
    call_deadline_s: Optional[float] = None
    backend: str = "analytic"
    fidelity: str = "single"
    tenant: str = DEFAULT_TENANT


def _as_overrides(value: Any, allowed: set, what: str) -> Tuple:
    """Normalize an options dataclass or override mapping to the sorted
    key/value tuple :class:`JobSpec` stores (primitives only)."""
    if value is None:
        return ()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {
            key: val for key, val in dataclasses.asdict(value).items()
            if key in allowed
        }
    if not isinstance(value, Mapping):
        raise ServiceError(
            f"{what} must be an options dataclass or a mapping, "
            f"got {type(value).__name__}"
        )
    unknown = set(value) - allowed
    if unknown:
        raise ServiceError(f"{what}: unknown keys {sorted(unknown)}")
    return tuple(sorted(value.items()))


@dataclass(frozen=True)
class JobSpec:
    """One exploration request, as plain picklable data.

    Attributes:
        id: unique name within the manifest (generated when omitted).
        program: ``kernel:<name>`` or a path to a C-subset source file.
        board: ``pipelined`` or ``nonpipelined`` (WildStar presets).
        search: overrides for :class:`repro.dse.SearchOptions` fields.
        pipeline: overrides for :class:`repro.transform.PipelineOptions`
            fields (primitive-valued ones only).
        timeout_s: per-job wall-clock limit; enforced only when the job
            runs in a worker process (serial execution cannot preempt).
        max_attempts: total tries before the job is reported failed.
        call_deadline_s: wall-clock limit for *one* estimator call inside
            the worker (the guard raises ``DeadlineExceeded`` past it) —
            distinct from ``timeout_s``, which bounds the whole job.
        backend: estimation backend id the exploration navigates on
            (``analytic``/``placeroute``/``interp``).
        fidelity: ``single``, or ``multi`` for navigate-cheap /
            confirm-authoritative exploration.
        tenant: accounting identity for multi-tenant admission; the
            default tenant is excluded from every hash so pre-tenant
            job ids stay byte-identical.
    """

    id: str
    program: str
    board: str = "pipelined"
    search: Tuple[Tuple[str, Any], ...] = ()
    pipeline: Tuple[Tuple[str, Any], ...] = ()
    timeout_s: Optional[float] = None
    max_attempts: int = 2
    call_deadline_s: Optional[float] = None
    backend: str = "analytic"
    fidelity: str = "single"
    tenant: str = DEFAULT_TENANT

    def to_payload(self) -> Dict[str, Any]:
        """The primitives-only dict shipped to worker processes."""
        return {
            "id": self.id,
            "program": self.program,
            "board": self.board,
            "search": dict(self.search),
            "pipeline": dict(self.pipeline),
            "call_deadline_s": self.call_deadline_s,
            "backend": self.backend,
            "fidelity": self.fidelity,
            "tenant": self.tenant,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec on the worker side of the pipe."""
        return cls(
            id=payload["id"],
            program=payload["program"],
            board=payload.get("board", "pipelined"),
            search=tuple(sorted(payload.get("search", {}).items())),
            pipeline=tuple(sorted(payload.get("pipeline", {}).items())),
            call_deadline_s=payload.get("call_deadline_s"),
            backend=payload.get("backend", "analytic"),
            fidelity=payload.get("fidelity", "single"),
            tenant=payload.get("tenant", DEFAULT_TENANT),
        )

    @classmethod
    def create(
        cls,
        program: str,
        *,
        id: Optional[str] = None,
        config: Optional[JobConfig] = None,
    ) -> "JobSpec":
        """Build a validated spec from one :class:`JobConfig`.

        This is the programmatic construction API (manifests go through
        :func:`parse_manifest`): it accepts real option dataclasses —
        ``JobConfig(search=SearchOptions(max_iterations=8))`` — and
        normalizes them to the primitives-only form the spec stores.
        """
        config = config or JobConfig()
        if config.board not in _BOARDS:
            raise ServiceError(
                f"unknown board {config.board!r}; expected one of {_BOARDS}"
            )
        if not isinstance(config.max_attempts, int) or config.max_attempts < 1:
            raise ServiceError("max_attempts must be >= 1")
        stem = (
            program.split(":", 1)[1] if program.startswith("kernel:")
            else Path(program).stem
        )
        return cls(
            id=str(id) if id is not None else f"{stem}-{config.board}",
            program=program,
            board=config.board,
            search=_normalize_search(
                "JobConfig",
                _as_overrides(config.search, _SEARCH_KEYS, "search"),
            ),
            pipeline=_as_overrides(
                config.pipeline, _PIPELINE_KEYS, "pipeline"
            ),
            timeout_s=config.timeout_s,
            max_attempts=config.max_attempts,
            call_deadline_s=config.call_deadline_s,
            backend=_check_backend("JobConfig", config.backend),
            fidelity=_check_fidelity("JobConfig", config.fidelity),
            tenant=_check_tenant("JobConfig", config.tenant),
        )


@dataclass(frozen=True)
class BatchManifest:
    """An ordered, validated collection of jobs."""

    jobs: Tuple[JobSpec, ...]
    source: Optional[str] = None

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)


def load_manifest(path: Path) -> BatchManifest:
    """Parse and validate a manifest JSON file."""
    path = Path(path)
    if not path.exists():
        raise ServiceError(f"no such manifest: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ServiceError(f"manifest {path} is not valid JSON: {error}") from None
    return parse_manifest(raw, source=str(path), base_dir=path.parent)


def parse_manifest(
    raw: Any,
    source: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> BatchManifest:
    """Validate a decoded manifest object into a :class:`BatchManifest`.

    ``base_dir`` anchors relative source-file paths (the manifest's own
    directory when loaded from disk), so a manifest works no matter
    where the engine is launched from.
    """
    if isinstance(raw, list):
        raw = {"jobs": raw}
    if not isinstance(raw, dict):
        raise ServiceError("manifest must be a JSON object or list of jobs")
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise ServiceError(f"unknown manifest keys: {sorted(unknown)}")
    defaults = raw.get("defaults", {})
    _check_keys("defaults", defaults, _DEFAULT_KEYS)
    entries = raw.get("jobs")
    if not isinstance(entries, list) or not entries:
        raise ServiceError("manifest needs a non-empty 'jobs' list")

    jobs: List[JobSpec] = []
    seen_ids = set()
    for position, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"program": entry}
        if not isinstance(entry, dict):
            raise ServiceError(
                f"job {position} must be an object or a program string"
            )
        _check_keys(f"job {position}", entry, _JOB_KEYS)
        merged = {**defaults, **entry}
        spec = _build_job(position, merged, base_dir)
        if spec.id in seen_ids:
            raise ServiceError(f"duplicate job id {spec.id!r}")
        seen_ids.add(spec.id)
        jobs.append(spec)
    return BatchManifest(jobs=tuple(jobs), source=source)


def _build_job(
    position: int, entry: Mapping[str, Any], base_dir: Optional[Path]
) -> JobSpec:
    program = entry.get("program")
    if not isinstance(program, str) or not program:
        raise ServiceError(f"job {position} needs a 'program' string")
    program = _resolve_program(position, program, base_dir)

    board = entry.get("board", "pipelined")
    if board not in _BOARDS:
        raise ServiceError(
            f"job {position}: unknown board {board!r}; expected one of {_BOARDS}"
        )

    search = entry.get("search", {})
    _check_keys(f"job {position} search", search, _SEARCH_KEYS)
    pipeline = entry.get("pipeline", {})
    _check_keys(f"job {position} pipeline", pipeline, _PIPELINE_KEYS)

    timeout_s = entry.get("timeout_s")
    if timeout_s is not None and (
        not isinstance(timeout_s, (int, float)) or timeout_s <= 0
    ):
        raise ServiceError(f"job {position}: timeout_s must be positive")
    call_deadline_s = entry.get("call_deadline_s")
    if call_deadline_s is not None and (
        not isinstance(call_deadline_s, (int, float)) or call_deadline_s <= 0
    ):
        raise ServiceError(f"job {position}: call_deadline_s must be positive")
    max_attempts = entry.get("max_attempts", 2)
    if not isinstance(max_attempts, int) or max_attempts < 1:
        raise ServiceError(f"job {position}: max_attempts must be >= 1")

    backend = _check_backend(
        f"job {position}", entry.get("backend", "analytic")
    )
    fidelity = _check_fidelity(
        f"job {position}", entry.get("fidelity", "single")
    )
    tenant = _check_tenant(
        f"job {position}", entry.get("tenant", DEFAULT_TENANT)
    )

    job_id = entry.get("id") or _default_id(position, program, board)
    return JobSpec(
        id=str(job_id),
        program=program,
        board=board,
        search=_normalize_search(
            f"job {position}", tuple(sorted(search.items()))
        ),
        pipeline=tuple(sorted(pipeline.items())),
        timeout_s=timeout_s,
        max_attempts=max_attempts,
        call_deadline_s=call_deadline_s,
        backend=backend,
        fidelity=fidelity,
        tenant=tenant,
    )


def _resolve_program(
    position: int, program: str, base_dir: Optional[Path]
) -> str:
    """Fail fast on unknown kernels and missing source files."""
    if program.startswith("kernel:"):
        from repro.kernels import kernel_by_name
        try:
            kernel_by_name(program.split(":", 1)[1])
        except KeyError as error:
            raise ServiceError(f"job {position}: {error.args[0]}") from None
        return program
    path = Path(program)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    if not path.exists():
        raise ServiceError(f"job {position}: no such program file: {program}")
    return str(path)


def _default_id(position: int, program: str, board: str) -> str:
    stem = program.split(":", 1)[1] if program.startswith("kernel:") else (
        Path(program).stem
    )
    return f"job{position}-{stem}-{board}"


def _check_keys(context: str, mapping: Any, allowed: set) -> None:
    if not isinstance(mapping, dict):
        raise ServiceError(f"{context} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ServiceError(f"{context}: unknown keys {sorted(unknown)}")
