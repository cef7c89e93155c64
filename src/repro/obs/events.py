"""The versioned event API: one typed vocabulary for every JSONL line.

Three subsystems used to emit ad-hoc dicts with overlapping-but-divergent
shapes: :mod:`repro.service.telemetry` (the trace file),
:mod:`repro.service.ledger` (the crash journal), and the batch summary.
Learning-based consumers — algorithm selectors trained on per-point
cost/visit telemetry, dashboards, regression tooling — need a schema
they can rely on across releases.  This module is that contract:

* every event is a frozen **dataclass** with explicit fields;
* every serialized record carries ``schema_version`` (currently
  ``1``) plus an ``event`` discriminator;
* records **round-trip**: ``from_json(event.to_json()) == event``;
* unknown-but-newer fields survive a round trip through the ``extra``
  mapping (forward compatibility), while :func:`validate_record` —
  the CI gate — rejects them, so the *emitters* in this repository
  cannot drift from the schema unnoticed;
* pre-versioning JSONL lines (the "v0" shape, identical field names but
  no ``schema_version``) remain readable through :func:`upgrade_v0`,
  which :func:`from_record` applies automatically.

Versioning policy (also documented in DESIGN.md §6.4): additions of
optional fields bump nothing; renaming/removing a field or changing a
field's meaning bumps ``SCHEMA_VERSION`` and adds an upgrade shim here,
next to ``upgrade_v0``.  Consumers should dispatch on ``event`` and
tolerate additive fields; producers must emit exactly the typed shapes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple, Type

#: The schema version stamped on every emitted record.
SCHEMA_VERSION = 1

#: Versions :func:`from_record` knows how to read.  ``0`` is the
#: pre-versioning shape, upgraded in place by :func:`upgrade_v0`.
SUPPORTED_VERSIONS = (0, 1)

#: Transport-layer fields the durable-journal framing adds to records on
#: disk (see :mod:`repro.durable.journal`).  They are not part of any
#: event's schema — both the codec and the CI validator strip them
#: before looking at the record, the same way an IP stack strips its
#: checksum before handing a packet up.
FRAME_FIELDS = ("crc32",)


class EventSchemaError(ValueError):
    """A record does not conform to the event schema."""


_REGISTRY: Dict[str, Type["EventBase"]] = {}


def _register(cls: Type["EventBase"]) -> Type["EventBase"]:
    _REGISTRY[cls.EVENT] = cls
    return cls


class EventBase:
    """Shared (de)serialization for the typed events.

    Subclasses are frozen dataclasses; ``extra`` carries fields a newer
    producer added, so older readers do not destroy information.
    """

    EVENT: ClassVar[str] = ""

    def to_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"event": self.EVENT}
        for spec in dataclasses.fields(self):
            if spec.name == "extra":
                continue
            record[spec.name] = getattr(self, spec.name)
        record.update(getattr(self, "extra", {}))
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    @property
    def name(self) -> str:
        return self.EVENT


# -- telemetry events ---------------------------------------------------------

@_register
@dataclass(frozen=True)
class BatchStart(EventBase):
    EVENT: ClassVar[str] = "batch_start"
    ts: float
    jobs: int
    workers: int
    cache: Optional[str] = None
    manifest: Optional[str] = None
    resumed_jobs: int = 0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobStart(EventBase):
    EVENT: ClassVar[str] = "job_start"
    ts: float
    job_id: str
    attempt: int
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobFinish(EventBase):
    """One attempt succeeded; carries the worker's full result counters."""

    EVENT: ClassVar[str] = "job_finish"
    ts: float
    job_id: str
    attempt: int
    selected_unroll: Optional[List[int]] = None
    program: Optional[str] = None
    board: Optional[str] = None
    cycles: Optional[int] = None
    space: Optional[int] = None
    speedup: Optional[float] = None
    points_searched: Optional[int] = None
    design_space_size: Optional[int] = None
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    #: no longer emitted; declared so older run dirs still validate.
    cache_evictions: Optional[int] = None
    cache_save_error: Optional[str] = None
    estimator_retries: Optional[int] = None
    deadline_hits: Optional[int] = None
    wall_seconds: Optional[float] = None
    phase_seconds: Optional[Mapping[str, float]] = None
    infeasible_count: Optional[int] = None
    baseline_degraded: Optional[bool] = None
    strategy: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class StrategySelected(EventBase):
    """``--strategy auto`` resolved: which algorithm the selector picked
    for one job's design space, and from what evidence."""

    EVENT: ClassVar[str] = "strategy_selected"
    ts: float
    job_id: str
    strategy: str
    reason: str = ""
    features: Optional[Mapping[str, Any]] = None
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class StrategyOutcome(EventBase):
    """One strategy's scored run: the win-rate ledger's unit of
    evidence.  ``won`` means the walk found a real speedup without
    degrading the baseline; ``win_rate``/``trials`` snapshot the
    scoreboard *after* folding this outcome."""

    EVENT: ClassVar[str] = "strategy_outcome"
    ts: float
    job_id: str
    strategy: str
    won: bool = False
    speedup: Optional[float] = None
    points_searched: Optional[int] = None
    trials: int = 0
    win_rate: float = 0.0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobRetry(EventBase):
    EVENT: ClassVar[str] = "job_retry"
    ts: float
    job_id: str
    attempt: int
    reason: str = ""
    kind: str = "exception"
    transient: bool = True
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobFailed(EventBase):
    EVENT: ClassVar[str] = "job_failed"
    ts: float
    job_id: str
    attempt: int
    reason: str = ""
    kind: str = "exception"
    transient: bool = False
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobResumed(EventBase):
    """A resumed run adopted this job's ledger result without re-running."""

    EVENT: ClassVar[str] = "job_resumed"
    ts: float
    job_id: str
    status: str = "ok"
    attempts: int = 1
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class PoolUnavailable(EventBase):
    EVENT: ClassVar[str] = "pool_unavailable"
    ts: float
    error: str = ""
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class BatchFinish(EventBase):
    EVENT: ClassVar[str] = "batch_finish"
    ts: float
    succeeded: int
    failed: int
    resumed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    points_synthesized: int = 0
    telemetry_dropped: int = 0
    ledger_dropped: int = 0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


# -- ledger events ------------------------------------------------------------

@_register
@dataclass(frozen=True)
class RunStart(EventBase):
    EVENT: ClassVar[str] = "run_start"
    ts: float
    fingerprint: str
    jobs: int = 0
    manifest_source: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class RunResume(EventBase):
    EVENT: ClassVar[str] = "run_resume"
    ts: float
    completed: int = 0
    in_flight: int = 0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobAttempt(EventBase):
    EVENT: ClassVar[str] = "job_attempt"
    ts: float
    job_id: str
    attempt: int = 1
    spec_hash: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class JobDone(EventBase):
    """A job's terminal journal record (payload xor failure set)."""

    EVENT: ClassVar[str] = "job_done"
    ts: float
    job_id: str
    status: str = "ok"
    attempts: int = 1
    spec_hash: Optional[str] = None
    payload: Optional[Mapping[str, Any]] = None
    failure: Optional[Mapping[str, Any]] = None
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class RunFinish(EventBase):
    EVENT: ClassVar[str] = "run_finish"
    ts: float
    succeeded: int = 0
    failed: int = 0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


# -- fleet events -------------------------------------------------------------

@_register
@dataclass(frozen=True)
class WorkerRegistered(EventBase):
    """A worker was granted (or re-granted) a lease."""

    EVENT: ClassVar[str] = "worker_registered"
    ts: float
    worker: str
    ttl_s: float = 0.0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class LeaseRenewed(EventBase):
    EVENT: ClassVar[str] = "lease_renewed"
    ts: float
    worker: str
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class LeaseExpired(EventBase):
    """A worker's lease lapsed; its shards are about to be rehomed."""

    EVENT: ClassVar[str] = "lease_expired"
    ts: float
    worker: str
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class ShardDispatched(EventBase):
    EVENT: ClassVar[str] = "shard_dispatched"
    ts: float
    shard_id: str
    job_id: str
    worker: str
    points: int = 0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class ShardRehomed(EventBase):
    """An orphaned shard went back to the front of the dispatch queue."""

    EVENT: ClassVar[str] = "shard_rehomed"
    ts: float
    shard_id: str
    job_id: str
    from_worker: str = ""
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class ShardDone(EventBase):
    """One shard's terminal record; ``result`` is the full point set the
    deterministic merge folds."""

    EVENT: ClassVar[str] = "shard_done"
    ts: float
    shard_id: str
    job_id: str
    worker: str = ""
    result: Optional[Mapping[str, Any]] = None
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


# -- durable-journal events ---------------------------------------------------

@_register
@dataclass(frozen=True)
class JournalSnapshot(EventBase):
    """A compaction checkpoint: the folded state of every retired
    segment, written as the first record of a fresh segment.

    Replay resets to ``state`` and continues with subsequent events, so
    a compacted journal folds to exactly the state the uncompacted one
    did (see DESIGN.md §6.8 for the crash-window argument).
    """

    EVENT: ClassVar[str] = "journal_snapshot"
    ts: float
    journal: str
    state: Mapping[str, Any] = field(default_factory=dict)
    folded_segments: int = 0
    folded_records: int = 0
    schema_version: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)


# -- the escape hatch ---------------------------------------------------------

@dataclass(frozen=True)
class GenericEvent(EventBase):
    """A structurally sound record whose name this schema predates.

    Produced only by non-strict :func:`from_record` so tooling can
    stream past events injected by tests or future producers; never
    accepted by :func:`validate_record`.
    """

    event: str = ""
    ts: float = 0.0
    schema_version: int = SCHEMA_VERSION
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "event": self.event,
            "ts": self.ts,
            "schema_version": self.schema_version,
            **self.data,
        }

    @property
    def name(self) -> str:
        return self.event


# -- codec --------------------------------------------------------------------

def event_types() -> Dict[str, Type[EventBase]]:
    """The event-name -> dataclass registry (a copy)."""
    return dict(_REGISTRY)


def upgrade_v0(record: Mapping[str, Any]) -> Dict[str, Any]:
    """Lift a pre-versioning record to v1.

    The v0 vocabulary used the same event names and field names as v1 —
    the only difference is the absent ``schema_version`` — so the shim
    stamps the version and leaves everything else in place.  A future
    v1 -> v2 shim would live next to this one.
    """
    upgraded = dict(record)
    upgraded["schema_version"] = SCHEMA_VERSION
    return upgraded


def from_record(record: Mapping[str, Any], strict: bool = False) -> EventBase:
    """Decode one JSONL record into its typed event.

    Non-strict (the default) is the *reader* posture: v0 records are
    upgraded, unknown event names become :class:`GenericEvent`, and
    unknown fields ride in ``extra``.  Strict is the *producer-audit*
    posture used by CI: anything the schema does not name is an
    :class:`EventSchemaError`.
    """
    if not isinstance(record, Mapping):
        raise EventSchemaError(f"event record must be an object, got {type(record).__name__}")
    body = dict(record)
    for frame_field in FRAME_FIELDS:
        body.pop(frame_field, None)
    name = body.pop("event", None)
    if not isinstance(name, str) or not name:
        raise EventSchemaError("record has no 'event' discriminator")
    if "schema_version" not in body:
        if strict:
            raise EventSchemaError(f"{name}: record carries no schema_version")
        body = upgrade_v0(body)
    version = body.get("schema_version")
    if version not in SUPPORTED_VERSIONS:
        raise EventSchemaError(f"{name}: unsupported schema_version {version!r}")
    cls = _REGISTRY.get(name)
    if cls is None:
        if strict:
            raise EventSchemaError(f"unknown event {name!r}")
        ts = body.pop("ts", 0.0)
        version = body.pop("schema_version")
        return GenericEvent(event=name, ts=ts, schema_version=version, data=body)
    known = {spec.name for spec in dataclasses.fields(cls)} - {"extra"}
    fields = {key: value for key, value in body.items() if key in known}
    extra = {key: value for key, value in body.items() if key not in known}
    if strict and extra:
        raise EventSchemaError(f"{name}: unknown fields {sorted(extra)}")
    try:
        return cls(extra=extra, **fields)
    except TypeError as error:
        raise EventSchemaError(f"{name}: {error}") from None


def from_json(line: str, strict: bool = False) -> EventBase:
    """Decode one JSONL line (see :func:`from_record`)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise EventSchemaError(f"not valid JSON: {error}") from None
    return from_record(record, strict=strict)


def validate_record(record: Any) -> List[str]:
    """Audit one record against the v1 schema; returns the problems.

    This is the CI gate over emitted streams: the record must name a
    known event, carry a supported ``schema_version`` explicitly, supply
    every required field, and introduce no fields the schema does not
    declare.  An empty list means the record conforms.
    """
    if not isinstance(record, Mapping):
        return [f"record must be an object, got {type(record).__name__}"]
    record = {k: v for k, v in record.items() if k not in FRAME_FIELDS}
    name = record.get("event")
    if not isinstance(name, str) or not name:
        return ["record has no 'event' discriminator"]
    problems: List[str] = []
    cls = _REGISTRY.get(name)
    if cls is None:
        return [f"unknown event {name!r}"]
    version = record.get("schema_version")
    if version is None:
        problems.append(f"{name}: missing schema_version")
    elif version != SCHEMA_VERSION:
        problems.append(f"{name}: schema_version {version!r} != {SCHEMA_VERSION}")
    specs = [s for s in dataclasses.fields(cls) if s.name != "extra"]
    known = {s.name for s in specs}
    for spec in specs:
        required = (
            spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING  # type: ignore[misc]
        )
        if required and spec.name not in record:
            problems.append(f"{name}: missing required field {spec.name!r}")
    unknown = sorted(set(record) - known - {"event"})
    if unknown:
        problems.append(f"{name}: unknown fields {unknown}")
    return problems


def validate_jsonl(path: Path) -> List[str]:
    """Validate every line of a JSONL event stream; returns all
    problems, each prefixed with its 1-based line number."""
    problems: List[str] = []
    try:
        text = Path(path).read_text()
    except OSError as error:
        return [f"cannot read {path}: {error}"]
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"line {lineno}: not valid JSON: {error}")
            continue
        for problem in validate_record(record):
            problems.append(f"line {lineno}: {problem}")
    return problems


def read_events(path: Path, strict: bool = False) -> List[EventBase]:
    """Load a JSONL event stream into typed events, skipping torn lines
    (non-strict) the way the telemetry reader always has."""
    events: List[EventBase] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return events
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(from_json(line, strict=strict))
        except EventSchemaError:
            if strict:
                raise
            continue
    return events
