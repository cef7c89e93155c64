"""Structured telemetry for batch runs.

Every notable moment in a batch — submission, per-attempt start/finish,
retries, pool degradation — is one JSON object on one line of the trace
file (JSONL), so a run can be tailed live, replayed later, and asserted
on in tests.  The same events feed an in-memory aggregator whose summary
(jobs, points synthesized, point-memo hit/miss totals, wall time per phase)
renders as a :class:`repro.report.Table` next to the paper's own tables.

Event vocabulary:

===================  ========================================================
``batch_start``      manifest size, worker count
``job_start``        one attempt begins (``attempt`` counts from 1)
``job_finish``       attempt succeeded; carries cycles/space/points/
                     point-memo counters and per-phase wall seconds
``job_retry``        attempt failed but the job will be retried (``reason``,
                     plus the typed ``kind``/``transient`` classification)
``job_failed``       the job is terminally failed (attempts exhausted, or a
                     permanent typed failure that retrying cannot fix)
``job_resumed``      a resumed run adopted this job's terminal result from
                     the ledger without re-executing it
``pool_unavailable`` process pool could not start; degraded to serial
``batch_finish``     aggregate summary (also returned by :meth:`summary`)
===================  ========================================================
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro import faults
from repro.obs import current_registry
from repro.obs.events import SCHEMA_VERSION
from repro.report import batch_summary_table


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured event: a name, a wall-clock stamp, and payload.

    Serialized records carry the versioned-event contract of
    :mod:`repro.obs.events`: every line stamps ``schema_version`` and
    round-trips through :func:`repro.obs.events.from_record`.
    """

    event: str
    timestamp: float
    job_id: Optional[str] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "event": self.event,
            "ts": self.timestamp,
            "schema_version": SCHEMA_VERSION,
        }
        if self.job_id is not None:
            record["job_id"] = self.job_id
        record.update(self.data)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TelemetryEvent":
        data = {
            key: value for key, value in record.items()
            if key not in ("event", "ts", "job_id", "schema_version")
        }
        return cls(
            event=record["event"],
            timestamp=record.get("ts", 0.0),
            job_id=record.get("job_id"),
            data=data,
        )


class Telemetry:
    """Collects events in memory and streams them to a JSONL file.

    The writer appends and flushes per event so a crashed run still
    leaves a readable prefix; pass ``path=None`` for in-memory only,
    and ``mode="a"`` to extend an earlier run's trace (resumed batches).

    Telemetry is observability, never a point of failure: an event that
    cannot be serialized or written (disk full, closed stream, injected
    fault) is *dropped and counted* on :attr:`dropped` — the in-memory
    record survives either way, and the batch summary surfaces the
    count so silent trace gaps cannot masquerade as a quiet run.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        clock=time.time,
        mode: str = "w",
    ):
        self.path = Path(path) if path is not None else None
        self.events: List[TelemetryEvent] = []
        self.dropped = 0
        self._clock = clock
        self._stream = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, mode)

    def emit(self, event: str, job_id: Optional[str] = None, **data: Any) -> TelemetryEvent:
        """Record one event (and write it through immediately)."""
        record = TelemetryEvent(
            event=event, timestamp=self._clock(), job_id=job_id, data=data,
        )
        self.events.append(record)
        if self._stream is not None:
            try:
                line = json.dumps(record.as_dict())
            except (TypeError, ValueError):
                self.dropped += 1  # unserializable payload
                current_registry().counter("telemetry.dropped").inc()
                return record
            try:
                faults.check("telemetry_write")
                self._stream.write(line + "\n")
                self._stream.flush()
            except (OSError, ValueError):
                self.dropped += 1  # write failed; keep the batch alive
                current_registry().counter("telemetry.dropped").inc()
        return record

    def close(self) -> None:
        """Flush and close the trace file (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def summary(self) -> Dict[str, Any]:
        """Aggregate counters over everything emitted so far."""
        return summarize_events(self.events)

    def summary_table(self):
        """The aggregate rendered as a :class:`repro.report.Table`."""
        return batch_summary_table(self.summary())


def read_trace(path: Path) -> List[TelemetryEvent]:
    """Load a JSONL trace back into events (tolerates a truncated tail,
    which a killed run legitimately produces)."""
    events: List[TelemetryEvent] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TelemetryEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError):
            continue
    return events


def summarize_events(events: List[TelemetryEvent]) -> Dict[str, Any]:
    """Roll a batch's events up into the metrics the summary table shows.

    ``cache_hits``/``cache_misses`` sum the per-job point-memo counters
    each worker reports, so the trace totals equal the memo totals by
    construction — the invariant the integration tests pin down.
    """
    summary: Dict[str, Any] = {
        "jobs": 0, "succeeded": 0, "failed": 0, "retries": 0, "attempts": 0,
        "points_synthesized": 0, "cache_hits": 0, "cache_misses": 0,
        "wall_seconds": 0.0, "serial_fallbacks": 0, "resumed": 0,
        "estimator_retries": 0, "deadline_hits": 0,
        "infeasible_points": 0, "baselines_degraded": 0,
    }
    phases: Dict[str, float] = {}
    started = set()
    resumed = set()
    for event in events:
        if event.event == "job_start":
            summary["attempts"] += 1
            if event.job_id not in started:
                started.add(event.job_id)
                summary["jobs"] += 1
        elif event.event == "job_finish":
            summary["succeeded"] += 1
            summary["points_synthesized"] += event.data.get("points_searched", 0)
            summary["cache_hits"] += event.data.get("cache_hits", 0)
            summary["cache_misses"] += event.data.get("cache_misses", 0)
            summary["wall_seconds"] += event.data.get("wall_seconds", 0.0)
            summary["estimator_retries"] += (
                event.data.get("estimator_retries") or 0
            )
            summary["deadline_hits"] += event.data.get("deadline_hits") or 0
            summary["infeasible_points"] += (
                event.data.get("infeasible_count") or 0
            )
            if event.data.get("baseline_degraded"):
                summary["baselines_degraded"] += 1
            for phase, seconds in event.data.get("phase_seconds", {}).items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        elif event.event == "job_retry":
            summary["retries"] += 1
        elif event.event == "job_failed":
            summary["failed"] += 1
        elif event.event == "job_resumed":
            # A combined trace (append-mode resume) can hold both the
            # original terminal event and the adoption record; count the
            # job itself only once.
            if event.job_id in resumed:
                continue
            resumed.add(event.job_id)
            summary["resumed"] += 1
            if event.job_id not in started:
                summary["jobs"] += 1
                if event.data.get("status") == "ok":
                    summary["succeeded"] += 1
                else:
                    summary["failed"] += 1
        elif event.event == "pool_unavailable":
            summary["serial_fallbacks"] += 1
    summary["phase_seconds"] = phases
    return summary
