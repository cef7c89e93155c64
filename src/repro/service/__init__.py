"""Batch exploration service: many explorations, one managed run.

The paper's insight is that synthesis estimation is the scarce resource;
this subsystem treats design space exploration as a service over many
concurrent evaluations.  A JSON *manifest* of jobs (program x board x
options) fans out across a ``concurrent.futures`` process pool, workers
pool their synthesis estimates through one crash-safe memo journal, and
every scheduling decision lands in a structured JSONL trace:

    manifest -> queue -> workers -> shared memo journal
                   \\-> telemetry (JSONL + summary table)
                   \\-> run ledger (journal; --resume replays it)

Entry points: the :class:`BatchRunner` engine (or :func:`run_batch`
convenience wrapper) from Python, and ``python -m repro batch
manifest.json --jobs N --run-dir runs/exp1`` from the shell (then
``repro batch --resume runs/exp1`` after any crash).  The engine
guarantees determinism — parallelism, memo sharing, and kill/resume
change wall time and memo counters, never which designs are selected.

Robustness stack (each layer independent, all typed through
:mod:`repro.errors`):

* :mod:`~repro.service.ledger` — fsync'd JSONL journal; resume adopts
  completed jobs and re-runs only what was in flight.
* :mod:`~repro.service.guard` — per-call estimator deadline, bounded
  backoff on transient faults, corrupt-estimate validation.
* :mod:`~repro.service.telemetry` — write failures degrade to counted
  drops, never abort the batch.
"""

from repro.service.jobs import (
    BatchManifest, JobConfig, JobSpec, load_manifest, parse_manifest,
)
from repro.service.guard import EstimationGuard, GuardPolicy, validate_estimate
from repro.service.ledger import (
    LedgerState, RunLedger, manifest_document, manifest_fingerprint, replay,
    spec_hash,
)
from repro.service.runner import (
    BatchResult, BatchRunner, JobFailure, JobResult, run_batch,
)
from repro.service.telemetry import (
    Telemetry, TelemetryEvent, read_trace, summarize_events,
)
from repro.service.worker import execute_job

__all__ = [
    "BatchManifest", "BatchResult", "BatchRunner", "EstimationGuard",
    "GuardPolicy", "JobConfig", "JobFailure", "JobResult", "JobSpec",
    "LedgerState", "RunLedger", "Telemetry",
    "TelemetryEvent", "execute_job", "load_manifest", "manifest_document",
    "manifest_fingerprint", "parse_manifest", "read_trace", "replay",
    "run_batch", "spec_hash", "summarize_events", "validate_estimate",
]
