"""Exception hierarchy shared across the repro packages.

Every user-facing failure raised by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
Subsystem-specific errors refine it: the frontend raises
:class:`FrontendError` subclasses with source locations, analyses raise
:class:`AnalysisError` when a program falls outside the affine domain the
paper supports, and so on.

Failure taxonomy.  Errors that can cross the batch service's process
boundary carry two class attributes the engine keys its behaviour on:

* ``kind`` — a short stable string ("estimation", "deadline", ...) used
  in ledger records and telemetry events, so traces never depend on
  Python class names.
* ``transient`` — whether retrying the *same* operation can plausibly
  succeed.  Transient failures (deadline overruns, injected flakes,
  lock timeouts) are retried with backoff; permanent ones (a parse
  error, a corrupt estimate) fail fast — re-running a deterministic
  computation cannot change its outcome.

Use :func:`failure_kind` / :func:`is_transient` to classify arbitrary
exceptions, including non-repro ones, under one policy.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""

    #: Stable taxonomy tag for ledger/telemetry records.
    kind = "error"
    #: Permanent by default: repro errors describe deterministic facts
    #: about the input (bad program, bad config), which retries cannot fix.
    transient = False


class FrontendError(ReproError):
    """A problem detected while lexing, parsing, or checking source code.

    Carries an optional source location so messages can point at the
    offending token, in the familiar ``line:column`` compiler style.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """An unrecognizable character sequence in the input."""


class ParseError(FrontendError):
    """The token stream does not match the accepted C subset grammar."""


class SemanticError(FrontendError):
    """The program parses but violates a semantic rule.

    Examples: use of an undeclared variable, a non-constant loop bound,
    an array reference with the wrong number of subscripts.
    """


class AnalysisError(ReproError):
    """An analysis cannot handle the program (e.g. non-affine subscripts)."""


class TransformError(ReproError):
    """A transformation was requested with illegal parameters.

    Examples: an unroll factor that is not positive, tiling a loop that
    does not exist in the nest.

    Carries optional structured context so design-space exploration can
    report *which* kernel, loop, and pipeline stage rejected a point
    instead of a bare message: the keyword arguments are exposed as
    attributes (and via :meth:`context`) and folded into the rendered
    message.
    """

    kind = "transform"

    def __init__(
        self,
        message: str,
        *,
        kernel: "str | None" = None,
        loop: "str | None" = None,
        stage: "str | None" = None,
        location: "str | None" = None,
    ):
        self.bare_message = message
        self.kernel = kernel
        self.loop = loop
        self.stage = stage
        #: ``"line:column"`` of the loop in the original source, when the
        #: frontend threaded one through (builder-built programs have none).
        self.location = location
        parts = []
        if kernel:
            parts.append(f"kernel {kernel}")
        if stage:
            parts.append(f"stage {stage}")
        if loop:
            parts.append(f"loop {loop!r}")
        if location:
            parts.append(f"at {location}")
        if parts:
            message = f"{message} [{', '.join(parts)}]"
        super().__init__(message)

    def context(self) -> "dict[str, str]":
        """The non-empty structured fields, for diagnostics records."""
        fields = {
            "kernel": self.kernel, "loop": self.loop,
            "stage": self.stage, "location": self.location,
        }
        return {key: value for key, value in fields.items() if value}

    def annotate(self, **context) -> "TransformError":
        """A copy with *missing* context fields filled in.

        Fields the error already carries win — a deep raise site knows
        its loop better than the pipeline wrapper that catches it.
        Returns ``self`` unchanged when nothing new would be added.
        """
        fields = {
            "kernel": self.kernel, "loop": self.loop,
            "stage": self.stage, "location": self.location,
        }
        changed = False
        for key, value in context.items():
            if key not in fields:
                raise TypeError(f"unknown context field {key!r}")
            if fields[key] is None and value is not None:
                fields[key] = value
                changed = True
        if not changed:
            return self
        return self._rebuild(self.bare_message, fields)

    def _rebuild(self, message: str, fields: dict) -> "TransformError":
        return TransformError(message, **fields)


class VerificationError(TransformError):
    """A program violates an IR invariant (see :mod:`repro.ir.verify`).

    Raised when the post-transform invariant checker finds scoping,
    shape, or well-formedness violations — evidence of a transform bug,
    not of a bad input.  Carries the individual
    :class:`repro.ir.verify.Violation` records on ``violations``.
    """

    kind = "verifier"

    def __init__(self, message: str, *, violations=(), **context):
        self.violations = tuple(violations)
        super().__init__(message, **context)

    def _rebuild(self, message: str, fields: dict) -> "VerificationError":
        return VerificationError(
            message, violations=self.violations, **fields
        )


class LayoutError(ReproError):
    """Custom data layout could not be derived for an array."""


class SynthesisError(ReproError):
    """Behavioral synthesis estimation failed for a design."""

    kind = "synthesis"


class EstimationError(SynthesisError):
    """The estimation backend failed permanently for a design.

    This is the typed terminal state for an estimator call that raised,
    or returned something unusable, in a way retrying cannot fix.
    """

    kind = "estimation"


class CorruptEstimate(EstimationError):
    """The estimation backend returned a structurally invalid estimate.

    Example: negative cycles or NaN balance from a faulty (or
    fault-injected) backend.  Detected by the guard's validation before
    the value can reach the search or be cached.
    """

    kind = "corrupt_estimate"


class CapacityError(SynthesisError):
    """A design exceeds the capacity of the target FPGA.

    The DSE algorithm treats this as a signal to shrink the unroll
    factors, mirroring the space-constrained branch of Figure 2.
    """


class SearchError(ReproError):
    """The design space exploration was configured inconsistently."""

    kind = "search"


class PointFailureBudgetExceeded(SearchError):
    """Too many design points failed; the search gave up on the nest.

    The fail-soft search tolerates per-point failures (illegal jams,
    estimation errors, verifier violations) up to a configurable budget
    — past it the nest is considered hopeless and the whole exploration
    fails with this typed error.  The message summarizes the failure
    kinds seen so the terminal record still names the underlying cause.
    """

    kind = "failure_budget"


class NoFeasiblePoint(SearchError):
    """Every design point the search visited failed.

    The fail-soft search finished its walk without a single successful
    evaluation to select, so there is nothing to degrade to.  Like
    :class:`PointFailureBudgetExceeded`, the message carries the
    dominant underlying failure kinds.
    """

    kind = "no_feasible_point"


class FuzzError(ReproError):
    """The differential fuzzer found a real disagreement.

    Raised (or recorded, in batch fuzz runs) when a generated program
    fails round-trip identity, an invariant check, or interpreter
    equivalence after a transform — each a genuine pipeline bug, never
    an artifact of the generator.
    """

    kind = "fuzz"


class ServiceError(ReproError):
    """The batch exploration service was misconfigured.

    Examples: a job manifest that fails validation, an unknown board
    name in a job entry, a manifest file that is not valid JSON.
    """

    kind = "service"


class ServerError(ServiceError):
    """The exploration server was misused or is in a bad state.

    Examples: a job submission that fails validation, an unknown job id,
    a state directory whose journal cannot be appended to.  Admission
    rejections (full queue, draining server) are *not* errors — they are
    HTTP responses — so they never raise this.
    """

    kind = "server"


class LedgerError(ServiceError):
    """The run ledger is unusable or inconsistent with its manifest.

    Raised when resuming a run directory whose manifest no longer
    matches the fingerprints the ledger recorded — resuming would mix
    results from two different batches, so the engine refuses.
    """

    kind = "ledger"


class JournalError(ServiceError):
    """A durable journal cannot be inspected or repaired.

    Raised by the ``repro fsck`` toolkit for directories that hold no
    recognizable journal, or repairs that cannot be applied.  Damage
    *inside* a journal is never an exception — replay quarantines and
    continues, and fsck reports it — this class covers only the cases
    where there is nothing coherent to operate on.
    """

    kind = "journal"


class TransientError(ReproError):
    """A retryable fault: the same operation may succeed if repeated.

    The estimation guard retries these with exponential backoff, and
    the batch engine re-enqueues jobs that ultimately fail with one.
    """

    kind = "transient"
    transient = True


class DeadlineExceeded(TransientError):
    """An estimator call overran its per-call deadline.

    Distinct from a job's ``timeout_s``: the deadline bounds one
    ``synthesize`` call inside a worker, the timeout bounds the whole
    job from the coordinator's side.
    """

    kind = "deadline"


class CacheLockTimeout(ReproError, TimeoutError):
    """A shared journal's file lock could not be acquired in time.

    A live-but-hung peer can hold the flock indefinitely; rather than
    blocking the worker forever, acquisition times out with this typed
    error.  Transient: the peer may recover or be reclaimed.  Inherits
    ``TimeoutError`` so callers treating it generically keep working.
    """

    kind = "cache_lock_timeout"
    transient = True


def failure_kind(error: BaseException) -> str:
    """The taxonomy tag for any exception (repro-typed or foreign)."""
    kind = getattr(error, "kind", None)
    if isinstance(kind, str) and kind:
        return kind
    return "exception"


def is_transient(error: BaseException) -> bool:
    """Whether retrying the failed operation can plausibly succeed.

    Repro errors declare themselves via ``transient``; ``OSError`` (I/O
    flakes, ENOSPC that may clear) and foreign exceptions default to
    transient — the engine has no evidence they are deterministic, and
    bounded retries of a deterministic failure only cost attempts.
    """
    transient = getattr(error, "transient", None)
    if isinstance(transient, bool):
        return transient
    return True
