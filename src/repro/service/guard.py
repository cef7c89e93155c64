"""Deadline and backoff discipline around estimator calls.

The paper's estimation backend stands in for Monet behavioral synthesis
— in a real deployment a slow, flaky external tool.  The worker
therefore never calls ``synthesize`` bare; every call goes through an
:class:`EstimationGuard` that adds three behaviours:

* **Per-call deadline** (``call_deadline_s``): one estimator call that
  hangs must not eat the whole job's ``timeout_s`` budget.  The call
  runs on a reaper thread; past the deadline the guard raises
  :class:`~repro.errors.DeadlineExceeded` (transient) and moves on —
  the abandoned thread is a daemon, and the worker process is recycled
  after the job anyway.
* **Bounded retries with exponential backoff + jitter**: transient
  faults (:class:`~repro.errors.TransientError`, which includes
  deadline overruns) are retried up to ``max_retries`` times, sleeping
  ``base * 2^(attempt-1)`` capped at ``backoff_max_s``, with seeded
  jitter so a fleet of workers retrying the same sick backend does not
  stampede in phase.  Backoff changes wall time only, never results.
* **Validation**: the returned estimate is structurally checked before
  it can reach the search or the memo; garbage (negative cycles, NaN
  balance) raises :class:`~repro.errors.CorruptEstimate` — a permanent,
  typed failure instead of a wrong design selection.

The guard rides :attr:`ExploreConfig.guard <repro.dse.ExploreConfig>`
into :meth:`repro.dse.space.DesignSpace.estimate`, the one place a
backend is called, so point-memo hits pay nothing and navigation,
confirmation, and differential re-estimates share one code path.
Fault-injection sites ``estimator`` (before the call, inside the
deadline window) and ``estimate`` (the returned value) live here.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import faults
from repro.errors import CorruptEstimate, DeadlineExceeded, TransientError
from repro.obs import current_registry, current_tracer
from repro.synthesis.estimator import Estimate


@dataclass(frozen=True)
class GuardPolicy:
    """How one worker treats its estimation backend."""

    call_deadline_s: Optional[float] = None  # None: no per-call bound
    max_retries: int = 3                     # transient retries per call
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter_frac: float = 0.25                # up to +25% of the backoff


class EstimationGuard:
    """Applies a :class:`GuardPolicy` to estimator calls.

    Counters (``retries``, ``deadline_hits``) are reported in the job
    payload so chaos runs can assert how much grief the backend gave.
    ``key`` (the worker passes its job id) is the default fault-site
    key and ``estimate.call`` span attribute for every call.
    """

    def __init__(
        self,
        policy: Optional[GuardPolicy] = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        key: Optional[str] = None,
    ):
        self.policy = policy or GuardPolicy()
        self.key = key
        self.retries = 0
        self.deadline_hits = 0
        self._rng = random.Random(seed)
        self._sleep = sleep

    def call(self, fn: Callable[..., Estimate], *args: Any,
             key: Optional[str] = None,
             backend: Optional[str] = None) -> Estimate:
        """Run one estimator call under deadline/retry/validation.

        Each call records an ``estimate.call`` span (with the attempt
        count it took and the ``backend`` that answered, when known) and
        a latency observation on the ``estimate.call_seconds``
        histogram; retries and deadline overruns increment the
        ``estimator.retries`` / ``estimator.deadline_hits`` counters as
        they happen.
        """
        key = key if key is not None else self.key
        registry = current_registry()
        started = time.monotonic()
        with current_tracer().span(
            "estimate.call", key=key, backend=backend
        ) as span:
            attempt = 0
            try:
                while True:
                    try:
                        estimate = self._bounded(fn, args, key)
                        estimate = faults.mangle("estimate", estimate, key=key)
                        validate_estimate(estimate)
                        span.set_attribute("attempts", attempt + 1)
                        return estimate
                    except TransientError:
                        attempt += 1
                        self.retries += 1
                        registry.counter("estimator.retries").inc()
                        if attempt > self.policy.max_retries:
                            span.set_attribute("attempts", attempt)
                            raise
                        self._sleep(self._backoff_s(attempt))
            finally:
                registry.histogram("estimate.call_seconds").observe(
                    time.monotonic() - started
                )

    def _bounded(self, fn, args, key):
        """The call itself, under the per-call deadline when one is set."""
        def body():
            faults.check("estimator", key=key)
            return fn(*args)

        if self.policy.call_deadline_s is None:
            return body()
        box = []

        def run():
            try:
                box.append((True, body()))
            except BaseException as error:  # noqa: BLE001 - re-raised below
                box.append((False, error))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(self.policy.call_deadline_s)
        if thread.is_alive():
            self.deadline_hits += 1
            current_registry().counter("estimator.deadline_hits").inc()
            raise DeadlineExceeded(
                f"estimator call exceeded its "
                f"{self.policy.call_deadline_s:.1f}s deadline"
            )
        ok, value = box[0]
        if not ok:
            raise value
        return value

    def _backoff_s(self, attempt: int) -> float:
        base = min(
            self.policy.backoff_max_s,
            self.policy.backoff_base_s * (2 ** (attempt - 1)),
        )
        return base * (1.0 + self.policy.jitter_frac * self._rng.random())


def validate_estimate(estimate: Any) -> Estimate:
    """Reject structurally invalid estimator output with a typed error."""
    if not isinstance(estimate, Estimate):
        raise CorruptEstimate(
            f"estimator returned {type(estimate).__name__}, not an Estimate"
        )
    if not isinstance(estimate.cycles, int) or estimate.cycles <= 0:
        raise CorruptEstimate(f"estimate has invalid cycles {estimate.cycles!r}")
    if not isinstance(estimate.space, int) or estimate.space < 0:
        raise CorruptEstimate(f"estimate has invalid space {estimate.space!r}")
    for name in ("fetch_rate", "consumption_rate", "balance"):
        value = getattr(estimate, name)
        if not isinstance(value, (int, float)) or math.isnan(value):
            raise CorruptEstimate(f"estimate has invalid {name} {value!r}")
    return estimate
