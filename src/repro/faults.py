"""Deterministic fault injection for the batch service's chaos tests.

The batch engine claims to survive a flaky estimation backend, crashing
workers, and failing writes.  This module makes those failure modes
*injectable on demand* so the claims are exercised by tests instead of
by hand: a JSON *fault spec* names sites in the pipeline and what should
go wrong there, and instrumented code consults :func:`check` /
:func:`mangle` at each site.  With no spec active both are no-ops (one
``is None`` test), so production paths pay nothing.

A spec looks like::

    {
      "seed": 1234,
      "faults": [
        {"site": "estimator", "mode": "transient", "jobs": ["fir"],
         "max_hits": 1},
        {"site": "estimator", "mode": "hang", "seconds": 30.0},
        {"site": "estimate", "mode": "corrupt"},
        {"site": "worker", "mode": "kill"},
        {"site": "telemetry_write", "mode": "io_error", "p": 0.5},
        {"site": "ledger_write", "mode": "io_error"}
      ]
    }

Sites instrumented across the service (the taxonomy the chaos suite
asserts over):

==================  =========================================================
``worker``          entry of :func:`repro.service.worker.execute_job`
``transform``       entry of :func:`repro.transform.pipeline.compile_design`
                    (key = the program name, so ``jobs`` restricts by
                    kernel; pair with ``max_hits`` to poison only some
                    design points)
``estimator``       inside the guard, around each backend ``synthesize`` call
``estimate``        the returned estimate value (``mangle`` site)
``telemetry_write`` each JSONL trace append
``ledger_write``    each run-ledger append
``server``          the exploration server's dispatch loop, once per
                    claimed job before it is handed to a worker (key =
                    the job id); ``kill`` here murders the server
                    mid-queue to exercise restart-resume
``heartbeat``       inside a fleet worker's lease-renewal loop (key =
                    the worker id); a ``raise`` silently skips beats
                    until the lease lapses — lease starvation without
                    killing the process
``worker_kill``     entry of :func:`repro.server.fleet.execute_shard`
                    (key = the shard id); ``kill`` with ``max_hits: 1``
                    murders a fleet worker mid-shard exactly once, the
                    rehomed retry runs clean
``rehome``          in the fleet coordinator just before an orphaned
                    shard is requeued (key = the shard id); a ``raise``
                    defers the rehoming to the next lease sweep instead
                    of losing the shard
``disk_full``       before every durable-journal append (key = the
                    journal prefix: ``jobs``, ``ledger``, or ``memo``); an
                    ``io_error`` rule turns the append into ENOSPC,
                    which the job store degrades into read-only mode
``journal_bitflip`` the serialized journal line (``mangle`` site, key =
                    the journal prefix); a ``bitflip`` rule flips one
                    deterministic bit — the record lands on disk but
                    fails its CRC on replay
``journal_torn``    the serialized journal line (``mangle`` site, key =
                    the journal prefix); a ``corrupt`` rule truncates
                    the line mid-record and the journal suppresses the
                    newline — a crash mid-append, on demand
==================  =========================================================

Modes: ``transient`` raises :class:`~repro.errors.TransientError`,
``raise`` raises :class:`~repro.errors.EstimationError`, ``io_error``
raises ``OSError(ENOSPC)``, ``hang`` sleeps ``seconds`` (pair it with a
call deadline or a job timeout), ``kill`` hard-exits the process the way
a segfault would, and ``corrupt`` (``mangle`` sites only) returns a
structurally invalid variant of the value.  ``bitflip`` (``mangle``
sites only) flips one deterministic bit of a string value — the
single-event upset a checksum exists to catch.  ``transform_error`` raises a
:class:`~repro.errors.TransformError` with an ``injected`` stage tag —
the chaos suite uses it at the ``transform`` site to poison individual
design points and assert the fail-soft search degrades instead of dying.

Determinism: whether a rule fires is a pure function of ``(seed, site,
key, nth consultation of that rule in this process)`` — no wall clock,
no global RNG — so a chaos run replays identically under a fixed seed.
``max_hits`` additionally bounds total firings *across processes*
through lock-free claim files in a state directory (atomic
``O_CREAT|O_EXCL``), which is what lets "fail exactly once, then
recover" scenarios span pool workers.

Activation: set the ``REPRO_FAULTS`` environment variable to the spec's
path (inherited by pool workers), or pass the path through the batch
runner's ``fault_spec`` (carried in each job payload's ``runtime``).
The CLI's ``--fault-spec`` does both.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import EstimationError, ServiceError, TransientError
from repro.obs.metrics import current_registry

#: Environment variable naming the active fault-spec file.
ENV_SPEC = "REPRO_FAULTS"

_MODES = (
    "transient", "raise", "io_error", "hang", "kill", "corrupt",
    "transform_error", "bitflip",
)

#: Modes that act on values (:func:`mangle`), not control flow
#: (:func:`check`).
_MANGLE_MODES = ("corrupt", "bitflip")
_RULE_KEYS = {"site", "mode", "p", "max_hits", "jobs", "seconds", "message"}


@dataclass(frozen=True)
class FaultRule:
    """One thing that goes wrong at one site."""

    site: str
    mode: str
    p: float = 1.0                 # firing probability per consultation
    max_hits: Optional[int] = None  # total firings across all processes
    jobs: Tuple[str, ...] = ()     # restrict to these job ids (empty = all)
    seconds: float = 30.0          # hang duration
    message: str = ""

    def matches(self, site: str, key: Optional[str]) -> bool:
        if site != self.site:
            return False
        return not self.jobs or (key is not None and key in self.jobs)


@dataclass
class FaultInjector:
    """Evaluates a spec's rules at instrumented sites."""

    seed: int
    rules: List[FaultRule]
    state_dir: Optional[Path] = None
    #: per-rule consultation counters (process-local; part of the
    #: deterministic firing function, not of cross-process accounting).
    #: Also holds ("hits", index) slots when no state_dir is set.
    _calls: Dict[Any, int] = field(default_factory=dict)

    # -- rule evaluation ------------------------------------------------------

    def _fires(self, index: int, rule: FaultRule, key: Optional[str]) -> bool:
        nth = self._calls.get(index, 0)
        self._calls[index] = nth + 1
        if rule.p < 1.0:
            digest = hashlib.sha256(
                f"{self.seed}:{rule.site}:{key}:{nth}".encode()
            ).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            if draw >= rule.p:
                return False
        if rule.max_hits is not None and not self._claim_hit(index, rule):
            return False
        return True

    def _claim_hit(self, index: int, rule: FaultRule) -> bool:
        """Claim one of the rule's ``max_hits`` firing slots atomically.

        Without a state directory the count is process-local.
        """
        if self.state_dir is None:
            used = self._calls.setdefault(("hits", index), 0)
            if used >= rule.max_hits:
                return False
            self._calls[("hits", index)] = used + 1
            return True
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for slot in range(rule.max_hits):
            claim = self.state_dir / f"rule{index}.hit{slot}"
            try:
                fd = os.open(str(claim), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    # -- instrumented-site API ------------------------------------------------

    def check(self, site: str, key: Optional[str] = None) -> None:
        """Consult every matching rule; the first firing one acts."""
        for index, rule in enumerate(self.rules):
            if not rule.matches(site, key) or rule.mode in _MANGLE_MODES:
                continue
            if not self._fires(index, rule, key):
                continue
            current_registry().counter(
                "faults.hits", site=site, mode=rule.mode
            ).inc()
            message = rule.message or (
                f"injected {rule.mode} at {site}" + (f" ({key})" if key else "")
            )
            if rule.mode == "transient":
                raise TransientError(message)
            if rule.mode == "raise":
                raise EstimationError(message)
            if rule.mode == "transform_error":
                from repro.errors import TransformError
                raise TransformError(
                    message, stage="injected", kernel=key,
                )
            if rule.mode == "io_error":
                raise OSError(errno.ENOSPC, message)
            if rule.mode == "hang":
                time.sleep(rule.seconds)
                return
            if rule.mode == "kill":
                os._exit(13)

    def mangle(self, site: str, value: Any, key: Optional[str] = None) -> Any:
        """Pass ``value`` through matching ``corrupt``/``bitflip`` rules."""
        for index, rule in enumerate(self.rules):
            if rule.mode not in _MANGLE_MODES or not rule.matches(site, key):
                continue
            if self._fires(index, rule, key):
                current_registry().counter(
                    "faults.hits", site=site, mode=rule.mode
                ).inc()
                if rule.mode == "bitflip":
                    return _bitflip(value, self.seed, site, key)
                return _corrupt(value)
        return value


def _bitflip(value: Any, seed: int, site: str, key: Optional[str]) -> Any:
    """Flip one deterministic bit of a string value.

    Which byte and which bit are a pure function of ``(seed, site, key,
    value)``, so a chaos run corrupts the same record the same way on
    every replay — the determinism contract the rest of the injector
    keeps.  Non-strings pass through the generic corruptor.
    """
    if not isinstance(value, str) or not value:
        return _corrupt(value)
    data = bytearray(value.encode("utf-8"))
    digest = hashlib.sha256(
        f"{seed}:{site}:{key}:{value}".encode("utf-8", "replace")
    ).digest()
    position = int.from_bytes(digest[:4], "big") % len(data)
    data[position] ^= 1 << (digest[4] % 8)
    return bytes(data).decode("utf-8", "replace")


def _corrupt(value: Any) -> Any:
    """A structurally invalid variant of an estimator product."""
    import dataclasses
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, cycles=-1)
    if isinstance(value, str):
        return value[: max(1, len(value) // 2)]
    return None


# -- spec loading and the active injector -------------------------------------

def parse_spec(raw: Any, state_dir: Optional[Path] = None) -> FaultInjector:
    """Validate a decoded spec into an injector."""
    if not isinstance(raw, dict):
        raise ServiceError("fault spec must be a JSON object")
    unknown = set(raw) - {"seed", "faults", "state_dir"}
    if unknown:
        raise ServiceError(f"fault spec: unknown keys {sorted(unknown)}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ServiceError("fault spec: seed must be an integer")
    entries = raw.get("faults", [])
    if not isinstance(entries, list):
        raise ServiceError("fault spec: 'faults' must be a list")
    rules = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ServiceError(f"fault {position} must be an object")
        unknown = set(entry) - _RULE_KEYS
        if unknown:
            raise ServiceError(
                f"fault {position}: unknown keys {sorted(unknown)}"
            )
        mode = entry.get("mode")
        if mode not in _MODES:
            raise ServiceError(
                f"fault {position}: mode must be one of {_MODES}"
            )
        site = entry.get("site")
        if not isinstance(site, str) or not site:
            raise ServiceError(f"fault {position}: needs a 'site' string")
        rules.append(FaultRule(
            site=site,
            mode=mode,
            p=float(entry.get("p", 1.0)),
            max_hits=entry.get("max_hits"),
            jobs=tuple(entry.get("jobs", ())),
            seconds=float(entry.get("seconds", 30.0)),
            message=entry.get("message", ""),
        ))
    if state_dir is None and raw.get("state_dir"):
        state_dir = Path(raw["state_dir"])
    return FaultInjector(seed=seed, rules=rules, state_dir=state_dir)


def load_spec(path: Path) -> FaultInjector:
    """Load a spec file; its state directory defaults to ``<path>.state``
    so cross-process hit accounting works without configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as error:
        raise ServiceError(f"cannot read fault spec {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ServiceError(
            f"fault spec {path} is not valid JSON: {error}"
        ) from None
    injector = parse_spec(raw)
    if injector.state_dir is None:
        injector.state_dir = path.with_suffix(path.suffix + ".state")
    return injector


_active: Optional[FaultInjector] = None
_active_source: Optional[str] = None


def activate(spec_path: Optional[str] = None) -> Optional[FaultInjector]:
    """Install the process-wide injector from ``spec_path`` or the
    ``REPRO_FAULTS`` environment variable; returns it (or ``None``).

    Idempotent per path: re-activating the same file keeps the existing
    injector and its counters.
    """
    global _active, _active_source
    source = spec_path or os.environ.get(ENV_SPEC)
    if not source:
        return _active
    if _active is not None and _active_source == str(source):
        return _active
    _active = load_spec(Path(source))
    _active_source = str(source)
    return _active


def deactivate() -> None:
    """Drop the process-wide injector (tests)."""
    global _active, _active_source
    _active = None
    _active_source = None


def check(site: str, key: Optional[str] = None) -> None:
    """No-op unless an injector is active."""
    if _active is not None:
        _active.check(site, key)


def mangle(site: str, value: Any, key: Optional[str] = None) -> Any:
    """Identity unless an injector is active."""
    if _active is not None:
        return _active.mangle(site, value, key)
    return value
