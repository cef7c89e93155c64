"""The analysis memo store: cross-point reuse for design evaluation.

``MemoStore`` holds everything the incremental layer has already
computed, keyed on the content hashes of :mod:`repro.incremental.
hashing`.  Four domains, each valid across points, runs, and workers
because the key covers every input:

=============  =============================================================
``point``      one design point's finished estimate (the whole
               compile + synthesize pipeline skipped on a hit)
``legality``   which nest depths unroll-and-jam may legally touch —
               dependence analysis is factor-independent, so one graph
               build serves every point of a walk
``verify``     IR invariant checks already passed, keyed on
               ``(stage, affine, program-hash)`` — a stage output seen
               before cannot fail a second time
``schedule``   one region's ASAP schedule (the structural-delta unit:
               regions shared between neighboring unroll points hit
               here and are not rebuilt)
=============  =============================================================

The store is consulted through the **ambient memo** — a module global
installed with :func:`use_memo`, mirroring ``repro.obs``'s ambient
tracer — so the pipeline and estimator pick up incrementality without
threading a parameter through every signature.  ``current_memo()``
returns ``None`` when incremental evaluation is off, and every hook
site degrades to the from-scratch path.

**Equivalence contract.**  A memo hit must be indistinguishable from
recomputation: keys cover all inputs, the memoized computations are
deterministic, and values round-trip through the JSON codecs below
(:func:`encode_estimate`, :func:`encode_schedule`).  The property suite
(``tests/property/test_prop_incremental.py``) pins estimates and
selections bit-identical for every kernel x strategy combination.

**Counters.**  ``incremental.memo.{hits,misses,invalidations}``,
``incremental.memo.replays{mode="full"|"catch_up"}`` and
``incremental.delta.reused_regions`` are registered at zero on
construction (and by :meth:`MemoStore.reset_tallies`, when a resident
store starts another job) so ``/metrics`` always exposes them;
per-domain series (``incremental.memo.hits{domain=...}``) ride
alongside.  The point domain's own tallies (:attr:`MemoStore.point_hits`
/ :attr:`MemoStore.point_misses`) are what job payloads report as
``cache_hits`` / ``cache_misses``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.obs import current_registry

#: journal record vocabulary (see :mod:`repro.incremental.journal`).
MEMO_DOMAINS = ("point", "legality", "verify", "schedule")


def encode_estimate(estimate) -> dict:
    """A :class:`~repro.synthesis.estimator.Estimate` as plain JSON-able
    primitives (the ``point`` domain's value format)."""
    record = {
        "cycles": estimate.cycles,
        "space": estimate.space,
        "area": estimate.area.as_dict(),
        "fetch_rate": estimate.fetch_rate,
        "consumption_rate": estimate.consumption_rate,
        "balance": estimate.balance,
        "operator_demand": [
            [kind, width, count]
            for (kind, width), count in sorted(estimate.operator_demand.items())
        ],
        "memory_traffic": sorted(estimate.memory_traffic.items()),
        "register_bits": estimate.register_bits,
        "region_count": estimate.region_count,
        "clock_ns": estimate.clock_ns,
    }
    provenance = estimate.provenance
    if provenance is not None and hasattr(provenance, "as_dict"):
        record["provenance"] = provenance.as_dict()
    return record


def decode_estimate(entry: dict):
    """Inverse of :func:`encode_estimate`; raises ``KeyError``/
    ``TypeError``/``ValueError`` on a malformed entry."""
    from repro.estimate.backends import Provenance
    from repro.synthesis.area import AreaBreakdown
    from repro.synthesis.estimator import Estimate
    area = entry["area"]
    provenance = None
    if isinstance(entry.get("provenance"), dict):
        provenance = Provenance.from_dict(entry["provenance"])
    return Estimate(
        cycles=entry["cycles"],
        space=entry["space"],
        area=AreaBreakdown(
            operators=area["operators"],
            registers=area["registers"],
            memory_interface=area["memory_interface"],
            controller=area["controller"],
        ),
        # json writes inf as Infinity, which json.loads reads back as
        # float('inf'); float() also accepts the spelled-out strings.
        fetch_rate=float(entry["fetch_rate"]),
        consumption_rate=float(entry["consumption_rate"]),
        balance=float(entry["balance"]),
        operator_demand={
            (kind, width): count
            for kind, width, count in entry["operator_demand"]
        },
        memory_traffic={int(m): count for m, count in entry["memory_traffic"]},
        register_bits=entry["register_bits"],
        region_count=entry["region_count"],
        clock_ns=entry["clock_ns"],
        provenance=provenance,
    )


def encode_schedule(schedule) -> dict:
    """A :class:`~repro.synthesis.scheduling.RegionSchedule` as plain
    JSON-able primitives (int keys become pairs)."""
    return {
        "length": schedule.length,
        "start_times": sorted(schedule.start_times.items()),
        "finish_times": sorted(schedule.finish_times.items()),
        "memory_only_length": schedule.memory_only_length,
        "compute_only_length": schedule.compute_only_length,
        "memory_bits": schedule.memory_bits,
        "operator_demand": [
            [kind, width, count]
            for (kind, width), count in sorted(schedule.operator_demand.items())
        ],
        "memory_traffic": sorted(schedule.memory_traffic.items()),
    }


def decode_schedule(entry: dict):
    from repro.synthesis.scheduling import RegionSchedule
    return RegionSchedule(
        length=int(entry["length"]),
        start_times={int(k): int(v) for k, v in entry["start_times"]},
        finish_times={int(k): int(v) for k, v in entry["finish_times"]},
        memory_only_length=int(entry["memory_only_length"]),
        compute_only_length=int(entry["compute_only_length"]),
        memory_bits=int(entry["memory_bits"]),
        operator_demand={
            (kind, int(width)): int(count)
            for kind, width, count in entry["operator_demand"]
        },
        memory_traffic={int(m): int(c) for m, c in entry["memory_traffic"]},
    )


class PointStats:
    """Per-point incremental bookkeeping, read off by the ``dse.point``
    span after evaluation (see :meth:`MemoStore.begin_point`)."""

    def __init__(self) -> None:
        self.reused_regions = 0
        self.scheduled_regions = 0
        self.verify_skips = 0


class MemoStore:
    """The in-memory memo map, optionally journal-backed.

    Construct bare for a per-walk ephemeral memo, or attach a
    :class:`~repro.incremental.journal.MemoJournal` (see
    :meth:`attach_journal`) for a persistent, fleet-shared one.  All
    mutation funnels through ``_put`` so the journal sees every new
    entry exactly once.
    """

    def __init__(self) -> None:
        self._points: Dict[str, dict] = {}
        self._legality: Dict[str, Tuple[int, ...]] = {}
        self._verified: Set[str] = set()
        self._schedules: Dict[str, dict] = {}
        self._journal = None
        self._point_stats: Optional[PointStats] = None
        self.reset_tallies()

    def reset_tallies(self) -> None:
        """Zero the hit, miss and invalidation tallies and the delta
        ledger, and register the memo counters at zero in the ambient
        registry: what one job's stats start from."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.point_hits = 0
        self.point_misses = 0
        #: region fingerprints of the previous evaluated point, for the
        #: structural-delta span attributes (see repro.incremental.delta).
        self.previous_regions: Optional[List[str]] = None
        self.current_regions: List[str] = []
        registry = current_registry()
        registry.counter("incremental.memo.hits")
        registry.counter("incremental.memo.misses")
        registry.counter("incremental.memo.invalidations")
        registry.counter("incremental.memo.replays", mode="full")
        registry.counter("incremental.memo.replays", mode="catch_up")
        registry.counter("incremental.delta.reused_regions")

    # -- sizes ----------------------------------------------------------------

    def __len__(self) -> int:
        return (len(self._points) + len(self._legality)
                + len(self._verified) + len(self._schedules))

    def counts(self) -> Dict[str, int]:
        return {
            "point": len(self._points),
            "legality": len(self._legality),
            "verify": len(self._verified),
            "schedule": len(self._schedules),
        }

    # -- hit/miss accounting --------------------------------------------------

    def _hit(self, domain: str) -> None:
        self.hits += 1
        registry = current_registry()
        registry.counter("incremental.memo.hits").inc()
        registry.counter("incremental.memo.hits", domain=domain).inc()

    def _miss(self, domain: str) -> None:
        self.misses += 1
        registry = current_registry()
        registry.counter("incremental.memo.misses").inc()
        registry.counter("incremental.memo.misses", domain=domain).inc()

    def invalidate(self, count: int = 1, reason: str = "corrupt") -> None:
        """Record entries that had to be discarded (corrupt journal
        records, unknown domains, undecodable values)."""
        if count <= 0:
            return
        self.invalidations += count
        current_registry().counter(
            "incremental.memo.invalidations", reason=reason
        ).inc(count)
        current_registry().counter("incremental.memo.invalidations").inc(count)

    # -- the domains ----------------------------------------------------------

    def point_get(self, key: str) -> Optional[dict]:
        entry = self._points.get(key)
        if entry is not None:
            self.point_hits += 1
            self._hit("point")
        else:
            self.point_misses += 1
            self._miss("point")
        return entry

    def point_put(self, key: str, encoded_estimate: dict) -> None:
        self._put("point", key, encoded_estimate)

    def legality_get(self, source_hash: str) -> Optional[Tuple[int, ...]]:
        entry = self._legality.get(source_hash)
        self._hit("legality") if entry is not None else self._miss("legality")
        return entry

    def legality_put(self, source_hash: str,
                     illegal_depths: Tuple[int, ...]) -> None:
        self._put("legality", source_hash, list(illegal_depths))

    def verified(self, key: str) -> bool:
        seen = key in self._verified
        if seen:
            self._hit("verify")
            if self._point_stats is not None:
                self._point_stats.verify_skips += 1
        else:
            self._miss("verify")
        return seen

    def note_verified(self, key: str) -> None:
        self._put("verify", key, True)

    def schedule_get(self, key: str):
        """The decoded :class:`RegionSchedule` for ``key``, or ``None``.

        A hit is one *reused region* — the structural-delta unit the
        ``incremental.delta.reused_regions`` counter tracks.
        """
        entry = self._schedules.get(key)
        if entry is not None:
            self._hit("schedule")
            current_registry().counter("incremental.delta.reused_regions").inc()
            if self._point_stats is not None:
                self._point_stats.reused_regions += 1
            return decode_schedule(entry)
        self._miss("schedule")
        return None

    def schedule_put(self, key: str, schedule) -> None:
        self._put("schedule", key, encode_schedule(schedule))

    def note_region(self, fingerprint: str, scheduled: bool) -> None:
        """Track region fingerprints of the point being evaluated (the
        delta ledger) and how many were actually (re)scheduled."""
        self.current_regions.append(fingerprint)
        if scheduled and self._point_stats is not None:
            self._point_stats.scheduled_regions += 1

    # -- mutation + journaling -------------------------------------------------

    def _put(self, domain: str, key: str, value: Any) -> None:
        if not self._adopt(domain, key, value):
            return
        if self._journal is not None:
            self._journal.record(domain, key, value)

    def _adopt(self, domain: str, key: str, value: Any) -> bool:
        """Install one entry; ``False`` when already present (idempotent
        across journal replays and merge-on-load)."""
        if domain == "point":
            if key in self._points:
                return False
            self._points[key] = value
        elif domain == "legality":
            if key in self._legality:
                return False
            self._legality[key] = tuple(int(d) for d in value)
        elif domain == "verify":
            if key in self._verified:
                return False
            self._verified.add(key)
        elif domain == "schedule":
            if key in self._schedules:
                return False
            self._schedules[key] = value
        else:
            self.invalidate(reason="unknown_domain")
            return False
        return True

    # -- per-point bookkeeping -------------------------------------------------

    @contextmanager
    def begin_point(self) -> Iterator[PointStats]:
        """Scope one ``dse.point`` evaluation: collects region/verify
        reuse stats and rolls the delta ledger forward."""
        stats = PointStats()
        previous = self._point_stats
        self._point_stats = stats
        self.current_regions = []
        try:
            yield stats
        finally:
            self._point_stats = previous
            if self.current_regions:
                self.previous_regions = self.current_regions
                self.current_regions = []

    # -- persistence -----------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Back this store with a journal: replay what it holds, then
        record every future entry through it."""
        self._journal = journal
        journal.load(self)

    def flush(self) -> None:
        """Persist buffered journal appends (no-op when ephemeral)."""
        if self._journal is not None:
            self._journal.flush()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None


# -- the ambient memo ---------------------------------------------------------

_current: Optional[MemoStore] = None


def current_memo() -> Optional[MemoStore]:
    """The ambient memo store, or ``None`` when incremental evaluation
    is off."""
    return _current


@contextmanager
def use_memo(memo: Optional[MemoStore]) -> Iterator[Optional[MemoStore]]:
    """Install ``memo`` as the ambient store for a region.

    A module global rather than a context variable, matching
    :func:`repro.obs.use_tracer`'s reasoning — and the worker model is
    one evaluation at a time per process, same as the tracer's.
    """
    global _current
    previous = _current
    _current = memo
    try:
        yield memo
    finally:
        _current = previous
