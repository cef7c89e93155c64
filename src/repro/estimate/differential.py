"""Differential validation: do the backends agree where it matters?

The search only needs estimates to *rank* designs correctly — absolute
cycle counts can be off as long as better designs score better
(SoberDSE's insight, and the implicit bet behind navigating on a cheap
model).  This module checks that bet per run: it samples the points a
run actually visited, re-estimates them on the other backends, and
reports

* **cross-backend rank agreement** — Kendall-style concordant vs
  discordant pair counts on cycle ordering, per backend pair, emitted
  as ``estimate.disagreement{backends="a|b"}`` counters and rendered as
  the rank-agreement table in the explore report;
* **Observations 1–3 monotonicity** — the paper's Section 5.2
  structure, re-checked per backend on the sampled points that are
  componentwise-ordered in unroll space: fetch rate non-decreasing
  below saturation (Obs 1), cycles weakly non-increasing (Obs 2), and
  balance non-increasing once the fetch rate has saturated (Obs 3).

Violations are never fatal — a disagreement is a *finding* about the
estimation models, not a failure of the run that surfaced it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dse.failures import POINT_FAILURES
from repro.estimate.backends import EstimatorBackend, get_backend
from repro.obs import current_registry
from repro.report import Table
from repro.synthesis.estimator import Estimate

#: "Weakly monotone" tolerance: per-point layouts re-derive, so the
#: curves carry small model noise (test_observations uses 1.05 along
#: the search path; sampled pairs can be further apart, so allow more).
WEAKLY = 1.10


@dataclass(frozen=True)
class RankAgreement:
    """Pairwise cycle-ordering agreement between two backends."""

    backend_a: str
    backend_b: str
    pairs: int          # ordered point pairs compared
    concordant: int
    discordant: int
    ties: int           # either backend saw equal cycles

    @property
    def backends_label(self) -> str:
        return f"{self.backend_a}|{self.backend_b}"

    @property
    def agreement(self) -> float:
        """Fraction of decisive pairs both backends rank the same way."""
        decisive = self.concordant + self.discordant
        return self.concordant / decisive if decisive else 1.0

    @property
    def kendall_tau(self) -> float:
        decisive = self.concordant + self.discordant
        if not decisive:
            return 1.0
        return (self.concordant - self.discordant) / decisive


@dataclass(frozen=True)
class MonotonicityViolation:
    """One sampled pair where a backend broke an Observation."""

    backend: str
    observation: str    # "obs1" | "obs2" | "obs3"
    detail: str

    def __str__(self) -> str:
        return f"[{self.backend}/{self.observation}] {self.detail}"


@dataclass
class DifferentialReport:
    """What the validator found for one run."""

    kernel: str
    sampled: int
    backends: Tuple[str, ...]
    agreements: Tuple[RankAgreement, ...]
    violations: Tuple[MonotonicityViolation, ...]
    #: points a backend could not estimate (kept out of the pair counts).
    failures: Tuple[str, ...] = ()

    @property
    def disagreements(self) -> int:
        return sum(agreement.discordant for agreement in self.agreements)

    def table(self) -> Table:
        table = Table(
            f"rank agreement ({self.kernel}, {self.sampled} sampled points)",
            ["backends", "pairs", "concordant", "discordant",
             "ties", "agreement", "tau"],
        )
        for agreement in self.agreements:
            table.add_row(
                agreement.backends_label, agreement.pairs,
                agreement.concordant, agreement.discordant, agreement.ties,
                agreement.agreement, agreement.kendall_tau,
            )
        return table

    def as_dict(self) -> dict:
        """Primitives-only view for job payloads and ``--json`` output."""
        return {
            "sampled": self.sampled,
            "backends": list(self.backends),
            "disagreements": self.disagreements,
            "agreements": [
                {
                    "backends": agreement.backends_label,
                    "pairs": agreement.pairs,
                    "concordant": agreement.concordant,
                    "discordant": agreement.discordant,
                    "ties": agreement.ties,
                    "agreement": agreement.agreement,
                    "tau": agreement.kendall_tau,
                }
                for agreement in self.agreements
            ],
            "monotonicity_violations": [
                str(violation) for violation in self.violations
            ],
        }


def validate_run(
    space: Any,
    evaluations: Sequence[Any],
    backends: Sequence[Any],
    *,
    samples: int = 6,
    seed: int = 0,
    kernel: str = "",
    tolerance: float = WEAKLY,
) -> DifferentialReport:
    """Differentially validate one run's visited points.

    ``evaluations`` are the run's :class:`~repro.dse.space.DesignEvaluation`
    records from ``space`` (each carries the design for re-estimation
    and the estimate the navigation backend produced).  The first entry
    of ``backends`` is the backend that produced those estimates — its
    column is reused, not recomputed; every other backend re-estimates
    the sampled designs through ``space.reestimate`` (memoized in the
    point domain when a memo is ambient, so repeated validation is
    cheap).
    """
    resolved: List[EstimatorBackend] = []
    for spec in backends:
        backend = get_backend(spec)
        if all(existing.id != backend.id for existing in resolved):
            resolved.append(backend)

    pool = list(evaluations)
    if len(pool) > samples:
        rng = random.Random(seed)
        pool = rng.sample(pool, samples)
    # A stable geometry order (unroll product, then factors) makes the
    # monotonicity scan and the pair counts deterministic.
    pool.sort(key=lambda e: (_product(e.unroll.factors), e.unroll.factors))

    columns: Dict[str, List[Optional[Estimate]]] = {}
    failures: List[str] = []
    navigation = resolved[0] if resolved else None
    for backend in resolved:
        column: List[Optional[Estimate]] = []
        for evaluation in pool:
            if backend is navigation:
                column.append(evaluation.estimate)
                continue
            try:
                column.append(space.reestimate(evaluation, backend))
            except POINT_FAILURES as error:
                failures.append(
                    f"{backend.id} U={evaluation.unroll}: {error}"
                )
                column.append(None)
        columns[backend.id] = column

    registry = current_registry()
    agreements: List[RankAgreement] = []
    for first in range(len(resolved)):
        for second in range(first + 1, len(resolved)):
            a, b = resolved[first].id, resolved[second].id
            agreement = _rank_agreement(a, b, columns[a], columns[b])
            agreements.append(agreement)
            counter = registry.counter(
                "estimate.disagreement", backends=agreement.backends_label
            )
            # inc(0) registers the series even on full agreement, so
            # /metrics always exposes it for scraping.
            counter.inc(agreement.discordant or 0)

    violations: List[MonotonicityViolation] = []
    for backend in resolved:
        violations.extend(_check_observations(
            backend.id, pool, columns[backend.id], tolerance
        ))
    for violation in violations:
        registry.counter(
            "estimate.monotonicity_violations",
            backend=violation.backend, observation=violation.observation,
        ).inc()

    return DifferentialReport(
        kernel=kernel,
        sampled=len(pool),
        backends=tuple(backend.id for backend in resolved),
        agreements=tuple(agreements),
        violations=tuple(violations),
        failures=tuple(failures),
    )


def _rank_agreement(
    name_a: str,
    name_b: str,
    column_a: Sequence[Optional[Estimate]],
    column_b: Sequence[Optional[Estimate]],
) -> RankAgreement:
    pairs = concordant = discordant = ties = 0
    for i in range(len(column_a)):
        for j in range(i + 1, len(column_a)):
            if None in (column_a[i], column_a[j], column_b[i], column_b[j]):
                continue
            pairs += 1
            sign_a = _sign(column_a[i].cycles - column_a[j].cycles)
            sign_b = _sign(column_b[i].cycles - column_b[j].cycles)
            if sign_a == 0 or sign_b == 0:
                ties += 1
            elif sign_a == sign_b:
                concordant += 1
            else:
                discordant += 1
    return RankAgreement(name_a, name_b, pairs, concordant, discordant, ties)


def _check_observations(
    backend: str,
    pool: Sequence[Any],
    column: Sequence[Optional[Estimate]],
    tolerance: float,
) -> List[MonotonicityViolation]:
    """Observations 1-3 over componentwise-ordered sampled pairs."""
    violations: List[MonotonicityViolation] = []
    rates = [e.fetch_rate for e in column if e is not None]
    peak = max(rates, default=0.0)
    for i in range(len(pool)):
        for j in range(len(pool)):
            if i == j or column[i] is None or column[j] is None:
                continue
            small, large = pool[i].unroll.factors, pool[j].unroll.factors
            if not _componentwise_less(small, large):
                continue
            before, after = column[i], column[j]
            label = f"U={small}->U={large}"
            if before.fetch_rate < peak / tolerance and \
                    after.fetch_rate < before.fetch_rate / tolerance:
                violations.append(MonotonicityViolation(
                    backend, "obs1",
                    f"fetch rate fell {before.fetch_rate:.2f}->"
                    f"{after.fetch_rate:.2f} below saturation ({label})",
                ))
            if after.cycles > before.cycles * tolerance:
                violations.append(MonotonicityViolation(
                    backend, "obs2",
                    f"cycles rose {before.cycles}->{after.cycles} ({label})",
                ))
            saturated = (
                before.fetch_rate >= peak / tolerance
                and after.fetch_rate >= peak / tolerance
            )
            if saturated and after.balance > before.balance * tolerance:
                violations.append(MonotonicityViolation(
                    backend, "obs3",
                    f"balance rose {before.balance:.3f}->"
                    f"{after.balance:.3f} past saturation ({label})",
                ))
    return violations


def _componentwise_less(
    small: Sequence[int], large: Sequence[int]
) -> bool:
    return (
        all(s <= l for s, l in zip(small, large))
        and any(s < l for s, l in zip(small, large))
    )


def _product(factors: Sequence[int]) -> int:
    total = 1
    for factor in factors:
        total *= factor
    return total


def _sign(value) -> int:
    return (value > 0) - (value < 0)
