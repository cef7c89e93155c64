"""The search vocabulary every strategy shares: its options, the
narrative trace, fidelity-switch records and the result.

The walks themselves live in :mod:`repro.dse.strategy`; the paper's
Figure-2 walk is :class:`~repro.dse.strategy.BalanceGuidedStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dse.failures import PointDiagnostic
from repro.dse.saturation import SaturationInfo
from repro.dse.space import DesignEvaluation
from repro.transform.unroll import UnrollVector


@dataclass
class SearchOptions:
    """Tunables for a search walk (every strategy reads them)."""

    #: |B - 1| within this is "balanced, so DONE".
    balance_tolerance: float = 0.10
    #: hard stop against pathological oscillation.
    max_iterations: int = 64
    #: fail-soft budget: how many infeasible points (illegal transforms,
    #: estimation failures, verifier violations) the search tolerates
    #: before declaring the nest hopeless with
    #: :class:`~repro.errors.PointFailureBudgetExceeded`.  ``None``
    #: means unlimited.
    max_point_failures: Optional[int] = 16
    #: which :class:`~repro.dse.strategy.SearchStrategy` drives the walk
    #: (a registered strategy id, or ``"auto"`` for learned selection).
    strategy: str = "balance"


@dataclass
class TraceStep:
    """One search iteration, for the narrative trace."""

    unroll: UnrollVector
    balance: float
    cycles: int
    space: int
    verdict: str

    def __str__(self) -> str:
        return (
            f"U={self.unroll}: balance={self.balance:.3f} cycles={self.cycles} "
            f"space={self.space} -> {self.verdict}"
        )


@dataclass(frozen=True)
class FidelitySwitch:
    """One mid-walk backend escalation a strategy requested.

    Recorded outside the trace (trace steps narrate the *walk*; fidelity
    switches narrate the *estimation policy*), so trace-pinning callers
    are unaffected when multi-fidelity mode is on.
    """

    unroll: Tuple[int, ...]
    from_backend: str
    to_backend: str
    reason: str
    cycles_before: int
    cycles_after: int

    def as_dict(self) -> dict:
        return {
            "unroll": list(self.unroll),
            "from_backend": self.from_backend,
            "to_backend": self.to_backend,
            "reason": self.reason,
            "cycles_before": self.cycles_before,
            "cycles_after": self.cycles_after,
        }


@dataclass
class SearchResult:
    """What the guided search found and how."""

    selected: DesignEvaluation
    trace: List[TraceStep]
    saturation: SaturationInfo
    initial: UnrollVector
    #: diagnostics for points that failed and were skipped (fail-soft).
    infeasible: Tuple[PointDiagnostic, ...] = ()
    #: which strategy produced this result (registered strategy id).
    strategy: str = "balance"
    #: mid-walk backend escalations the strategy requested (multi-fidelity).
    fidelity_switches: Tuple[FidelitySwitch, ...] = ()

    @property
    def points_searched(self) -> int:
        return len({step.unroll.factors for step in self.trace})
