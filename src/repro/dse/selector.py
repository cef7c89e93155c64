"""Learned strategy selection: cheap space features + recorded win rates.

``--strategy auto`` resolves here.  Selection has two inputs:

* **Space features** (:func:`extract_features`) — dimensionality,
  realizable-lattice size, total space size, trip counts, how many
  loops carry no dependence.  All are computable without evaluating a
  single point, so selection costs microseconds.
* **Win rates** (:class:`StrategyScoreboard`) — per-strategy outcomes
  recorded by the batch runner into the run ledger as typed
  ``strategy_outcome`` events.  A strategy "wins" a run when it found a
  real speedup without degrading the baseline.  The scoreboard only
  overrides the feature rule once the rule's own pick has demonstrably
  lost enough times — learned correction, not learned chaos.

The feature rule itself is deliberately simple and deterministic: a
lattice small enough to sweep exactly (≤ :data:`EXHAUSTIVE_LATTICE_LIMIT`
realizable points) gets the ``exhaustive`` strategy — paying for every
point beats any heuristic there — and everything larger navigates with
the paper's ``balance`` walk.  Every selection increments
``dse.strategy.selected{strategy=}`` so fleet-wide strategy mix is one
/metrics scrape away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.analysis.dependence import DependenceGraph
from repro.dse.space import DesignSpace
from repro.dse.strategy import DEFAULT_STRATEGY, strategy_ids
from repro.obs import current_registry

#: lattices at or below this many realizable points are swept exactly.
EXHAUSTIVE_LATTICE_LIMIT = 32

#: how many recorded outcomes a strategy needs before its win rate is
#: trusted enough to influence selection.
MIN_TRIALS = 3


@dataclass(frozen=True)
class SpaceFeatures:
    """What selection is allowed to look at: facts free to compute."""

    depth: int
    lattice_points: int
    space_size: int
    trip_counts: Tuple[int, ...]
    parallel_loops: int
    pinned_depths: Tuple[int, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "depth": self.depth,
            "lattice_points": self.lattice_points,
            "space_size": self.space_size,
            "trip_counts": list(self.trip_counts),
            "parallel_loops": self.parallel_loops,
            "pinned_depths": list(self.pinned_depths),
        }


def extract_features(space: DesignSpace) -> SpaceFeatures:
    """Compute the selection features for one design space."""
    graph = DependenceGraph.build(space.nest)
    parallel = sum(
        1 for depth in range(space.depth) if graph.loop_is_parallel(depth)
    )
    return SpaceFeatures(
        depth=space.depth,
        lattice_points=len(space.enumerable_points()),
        space_size=space.size(),
        trip_counts=tuple(space.nest.trip_counts),
        parallel_loops=parallel,
        pinned_depths=tuple(space.pinned_depths),
    )


@dataclass(frozen=True)
class SelectionDecision:
    """One ``auto`` resolution: what was picked and why."""

    strategy: str
    reason: str
    features: SpaceFeatures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "reason": self.reason,
            "features": self.features.as_dict(),
        }


class StrategyScoreboard:
    """Per-strategy win/trial tallies, foldable from ledger records."""

    def __init__(self) -> None:
        self._wins: Dict[str, int] = {}
        self._trials: Dict[str, int] = {}

    def record(self, strategy: str, won: bool) -> None:
        self._trials[strategy] = self._trials.get(strategy, 0) + 1
        if won:
            self._wins[strategy] = self._wins.get(strategy, 0) + 1

    def trials(self, strategy: str) -> int:
        return self._trials.get(strategy, 0)

    def win_rate(self, strategy: str) -> Optional[float]:
        trials = self._trials.get(strategy, 0)
        if trials == 0:
            return None
        return self._wins.get(strategy, 0) / trials

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        record: Dict[str, Dict[str, Any]] = {}
        for strategy in sorted(self._trials):
            trials = self._trials[strategy]
            wins = self._wins.get(strategy, 0)
            record[strategy] = {
                "trials": trials,
                "wins": wins,
                "win_rate": round(wins / trials, 4),
            }
        return record

    @classmethod
    def from_dict(
        cls, record: Mapping[str, Mapping[str, Any]]
    ) -> "StrategyScoreboard":
        board = cls()
        for strategy, entry in record.items():
            board._trials[strategy] = int(entry.get("trials", 0))
            board._wins[strategy] = int(entry.get("wins", 0))
        return board


class StrategySelector:
    """Pick a strategy from features, corrected by recorded win rates."""

    def __init__(
        self,
        scoreboard: Optional[StrategyScoreboard] = None,
        exhaustive_limit: int = EXHAUSTIVE_LATTICE_LIMIT,
    ):
        self.scoreboard = scoreboard
        self.exhaustive_limit = exhaustive_limit

    def select(self, space: DesignSpace) -> SelectionDecision:
        features = extract_features(space)
        if features.lattice_points <= self.exhaustive_limit:
            primary = "exhaustive"
            reason = (
                f"lattice has {features.lattice_points} <= "
                f"{self.exhaustive_limit} realizable points: "
                f"exact sweep is affordable"
            )
        else:
            primary = DEFAULT_STRATEGY
            reason = (
                f"lattice has {features.lattice_points} > "
                f"{self.exhaustive_limit} realizable points: "
                f"navigate with the paper's walk"
            )
        override = self._learned_override(primary)
        if override is not None:
            primary, reason = override
        current_registry().counter(
            "dse.strategy.selected", strategy=primary
        ).inc()
        return SelectionDecision(
            strategy=primary, reason=reason, features=features
        )

    def _learned_override(
        self, primary: str
    ) -> Optional[Tuple[str, str]]:
        """Only correct the feature rule once its pick has lost enough.

        The primary needs :data:`MIN_TRIALS` recorded outcomes before
        its win rate means anything; an alternative only displaces it
        with at least as many trials and a strictly better rate.
        """
        board = self.scoreboard
        if board is None or board.trials(primary) < MIN_TRIALS:
            return None
        primary_rate = board.win_rate(primary) or 0.0
        best: Optional[str] = None
        best_rate = primary_rate
        for strategy in strategy_ids():
            if strategy == primary or board.trials(strategy) < MIN_TRIALS:
                continue
            rate = board.win_rate(strategy) or 0.0
            if rate > best_rate:
                best, best_rate = strategy, rate
        if best is None:
            return None
        return best, (
            f"recorded win rates override the feature rule: "
            f"{best} at {best_rate:.0%} over {board.trials(best)} runs "
            f"beats {primary} at {primary_rate:.0%} over "
            f"{board.trials(primary)} runs"
        )


def select_strategy(
    space: DesignSpace,
    scoreboard: Optional[StrategyScoreboard] = None,
) -> SelectionDecision:
    """One-call ``auto`` resolution over a built design space."""
    return StrategySelector(scoreboard).select(space)


__all__ = [
    "EXHAUSTIVE_LATTICE_LIMIT",
    "MIN_TRIALS",
    "SelectionDecision",
    "SpaceFeatures",
    "StrategyScoreboard",
    "StrategySelector",
    "extract_features",
    "select_strategy",
]
