"""Design space exploration — the paper's core contribution.

``explore()`` is the one-call API; the pieces (saturation analysis, the
Figure-2 balance-guided search, the design space with its exhaustive
oracle, the pluggable :class:`SearchStrategy` protocol and its learned
selector) are exposed for benchmarks and ablations.
"""

from repro.dse.explorer import ExplorationResult, ExploreConfig, explore
from repro.dse.failures import POINT_FAILURES, PointDiagnostic, is_point_failure
from repro.dse.saturation import (
    SaturationInfo, analyze_saturation, compute_psat, saturation_vectors,
)
from repro.dse.search import (
    FidelitySwitch, SearchOptions, SearchResult, TraceStep,
)
from repro.dse.selector import (
    SelectionDecision, SpaceFeatures, StrategyScoreboard, StrategySelector,
    extract_features, select_strategy,
)
from repro.dse.space import (
    DesignEvaluation, DesignSpace, ExhaustiveResult,
)
from repro.dse.strategy import (
    DEFAULT_STRATEGY, BalanceGuidedStrategy, ExhaustiveStrategy,
    GeneticStrategy, GreedyAscentStrategy, HillClimbStrategy,
    LinearScanStrategy, RandomStrategy, SearchStrategy, get_strategy,
    register_strategy, strategy_ids,
)
from repro.dse.multinest import (
    MultiNestResult, explore_application, split_nests,
)

__all__ = [
    "BalanceGuidedStrategy", "DEFAULT_STRATEGY",
    "DesignEvaluation", "DesignSpace", "ExhaustiveResult",
    "ExhaustiveStrategy", "ExplorationResult", "ExploreConfig",
    "FidelitySwitch", "GeneticStrategy", "GreedyAscentStrategy",
    "HillClimbStrategy", "LinearScanStrategy",
    "MultiNestResult", "POINT_FAILURES", "PointDiagnostic", "RandomStrategy",
    "SaturationInfo", "SearchOptions", "SearchResult", "SearchStrategy",
    "SelectionDecision", "SpaceFeatures", "StrategyScoreboard",
    "StrategySelector", "TraceStep", "analyze_saturation", "compute_psat",
    "explore", "explore_application", "extract_features", "get_strategy",
    "is_point_failure", "register_strategy", "saturation_vectors",
    "select_strategy", "split_nests", "strategy_ids",
]
