"""First-class search strategies: one protocol, many DSE algorithms.

The paper contributes a single balance-guided bisection walk (Figure 2),
but no one DSE algorithm wins everywhere.  This module makes the search
algorithm a pluggable, attributable choice — the same move
:mod:`repro.estimate.backends` made for the estimator:

* :class:`SearchStrategy` is the protocol: a stateful
  propose → evaluate → accept/terminate driver over
  :meth:`~repro.dse.space.DesignSpace.try_evaluate`.  Every strategy
  returns the same :class:`~repro.dse.search.SearchResult` (trace
  steps, failure diagnostics, fraction-searched), so reports, spans
  (``dse.search{strategy=}``), and the fail-soft point-failure budget
  work identically for every algorithm.
* The registry (:func:`get_strategy`, :func:`strategy_ids`) mirrors the
  backend registry: ids resolve to fresh instances; unknown ids fail
  naming the valid set.
* A strategy declares whether its space **partitions**
  (``partitionable``): the fleet coordinator shards partitionable
  strategies into point-range sweeps and runs the rest as a single
  unsharded walk.
* Mid-walk **fidelity switching** closes ROADMAP item 5's remaining
  hook: a strategy running under multi-fidelity exploration holds a
  confirmation backend and may call :meth:`SearchStrategy.confirm` to
  re-estimate a point on the authoritative model (e.g. when the balance
  gradient flattens).  Switches are recorded as
  :class:`~repro.dse.search.FidelitySwitch` records on the result — not
  as trace steps — so the navigation trace stays byte-identical.

Seven strategies ship: the paper's ``balance`` walk (the default),
the re-homed comparison baselines (``linear``, ``random``, ``hill``),
plus ``exhaustive`` (small spaces), ``greedy`` (coordinate ascent from
the no-unrolling baseline), and ``genetic`` (seeded evolutionary
search).  ``auto`` is not a strategy but a selector policy — see
:mod:`repro.dse.selector`.
"""

from __future__ import annotations

import inspect
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type, Union

from repro.analysis.dependence import DependenceGraph
from repro.dse.failures import POINT_FAILURES, is_point_failure
from repro.dse.saturation import SaturationInfo, analyze_saturation
from repro.dse.search import (
    FidelitySwitch, SearchOptions, SearchResult, TraceStep,
)
from repro.dse.space import DesignEvaluation, DesignSpace
from repro.errors import (
    NoFeasiblePoint, PointFailureBudgetExceeded, SearchError,
)
from repro.obs import current_registry, current_tracer
from repro.transform.unroll import UnrollVector

#: the strategy every pre-protocol call site implicitly used.
DEFAULT_STRATEGY = "balance"


class SearchStrategy:
    """The search-algorithm interface the explorer drives.

    Subclasses set ``id`` (registry name), ``name``/``description``
    (human catalog), ``partitionable`` (whether the fleet may shard the
    walk into point ranges), and implement :meth:`_search` using the
    shared machinery:

    * :meth:`probe` — evaluate one point fail-soft, charging the
      ``max_point_failures`` budget;
    * :meth:`record` — append a narrative :class:`TraceStep`;
    * :meth:`confirm` — request a mid-walk fidelity switch;
    * :meth:`finish` — assemble the :class:`SearchResult`, degrading a
      missing selection to the best feasible evaluated point.

    The public :meth:`run` wraps ``_search`` in the ``dse.search`` span
    (now carrying ``strategy=``) and the ``dse.search_iterations``
    histogram, so every algorithm is observable through the same lens.
    """

    id: str = "abstract"
    name: str = "abstract"
    description: str = ""
    #: may the fleet split this strategy's work into point-range shards?
    partitionable: bool = False

    # -- driver ---------------------------------------------------------------

    def run(
        self,
        space: DesignSpace,
        options: Optional[SearchOptions] = None,
        *,
        confirm_backend=None,
    ) -> SearchResult:
        """Run the strategy over ``space`` under a ``dse.search`` span.

        ``confirm_backend`` (multi-fidelity mode) arms :meth:`confirm`;
        without it, confirmation requests are no-ops.
        """
        self.space = space
        self.options = options or SearchOptions()
        self.confirm_backend = confirm_backend
        self.saturation = space.saturation
        if self.saturation is None:
            self.saturation = analyze_saturation(
                space.program, space.board.num_memories
            )
        self._point_failures = 0
        self._trace: List[TraceStep] = []
        self._switches: List[FidelitySwitch] = []
        with current_tracer().span(
            "dse.search", kernel=space.program.name, strategy=self.id
        ) as span:
            result = self._search()
            # The driver owns the switch ledger: a strategy may confirm
            # after assembling its result, so re-stamp the full list.
            result.fidelity_switches = tuple(self._switches)
            span.set_attribute("iterations", len(result.trace))
            span.set_attribute("points_searched", result.points_searched)
            span.set_attribute("infeasible", len(result.infeasible))
            span.set_attribute(
                "selected", list(result.selected.unroll.factors)
            )
            current_registry().histogram(
                "dse.search_iterations",
                boundaries=(1, 2, 4, 8, 16, 32, 64),
            ).observe(len(result.trace))
            return result

    def _search(self) -> SearchResult:
        raise NotImplementedError

    # -- shared fail-soft machinery -------------------------------------------

    def probe(self, unroll: UnrollVector) -> Optional[DesignEvaluation]:
        """Evaluate one point; ``None`` marks it infeasible.

        Every infeasible point spends one unit of
        ``max_point_failures``; past the budget the nest is hopeless and
        the search aborts with a typed
        :class:`~repro.errors.PointFailureBudgetExceeded` whose message
        still names the underlying failure kinds.  Transient errors
        propagate — retry machinery owns those.
        """
        evaluation = self.space.try_evaluate(unroll)
        if evaluation is None:
            self._point_failures += 1
            budget = self.options.max_point_failures
            if budget is not None and self._point_failures > budget:
                raise PointFailureBudgetExceeded(
                    f"search of {self.space.program.name} exceeded the "
                    f"point-failure budget ({budget}): "
                    f"{self._failure_summary()}"
                )
        return evaluation

    def record(self, evaluation: DesignEvaluation, verdict: str) -> None:
        self._trace.append(TraceStep(
            evaluation.unroll, evaluation.balance, evaluation.cycles,
            evaluation.space, verdict,
        ))

    def confirm(self, evaluation: DesignEvaluation, reason: str):
        """Request a mid-walk fidelity switch for one evaluated point.

        Re-estimates the already-compiled design on the confirmation
        backend and records a :class:`FidelitySwitch`.  The navigation
        estimate is deliberately left in place — the switch record (not
        a mutated trace) is the artifact — but the confirmed
        :class:`~repro.synthesis.estimator.Estimate` is returned so a
        strategy may steer on it.  Fail-soft: a confirmation backend
        that cannot estimate the design records the failure and returns
        ``None``; it never aborts the walk.  No-op (``None``) outside
        multi-fidelity mode.
        """
        if self.confirm_backend is None:
            return None
        from repro.estimate.backends import get_backend
        confirmer = get_backend(self.confirm_backend)
        try:
            estimate = self.space.reestimate(evaluation, confirmer)
        except POINT_FAILURES as error:
            if not is_point_failure(error):
                raise
            self._switches.append(FidelitySwitch(
                unroll=evaluation.unroll.factors,
                from_backend=self.space.backend.id,
                to_backend=confirmer.id,
                reason=f"{reason} (confirmation failed: {error})",
                cycles_before=evaluation.cycles,
                cycles_after=evaluation.cycles,
            ))
            return None
        self._switches.append(FidelitySwitch(
            unroll=evaluation.unroll.factors,
            from_backend=self.space.backend.id,
            to_backend=confirmer.id,
            reason=reason,
            cycles_before=evaluation.cycles,
            cycles_after=estimate.cycles,
        ))
        current_registry().counter(
            "dse.fidelity_switches", strategy=self.id
        ).inc()
        return estimate

    def finish(
        self,
        selected: Optional[DesignEvaluation],
        initial: UnrollVector,
    ) -> SearchResult:
        """Assemble the result; degrade a missing selection fail-soft.

        ``selected=None`` (the strategy's walk never landed on a usable
        endpoint) degrades to the best feasible already-evaluated point;
        with nothing evaluated at all the nest is hopeless and
        :class:`NoFeasiblePoint` names the recorded failures.
        """
        if selected is None:
            capacity = self.space.board.fpga.capacity_slices
            evaluated = self.space.evaluated()
            fits = [e for e in evaluated if e.space <= capacity]
            pool = fits or evaluated
            if not pool:
                raise NoFeasiblePoint(
                    f"no feasible design point for "
                    f"{self.space.program.name}: {self._failure_summary()}"
                )
            selected = min(pool, key=lambda e: (e.cycles, e.space))
        return SearchResult(
            selected=selected,
            trace=self._trace,
            saturation=self.saturation,
            initial=initial,
            infeasible=tuple(self.space.infeasible_points()),
            strategy=self.id,
            fidelity_switches=tuple(self._switches),
        )

    def _failure_summary(self) -> str:
        diagnostics = self.space.infeasible_points()
        if not diagnostics:
            return "no failures recorded"
        kinds: Dict[str, int] = {}
        for diagnostic in diagnostics:
            kinds[diagnostic.kind] = kinds.get(diagnostic.kind, 0) + 1
        histogram = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(kinds.items())
        )
        return (
            f"{len(diagnostics)} point(s) failed ({histogram}); "
            f"last: {diagnostics[-1].message}"
        )

    # -- catalog --------------------------------------------------------------

    @classmethod
    def default_knobs(cls) -> Dict[str, Any]:
        """Constructor tunables and their defaults, for ``repro strategies``."""
        knobs: Dict[str, Any] = {}
        for name, parameter in inspect.signature(cls.__init__).parameters.items():
            if name == "self" or parameter.default is inspect.Parameter.empty:
                continue
            knobs[name] = parameter.default
        return knobs

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r})"


# -- registry -----------------------------------------------------------------

_STRATEGIES: Dict[str, Callable[[], "SearchStrategy"]] = {}


def register_strategy(cls: Type[SearchStrategy]) -> Type[SearchStrategy]:
    """Register (or replace) a strategy class under its ``id``.

    Usable as a decorator; the registry stores the class as its own
    zero-argument factory, so :func:`get_strategy` hands out fresh
    instances with default knobs.
    """
    _STRATEGIES[cls.id] = cls
    return cls


def strategy_ids() -> Tuple[str, ...]:
    """Registered strategy ids, sorted."""
    return tuple(sorted(_STRATEGIES))


def get_strategy(
    spec: Union[str, SearchStrategy, None]
) -> SearchStrategy:
    """Resolve a strategy id (or pass an instance through).

    ``None`` means the historical default — the paper's balance-guided
    walk.  ``"auto"`` is a selector policy, not a strategy; resolve it
    with :func:`repro.dse.selector.select_strategy` before calling.
    """
    if spec is None:
        spec = DEFAULT_STRATEGY
    if isinstance(spec, SearchStrategy):
        return spec
    factory = _STRATEGIES.get(spec)
    if factory is None:
        raise SearchError(
            f"unknown search strategy {spec!r}; "
            f"registered: {', '.join(strategy_ids())} (or 'auto')"
        )
    return factory()


# -- the default: the paper's walk -------------------------------------------


@register_strategy
class BalanceGuidedStrategy(SearchStrategy):
    """The paper's Figure-2 balance-guided bisection (the default).

    Starting from a design in the saturation set (memory parallelism
    already maximal), the walk moves unroll products up and down guided
    by the balance metric's monotonicity (Observation 3):

    * compute bound (B > 1) and no memory-bound point seen: ``Increase``
      doubles the unroll product;
    * memory bound (B < 1): the balanced design lies between the last
      compute-bound point and this one — ``SelectBetween`` bisects
      products;
    * space exceeds capacity: shrink the same way (``FindLargestFit`` if
      even the initial point is too big);
    * balanced (within tolerance): done.

    Under multi-fidelity exploration it also requests a fidelity switch
    on the selection once the balance gradient flattens — the point
    where the cheap model has stopped changing the verdict and the
    authoritative number is worth its cost.
    """

    id = "balance"
    name = "balance-guided (paper)"
    description = "Figure-2 bisection on the balance metric"
    partitionable = True

    #: |Δbalance| between the last two steps below this means the
    #: gradient has flattened and confirmation is warranted.
    GRADIENT_EPSILON = 0.02

    def _search(self) -> SearchResult:
        space = self.space
        self.priority = loop_priority(space, self.saturation)
        capacity = space.board.fpga.capacity_slices
        u_base = space.baseline_vector()
        u_max = space.max_vector()
        u_init = initial_vector(self.saturation, self.priority)

        u_curr = u_init
        u_mb = u_max          # best-known memory-bound point
        u_cb: Optional[UnrollVector] = None  # last compute-bound point that fit
        visited: Set[Tuple[int, ...]] = set()
        ok = False

        for _ in range(self.options.max_iterations):
            if ok:
                break
            evaluation = self.probe(u_curr)
            if evaluation is None:
                # Infeasible point (illegal jam, verifier violation,
                # estimation failure): record-and-skip, shrinking toward
                # the last good design like a capacity failure.
                fallback = u_cb or u_base
                shrunk = self.select_between(fallback, u_curr)
                if shrunk == u_curr:
                    u_curr = fallback
                    ok = True
                else:
                    u_curr = shrunk
                    if u_curr == u_cb:
                        ok = True
                continue
            visited.add(u_curr.factors)
            balance = evaluation.balance

            if evaluation.space > capacity:
                verdict = "exceeds capacity"
                if u_curr == u_init:
                    u_curr = self.find_largest_fit(u_base, u_curr)
                    ok = True
                else:
                    u_curr = self.select_between(u_cb or u_base, u_curr)
            elif abs(balance - 1.0) <= self.options.balance_tolerance:
                verdict = "balanced, done"
                ok = True
            elif balance < 1.0:
                verdict = "memory bound"
                u_mb = u_curr
                if u_curr == u_init:
                    ok = True
                else:
                    u_curr = self.select_between(u_cb or u_base, u_mb)
            else:
                verdict = "compute bound"
                u_cb = u_curr
                if u_mb == u_max:
                    u_curr = increase(space, u_cb, self.priority)
                else:
                    u_curr = self.select_between(u_cb, u_mb)
            self.record(evaluation, verdict)
            if u_cb is not None and u_curr == u_cb:
                ok = True
            if not ok and u_curr.factors in visited:
                ok = True  # no new points reachable

        # The endpoint is not charged to the failure budget: once the
        # walk is over, a failing endpoint degrades to the best
        # evaluated design rather than aborting a usable exploration.
        result = self.finish(space.try_evaluate(u_curr), u_init)
        if self._gradient_flat(result.trace):
            self.confirm(result.selected, "balance gradient flattened")
        return result

    def select_between(
        self, small: UnrollVector, large: UnrollVector
    ) -> UnrollVector:
        """Approximate binary search between two products.

        Targets the product ``(P(small) + P(large)) / 2``, preferring
        multiples of Psat, over vectors component-wise between the
        endpoints; falls back toward ``small`` when no realizable vector
        hits any intermediate product.
        """
        p_small, p_large = small.product, large.product
        if p_large <= p_small:
            return small
        psat = max(self.saturation.psat, 1)
        midpoint = (p_small + p_large) // 2
        targets = sorted(
            range(p_small + 1, p_large),
            key=lambda p: (p % psat != 0, abs(p - midpoint)),
        )
        boxed = self.space.points_between(small, large)
        for target in targets:
            candidates = [v for v in boxed if v.product == target]
            if candidates:
                return min(candidates, key=_by_priority(self.priority))
        return small

    def find_largest_fit(
        self, base: UnrollVector, limit: UnrollVector
    ) -> UnrollVector:
        """Largest design between Ubase and an oversized Uinit that fits
        on the device, by descending product, regardless of balance."""
        capacity = self.space.board.fpga.capacity_slices
        rank = _by_priority(self.priority)
        candidates = sorted(
            self.space.points_between(base, limit),
            key=lambda v: (-v.product,) + rank(v),
        )
        for candidate in candidates:
            if candidate == limit:
                continue
            evaluation = self.probe(candidate)
            if evaluation is not None and evaluation.space <= capacity:
                return candidate
        return base

    def _gradient_flat(self, trace: List[TraceStep]) -> bool:
        if self.confirm_backend is None or len(trace) < 2:
            return False
        return abs(trace[-1].balance - trace[-2].balance) < self.GRADIENT_EPSILON


# -- Figure-2 moves shared with the baselines ---------------------------------


def loop_priority(space: DesignSpace, saturation: SaturationInfo) -> List[int]:
    """Depths ordered by unrolling desirability (Section 5.3).

    Loops that vary memory accesses come first: dependence-free loops
    (their unrolled iterations are fully parallel), then the rest by
    descending minimum nonzero dependence distance.  Other unpinned
    loops come last; they add operator parallelism only.
    """
    graph = DependenceGraph.build(space.nest)
    varying = list(saturation.memory_varying_depths) or list(range(space.depth))
    parallel = [d for d in varying if graph.loop_is_parallel(d)]
    rest = sorted(
        (d for d in varying if d not in parallel),
        key=lambda d: (-(graph.min_nonzero_distance(d) or 0), d),
    )
    others = [d for d in range(space.depth)
              if d not in varying and d not in space.pinned_depths]
    return parallel + rest + others


def initial_vector(
    saturation: SaturationInfo, priority: List[int]
) -> UnrollVector:
    """Pick Uinit from the saturation set (Section 5.3).

    Prefer putting the whole product on the highest-priority loop — a
    dependence-free loop if one exists, else the loop carrying the
    largest minimum dependence distance.
    """
    if not saturation.saturation_set:
        raise SearchError("empty saturation set; is the nest degenerate?")
    return min(saturation.saturation_set, key=_by_priority(priority))


def _by_priority(priority: List[int]) -> Callable[[UnrollVector], Tuple]:
    """Sort key ranking larger factors on higher-priority loops first."""
    return lambda vector: tuple(-vector[depth] for depth in priority)


def increase(
    space: DesignSpace, current: UnrollVector, priority: List[int]
) -> UnrollVector:
    """Return U' with P(U') = 2 * P(U), U <= U' <= Umax.

    Doubles the unrollable loop with the smallest current factor (ties
    broken by priority): the initial point already spent the whole
    saturation product on the best loop, so growth spreads across the
    nest, unrolling "all loops in the nest" as Section 5.3 describes for
    sustained compute-bound designs.  Returns ``current`` unchanged when
    fully unrolled (the paper's no-points-left case).
    """
    order = priority + [d for d in range(space.depth) if d not in priority]
    for depth in sorted(order, key=lambda d: current[d]):
        candidate = current.with_factor(depth, current[depth] * 2)
        if space.is_valid(candidate):
            return candidate
    return current


# -- re-homed comparison baselines -------------------------------------------


@register_strategy
class LinearScanStrategy(SearchStrategy):
    """Walk products upward by doubling; stop when cycles go stale.

    The hand-tuner's loop: start at the saturation point, keep doubling
    the laggard loop, stop after ``stale_limit`` non-improving steps or
    when the device fills up.
    """

    id = "linear"
    name = "linear scan"
    description = "double unroll products until performance goes stale"

    def __init__(self, stale_limit: int = 2):
        self.stale_limit = stale_limit

    def _search(self) -> SearchResult:
        priority = loop_priority(self.space, self.saturation)
        current = initial_vector(self.saturation, priority)
        initial = current
        best: Optional[DesignEvaluation] = None
        evaluation = self.probe(current)
        if evaluation is not None:
            best = evaluation
            self.record(evaluation, "initial")
        stale = 0
        while stale < self.stale_limit:
            grown = increase(self.space, current, priority)
            if grown == current:
                break
            current = grown
            evaluation = self.probe(current)
            if evaluation is None:
                continue
            if not evaluation.estimate.fits(self.space.board):
                self.record(evaluation, "exceeds capacity")
                break
            if best is None or evaluation.cycles < best.cycles:
                best = evaluation
                stale = 0
                self.record(evaluation, "improved")
            else:
                stale += 1
                self.record(evaluation, "no improvement")
        return self.finish(best, initial)


@register_strategy
class RandomStrategy(SearchStrategy):
    """Uniform random sampling of realizable points (the no-insight
    baseline); falls back to the no-unrolling baseline when every sample
    fails."""

    id = "random"
    name = "random sampling"
    description = "sample N random realizable points, keep the best"

    def __init__(self, samples: int = 8, seed: int = 0):
        self.samples = samples
        self.seed = seed

    def _search(self) -> SearchResult:
        rng = random.Random(self.seed)
        points = self.space.enumerable_points()
        rng.shuffle(points)
        initial = self.space.baseline_vector()
        best: Optional[DesignEvaluation] = None
        for vector in points[: self.samples]:
            evaluation = self.probe(vector)
            if evaluation is None:
                continue
            fits = evaluation.estimate.fits(self.space.board)
            self.record(evaluation, "fits" if fits else "exceeds capacity")
            if fits and (
                best is None
                or (evaluation.cycles, evaluation.space)
                < (best.cycles, best.space)
            ):
                best = evaluation
        if best is None:
            fallback = self.probe(initial)
            if fallback is not None:
                self.record(fallback, "baseline fallback")
        return self.finish(best, initial)


@register_strategy
class HillClimbStrategy(SearchStrategy):
    """Steepest descent on cycles over divisor-lattice neighbors.

    Neighbors change one loop's factor to the adjacent divisor (up or
    down).  Starts from the saturation point like the paper's search so
    the comparison isolates the *stepping* policy.
    """

    id = "hill"
    name = "hill climbing"
    description = "steepest descent on cycles over divisor neighbors"

    def __init__(self, max_steps: int = 24):
        self.max_steps = max_steps

    def _search(self) -> SearchResult:
        initial = initial_vector(
            self.saturation, loop_priority(self.space, self.saturation)
        )
        current = self.probe(initial)
        if current is not None:
            self.record(current, "initial")
        for _ in range(self.max_steps):
            if current is None:
                break
            improving: List[DesignEvaluation] = []
            for vector in self._neighbors(current.unroll):
                evaluation = self.probe(vector)
                if evaluation is None:
                    continue
                if (evaluation.estimate.fits(self.space.board)
                        and evaluation.cycles < current.cycles):
                    improving.append(evaluation)
            if not improving:
                self.record(current, "local minimum")
                break
            current = min(improving, key=lambda e: (e.cycles, e.space))
            self.record(current, "improved")
        return self.finish(current, initial)

    def _neighbors(self, vector: UnrollVector) -> List[UnrollVector]:
        found: List[UnrollVector] = []
        for depth in range(self.space.depth):
            if depth in self.space.pinned_depths:
                continue
            divisors = self.space.factors(depth)
            index = divisors.index(vector[depth])
            for step in (-1, 1):
                if 0 <= index + step < len(divisors):
                    candidate = vector.with_factor(
                        depth, divisors[index + step]
                    )
                    if self.space.is_valid(candidate):
                        found.append(candidate)
        return found


# -- new strategies -----------------------------------------------------------


@register_strategy
class ExhaustiveStrategy(SearchStrategy):
    """Evaluate every realizable point — exact on small lattices.

    The certification oracle promoted to a strategy: on spaces the
    selector deems small enough, paying for every point beats any
    heuristic.  Partitionable by construction — the fleet's point-range
    shards *are* this strategy.
    """

    id = "exhaustive"
    name = "exhaustive sweep"
    description = "evaluate every realizable point (small lattices)"
    partitionable = True

    def _search(self) -> SearchResult:
        initial = self.space.baseline_vector()
        best: Optional[DesignEvaluation] = None
        for vector in self.space.enumerable_points():
            evaluation = self.probe(vector)
            if evaluation is None:
                continue
            fits = evaluation.estimate.fits(self.space.board)
            self.record(evaluation, "fits" if fits else "exceeds capacity")
            if fits and (
                best is None
                or (evaluation.cycles, evaluation.space)
                < (best.cycles, best.space)
            ):
                best = evaluation
        return self.finish(best, initial)


@register_strategy
class GreedyAscentStrategy(SearchStrategy):
    """Greedy coordinate ascent from the no-unrolling baseline.

    Each step tries raising every loop's factor to its next divisor and
    commits the single best improving move — a cheaper, blinder cousin
    of hill climbing that never looks downward and never starts from
    the saturation analysis.
    """

    id = "greedy"
    name = "greedy ascent"
    description = "raise one loop's factor at a time while cycles improve"

    def __init__(self, max_steps: int = 32):
        self.max_steps = max_steps

    def _search(self) -> SearchResult:
        initial = self.space.baseline_vector()
        current = self.probe(initial)
        if current is not None:
            self.record(current, "initial")
        for _ in range(self.max_steps):
            if current is None:
                break
            improving: List[DesignEvaluation] = []
            for depth in range(self.space.depth):
                divisors = self.space.factors(depth)
                index = divisors.index(current.unroll[depth])
                if index + 1 >= len(divisors):
                    continue
                candidate = current.unroll.with_factor(
                    depth, divisors[index + 1]
                )
                if not self.space.is_valid(candidate):
                    continue
                evaluation = self.probe(candidate)
                if evaluation is None:
                    continue
                if (evaluation.estimate.fits(self.space.board)
                        and evaluation.cycles < current.cycles):
                    improving.append(evaluation)
            if not improving:
                self.record(current, "no improving ascent")
                break
            current = min(improving, key=lambda e: (e.cycles, e.space))
            self.record(current, "improved")
        return self.finish(current, initial)


@register_strategy
class GeneticStrategy(SearchStrategy):
    """Seeded evolutionary search over the divisor lattice.

    Deterministic under a fixed seed: the population is seeded with the
    baseline and the fully-unrolled corner plus random lattice points,
    evolved by uniform crossover and adjacent-divisor mutation, fitness
    ordered by (fits, cycles, space).
    """

    id = "genetic"
    name = "seeded genetic"
    description = "evolutionary search: crossover + divisor mutation"

    def __init__(
        self,
        population: int = 8,
        generations: int = 4,
        mutation: float = 0.25,
        seed: int = 0,
    ):
        self.population = population
        self.generations = generations
        self.mutation = mutation
        self.seed = seed

    def _search(self) -> SearchResult:
        rng = random.Random(self.seed)
        axes = [self.space.factors(depth) for depth in range(self.space.depth)]
        initial = self.space.baseline_vector()
        recorded: Set[Tuple[int, ...]] = set()
        best: Optional[DesignEvaluation] = None

        def assess(vector: UnrollVector) -> Optional[DesignEvaluation]:
            nonlocal best
            evaluation = self.probe(vector)
            if evaluation is None:
                return None
            fits = evaluation.estimate.fits(self.space.board)
            if vector.factors not in recorded:
                recorded.add(vector.factors)
                self.record(evaluation, "fits" if fits else "exceeds capacity")
            if fits and (
                best is None
                or (evaluation.cycles, evaluation.space)
                < (best.cycles, best.space)
            ):
                best = evaluation
            return evaluation

        def mutate(genes: List[int]) -> List[int]:
            for depth, divisors in enumerate(axes):
                if len(divisors) > 1 and rng.random() < self.mutation:
                    index = divisors.index(genes[depth])
                    step = rng.choice((-1, 1))
                    genes[depth] = divisors[
                        max(0, min(len(divisors) - 1, index + step))
                    ]
            return genes

        population = [initial, self.space.max_vector()]
        while len(population) < self.population:
            population.append(UnrollVector(
                tuple(rng.choice(divisors) for divisors in axes)
            ))

        for _ in range(self.generations):
            scored = []
            for vector in population:
                evaluation = assess(vector)
                if evaluation is not None:
                    scored.append((evaluation, vector))
            if not scored:
                break
            scored.sort(key=lambda pair: (
                not pair[0].estimate.fits(self.space.board),
                pair[0].cycles, pair[0].space,
            ))
            parents = [v for _, v in scored[: max(2, len(scored) // 2)]]
            children = [parents[0]]  # elitism
            while len(children) < self.population:
                mother = rng.choice(parents)
                father = rng.choice(parents)
                genes = [
                    mother[depth] if rng.random() < 0.5 else father[depth]
                    for depth in range(self.space.depth)
                ]
                children.append(UnrollVector(tuple(mutate(genes))))
            population = children
        return self.finish(best, initial)


__all__ = [
    "BalanceGuidedStrategy",
    "DEFAULT_STRATEGY",
    "ExhaustiveStrategy",
    "GeneticStrategy",
    "GreedyAscentStrategy",
    "HillClimbStrategy",
    "LinearScanStrategy",
    "RandomStrategy",
    "SearchStrategy",
    "get_strategy",
    "register_strategy",
    "strategy_ids",
]
