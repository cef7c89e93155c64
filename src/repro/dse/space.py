"""The design space: evaluation, memoization, and the exhaustive oracle.

A design point is an unroll factor vector.  ``DesignSpace`` compiles and
estimates points on demand with memoization — the paper's headline
metric is how *few* points the guided search touches, so the space
tracks exactly which points were synthesized.

Two size notions appear in the paper:

* ``size()`` — "all possible unroll factors for each loop", the product
  of trip counts; the 0.3 % search-fraction figure is relative to this;
* ``enumerable_points()`` — the divisor-constrained subset the pipeline
  can realize (factors must divide trip counts); the exhaustive oracle
  walks these to certify the guided search's selection quality.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dse.failures import POINT_FAILURES, PointDiagnostic, is_point_failure
from repro.dse.saturation import SaturationInfo
from repro.incremental.delta import delta_for
from repro.incremental.hashing import context_fingerprint, point_key, program_hash
from repro.incremental.memo import current_memo, decode_estimate, encode_estimate
from repro.obs import current_registry, current_tracer
from repro.ir.nest import LoopNest
from repro.ir.symbols import Program
from repro.synthesis.estimator import Estimate
from repro.synthesis.operators import OperatorLibrary, default_library
from repro.target.board import Board
from repro.transform.pipeline import CompiledDesign, PipelineOptions, compile_design
from repro.transform.unroll import UnrollVector


class DesignEvaluation:
    """One synthesized design point.

    Holds the point's estimate and a ``compile`` thunk, not the compiled
    design: a walk or sweep reads only estimates, and keeping every
    point's program, layout plan and reuse groups alive for the whole
    run costs memory and garbage-collection time.  ``design`` compiles
    on first access (confirmation re-estimation, differential
    validation, report printing) and keeps the result.  The pipeline is
    deterministic, so the deferred compile yields exactly the design
    the estimate was made from.
    """

    def __init__(self, unroll: UnrollVector, estimate: Estimate, compile):
        self.unroll = unroll
        self.estimate = estimate
        self._compile = compile
        self._design: Optional[CompiledDesign] = None

    @property
    def design(self) -> CompiledDesign:
        if self._design is None:
            self._design = self._compile()
        return self._design

    @property
    def design_materialized(self) -> bool:
        """True once something has read :attr:`design`."""
        return self._design is not None

    @property
    def cycles(self) -> int:
        return self.estimate.cycles

    @property
    def space(self) -> int:
        return self.estimate.space

    @property
    def balance(self) -> float:
        return self.estimate.balance

    def __str__(self) -> str:
        return f"U={self.unroll}: {self.estimate.summary()}"


class DesignSpace:
    """Evaluate design points for one program on one board, memoized."""

    def __init__(
        self,
        program: Program,
        board: Board,
        options: Optional[PipelineOptions] = None,
        library: Optional[OperatorLibrary] = None,
        pinned_depths: Optional[Tuple[int, ...]] = None,
        backend=None,
        guard=None,
        *,
        saturation: Optional[SaturationInfo] = None,
    ):
        from repro.estimate.backends import get_backend
        self.program = program
        self.board = board
        self.options = options or PipelineOptions()
        self.library = library or default_library(board.clock_ns)
        self.nest = LoopNest(program)
        #: depths forced to factor 1 (loops that add no memory parallelism).
        self.pinned_depths = tuple(pinned_depths or ())
        #: which estimation model answers (repro.estimate.EstimatorBackend);
        #: ``None`` resolves to the analytic default.
        self.backend = get_backend(backend)
        #: optional :class:`repro.service.guard.EstimationGuard` every
        #: backend call runs under (deadline, retries, validation).
        self.guard = guard
        #: the program's saturation analysis on this board, when the code
        #: that made the space already ran it
        #: (:func:`repro.dse.explorer.auto_pinned_space` does); a strategy
        #: runs it itself when this is ``None``.
        self.saturation = saturation
        #: every point this space evaluated — ``points_searched``, the
        #: paper's fraction-searched metric, counts these.
        self._cache: Dict[Tuple[int, ...], DesignEvaluation] = {}
        #: per-point failure diagnostics, keyed like the success cache.
        #: Failures are *not* memoized (an injected or flaky backend can
        #: recover, and re-raising a deterministic error is cheap); a
        #: point that later succeeds drops its stale diagnostic.
        self._infeasible: Dict[Tuple[int, ...], PointDiagnostic] = {}
        #: context fingerprints for point-memo keys, per backend id.
        self._memo_contexts: Dict[str, str] = {}

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, unroll: UnrollVector) -> DesignEvaluation:
        """Compile + synthesize one point (cached).

        Raises the underlying typed error on failure; permanent
        single-point failures are additionally recorded as
        :class:`PointDiagnostic` records (see :meth:`infeasible_points`)
        so fail-soft callers can report them.
        """
        key = unroll.factors
        if key not in self._cache:
            started = time.monotonic()
            with current_tracer().span(
                "dse.point",
                kernel=self.program.name,
                unroll=list(key),
                backend=self.backend.id,
            ) as span:
                try:
                    evaluation = self._evaluate_point(unroll, span)
                except POINT_FAILURES as error:
                    if not is_point_failure(error):
                        raise
                    diagnostic = PointDiagnostic.from_error(
                        unroll, error, kernel=self.program.name
                    )
                    self._infeasible[key] = diagnostic
                    span.set_attribute("outcome", "infeasible")
                    current_registry().counter(
                        "dse.point_failures", kind=diagnostic.kind
                    ).inc()
                    raise
                finally:
                    current_registry().histogram("dse.point_seconds").observe(
                        time.monotonic() - started
                    )
                estimate = evaluation.estimate
                span.set_attribute("outcome", "ok")
                span.set_attribute("cycles", estimate.cycles)
                span.set_attribute("space", estimate.space)
                span.set_attribute("balance", estimate.balance)
            self._cache[key] = evaluation
            self._infeasible.pop(key, None)
        return self._cache[key]

    def _evaluate_point(self, unroll: UnrollVector, span) -> DesignEvaluation:
        """One point's estimate, via the ambient memo when incremental
        evaluation is on.

        A point-memo hit skips the entire pipeline: the stored estimate
        decodes to exactly what recomputation would produce (the key
        covers the source program, factors, board, library, options,
        and backend).  A miss runs from scratch inside a ``begin_point``
        scope so region/verify reuse and the structural delta land on
        the span.  Either way the compiled design is dropped once
        estimated; :class:`DesignEvaluation` recompiles it on demand.
        """
        compile = functools.partial(
            compile_design, self.program, unroll, self.board.num_memories,
            self.options,
        )
        memo = current_memo()
        if memo is None:
            span.set_attribute("incremental", "off")
            return DesignEvaluation(unroll, self.estimate(compile()), compile)
        pkey = self._point_key(unroll, self.backend.id)
        with memo.begin_point() as stats:
            entry = memo.point_get(pkey)
            estimate = self._decode_point(memo, entry)
            if estimate is not None:
                span.set_attribute("incremental", "hit")
            else:
                estimate = self.estimate(compile())
                memo.point_put(pkey, encode_estimate(estimate))
                span.set_attribute("incremental", "miss")
                delta = delta_for(memo)
                for name, value in delta.as_attrs().items():
                    span.set_attribute(name, value)
            span.set_attribute(
                "incremental.reused_regions", stats.reused_regions
            )
            span.set_attribute("incremental.verify_skips", stats.verify_skips)
        return DesignEvaluation(unroll, estimate, compile)

    def estimate(self, design: CompiledDesign, backend=None) -> Estimate:
        """The one backend call: estimate ``design`` on ``backend``
        (default: this space's navigation backend).

        Under a guard the call gets its deadline, transient retries, and
        corrupt-estimate validation; either way it records one
        ``estimate.call`` span.  Nothing here memoizes — callers own the
        point-domain lookup, so a failure is never stored.
        """
        backend = self.backend if backend is None else backend
        args = (design.program, self.board, design.plan, self.library)
        if self.guard is not None:
            return self.guard.call(backend.estimate, *args, backend=backend.id)
        with current_tracer().span("estimate.call", backend=backend.id):
            return backend.estimate(*args)

    def _point_key(self, unroll: UnrollVector, backend_id: str) -> str:
        context = self._memo_contexts.get(backend_id)
        if context is None:
            context = context_fingerprint(
                self.board, self.library, self.options, backend_id
            )
            self._memo_contexts[backend_id] = context
        return point_key(program_hash(self.program), unroll.factors, context)

    @staticmethod
    def _decode_point(memo, entry) -> Optional[Estimate]:
        """Decode a stored point estimate; an undecodable entry (schema
        drift in a shared journal) counts as an invalidation and the
        point re-runs from scratch."""
        if entry is None:
            return None
        try:
            return decode_estimate(entry)
        except (KeyError, TypeError, ValueError):
            memo.invalidate(reason="undecodable")
            return None

    def try_evaluate(self, unroll: UnrollVector) -> Optional[DesignEvaluation]:
        """Like :meth:`evaluate`, but permanent single-point failures
        return ``None`` (diagnostic recorded) instead of raising.
        Transient failures still propagate — retry machinery owns those.
        """
        try:
            return self.evaluate(unroll)
        except POINT_FAILURES as error:
            if not is_point_failure(error):
                raise
            return None

    def reestimate(self, evaluation: DesignEvaluation, backend) -> Estimate:
        """Re-estimate an evaluated point on another backend.

        Leaves :attr:`points_evaluated` alone (confirmation is not
        search effort).  With an ambient memo the lookup goes through
        the point domain under the *confirming* backend's context, so a
        repeat confirmation is a hit, a navigation entry is never served
        to it, and a hit skips compiling a deferred design.  Point
        failures propagate as the usual typed estimation errors and are
        never memoized.
        """
        from repro.estimate.backends import get_backend
        confirmer = get_backend(backend)
        memo = current_memo()
        if memo is None:
            return self.estimate(evaluation.design, confirmer)
        pkey = self._point_key(evaluation.unroll, confirmer.id)
        estimate = self._decode_point(memo, memo.point_get(pkey))
        if estimate is None:
            estimate = self.estimate(evaluation.design, confirmer)
            memo.point_put(pkey, encode_estimate(estimate))
        return estimate

    @property
    def points_evaluated(self) -> int:
        return len(self._cache)

    @property
    def points_failed(self) -> int:
        return len(self._infeasible)

    def evaluated(self) -> List[DesignEvaluation]:
        return list(self._cache.values())

    def infeasible_points(self) -> List[PointDiagnostic]:
        """Diagnostics for every point that failed (and never recovered),
        in insertion order."""
        return list(self._infeasible.values())

    # -- geometry --------------------------------------------------------------

    @property
    def depth(self) -> int:
        return self.nest.depth

    @property
    def max_factors(self) -> Tuple[int, ...]:
        """Umax: full unrolling, with pinned loops at 1."""
        return tuple(self.factors(depth)[-1] for depth in range(self.depth))

    def baseline_vector(self) -> UnrollVector:
        """Ubase: no unrolling."""
        return UnrollVector.ones(self.depth)

    def max_vector(self) -> UnrollVector:
        return UnrollVector(self.max_factors)

    def is_valid(self, unroll: UnrollVector) -> bool:
        """Factors divide trip counts and respect pinned loops."""
        for depth, (factor, trip) in enumerate(zip(unroll, self.nest.trip_counts)):
            if depth in self.pinned_depths and factor != 1:
                return False
            trip = max(trip, 1)
            if factor > trip or trip % factor != 0:
                return False
        return True

    def size(self) -> int:
        """The paper's design-space size: all possible unroll factors —
        the product of the trip counts."""
        total = 1
        for trip in self.nest.trip_counts:
            total *= max(trip, 1)
        return total

    def factors(self, depth: int) -> List[int]:
        """The realizable unroll factors of one loop, ascending: the
        divisors of its trip count (an empty loop counts as one trip, as
        in ``size``), or just 1 when it is pinned."""
        if depth in self.pinned_depths:
            return [1]
        trip = max(self.nest.trip_counts[depth], 1)
        return [f for f in range(1, trip + 1) if trip % f == 0]

    def points_between(
        self, small: UnrollVector, large: UnrollVector
    ) -> List[UnrollVector]:
        """Every realizable point component-wise between two vectors,
        in lexicographic order."""
        axes = [
            [f for f in self.factors(depth) if small[depth] <= f <= large[depth]]
            for depth in range(self.depth)
        ]
        return [UnrollVector(point) for point in itertools.product(*axes)]

    def enumerable_points(self) -> List[UnrollVector]:
        """Every realizable (divisor-constrained) point."""
        return self.points_between(self.baseline_vector(), self.max_vector())

    # -- the oracle --------------------------------------------------------------

    def exhaustive_search(self) -> "ExhaustiveResult":
        """Evaluate every realizable point; the certification oracle.

        Points whose compilation is illegal (dependence violations) are
        skipped.  The best design minimizes cycles among capacity-feasible
        points, breaking ties by space — the paper's optimization
        criteria from Section 3.
        """
        evaluations: List[DesignEvaluation] = []
        for unroll in self.enumerable_points():
            evaluation = self.try_evaluate(unroll)
            if evaluation is not None:
                evaluations.append(evaluation)
        feasible = [
            e for e in evaluations if e.estimate.fits(self.board)
        ]
        pool = feasible or evaluations
        if not pool:
            from repro.errors import NoFeasiblePoint
            raise NoFeasiblePoint(
                f"exhaustive search over {self.program.name}: every point "
                f"failed ({self.points_failed} failures)"
            )
        best = min(pool, key=lambda e: (e.cycles, e.space))
        return ExhaustiveResult(evaluations=evaluations, best=best)


@dataclass
class ExhaustiveResult:
    evaluations: List[DesignEvaluation]
    best: DesignEvaluation

    def within_performance(self, slack: float = 0.05) -> List[DesignEvaluation]:
        """Feasible designs whose cycle count is within ``slack`` of the
        best — the "comparable performance" pool for the smallest-design
        criterion."""
        limit = self.best.cycles * (1.0 + slack)
        return [e for e in self.evaluations if e.cycles <= limit]
