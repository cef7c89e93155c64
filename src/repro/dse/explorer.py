"""Top-level exploration API.

``explore(program, board)`` runs the whole paper pipeline for one loop
nest: saturation analysis, balance-guided search (Figure 2), baseline
evaluation, and the bookkeeping behind the paper's headline numbers
(speedup over the no-unrolling baseline, fraction of the design space
searched).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.dse.failures import PointDiagnostic
from repro.dse.saturation import SaturationInfo, analyze_saturation
from repro.dse.search import SearchOptions, SearchResult
from repro.dse.selector import SelectionDecision, select_strategy
from repro.dse.space import DesignEvaluation, DesignSpace
from repro.dse.strategy import DEFAULT_STRATEGY, get_strategy
from repro.errors import SearchError
from repro.estimate.backends import get_backend
from repro.estimate.differential import DifferentialReport, validate_run
from repro.estimate.multifidelity import ConfirmationResult, confirm_selection
from repro.ir.nest import LoopNest
from repro.ir.symbols import Program
from repro.obs import ObsConfig, Tracer, current_tracer, use_registry, use_tracer
from repro.synthesis.operators import OperatorLibrary
from repro.target.board import Board
from repro.transform.pipeline import PipelineOptions
from repro.transform.unroll import UnrollVector


@dataclass
class ExplorationResult:
    """Everything the paper reports about one kernel's exploration."""

    program_name: str
    board_name: str
    selected: DesignEvaluation
    baseline: DesignEvaluation
    search: SearchResult
    design_space_size: int
    points_searched: int
    #: diagnostics for design points that failed and were skipped
    #: (fail-soft search); empty on a clean run.
    infeasible: Tuple[PointDiagnostic, ...] = ()
    #: the no-unrolling baseline itself failed, so ``baseline`` is the
    #: selected design standing in (speedup degenerates to 1.0).
    baseline_degraded: bool = False
    #: id of the estimation backend the walk navigated on.
    backend: str = "analytic"
    #: ``--fidelity=multi`` only: the authoritative re-estimates of the
    #: selected and baseline designs.
    confirmation: Optional[ConfirmationResult] = None
    #: ``--fidelity=multi`` only: cross-backend rank agreement and
    #: Observation 1-3 checks over sampled visited points.
    differential: Optional[DifferentialReport] = None
    #: id of the search strategy that drove the walk.
    strategy: str = DEFAULT_STRATEGY
    #: ``--strategy auto`` only: what the selector picked and why.
    strategy_selection: Optional[SelectionDecision] = None
    #: incremental-evaluation stats for this run (hits/misses/
    #: invalidations and memo sizes); ``None`` with ``--no-incremental``.
    memo_stats: Optional[dict] = None

    @property
    def speedup(self) -> float:
        """Cycle-count speedup of the selected design over the baseline
        (the Table 2 metric)."""
        if self.selected.cycles == 0:
            return float("inf")
        return self.baseline.cycles / self.selected.cycles

    @property
    def fraction_searched(self) -> float:
        """Points synthesized over the full design space size (the
        "0.3 % of the design space" metric)."""
        return self.points_searched / self.design_space_size

    @property
    def saturation(self) -> SaturationInfo:
        return self.search.saturation

    def report(self) -> str:
        lines = [
            f"kernel {self.program_name} on {self.board_name}",
        ]
        if self.strategy != DEFAULT_STRATEGY:
            lines.append(f"  strategy: {self.strategy}")
        if self.strategy_selection is not None:
            lines.append(f"    auto: {self.strategy_selection.reason}")
        lines.extend([
            f"  saturation: R={self.saturation.read_sets} "
            f"W={self.saturation.write_sets} Psat={self.saturation.psat}",
            f"  initial point: U={self.search.initial}",
        ])
        for step in self.search.trace:
            lines.append(f"    {step}")
        lines.append(
            f"  selected U={self.selected.unroll}: "
            f"{self.selected.estimate.summary()}"
        )
        if self.baseline_degraded:
            lines.append(
                "  baseline: infeasible (using selected design as reference)"
            )
        else:
            lines.append(
                f"  baseline: {self.baseline.estimate.summary()}"
            )
        if self.infeasible:
            lines.append(f"  infeasible points: {len(self.infeasible)}")
            for diagnostic in self.infeasible:
                lines.append(f"    {diagnostic}")
        lines.append(
            f"  speedup {self.speedup:.2f}x, searched {self.points_searched} "
            f"of {self.design_space_size} points "
            f"({100 * self.fraction_searched:.2f}%)"
        )
        for switch in self.search.fidelity_switches:
            lines.append(
                f"  fidelity switch at U={list(switch.unroll)}: "
                f"{switch.from_backend} -> {switch.to_backend}, "
                f"cycles {switch.cycles_before} -> {switch.cycles_after} "
                f"({switch.reason})"
            )
        if self.confirmation is not None:
            confirmation = self.confirmation
            lines.append(
                f"  fidelity: multi "
                f"(navigate={confirmation.navigation_backend}, "
                f"confirm={confirmation.backend})"
            )
            lines.append(
                f"  navigation selected ({confirmation.navigation_backend}): "
                f"{confirmation.navigation_selected.summary()}"
            )
            if confirmation.selected is not None:
                lines.append(
                    f"  confirmed selected ({confirmation.backend}): "
                    f"{confirmation.selected.summary()}"
                )
            if confirmation.selected_cycle_error is not None:
                lines.append(
                    f"  navigation cycle error: "
                    f"{100 * confirmation.selected_cycle_error:.2f}%"
                )
            if confirmation.baseline is not None:
                lines.append(
                    f"  confirmed baseline ({confirmation.backend}): "
                    f"{confirmation.baseline.summary()}"
                )
            if confirmation.confirmed_speedup is not None:
                lines.append(
                    f"  confirmed speedup "
                    f"{confirmation.confirmed_speedup:.2f}x"
                )
            if confirmation.error:
                lines.append(
                    f"  confirmation failed: {confirmation.error}"
                )
        if self.differential is not None:
            for line in self.differential.table().render().splitlines():
                lines.append(f"  {line}")
            for violation in self.differential.violations:
                lines.append(f"  monotonicity violation: {violation}")
            for failure in self.differential.failures:
                lines.append(f"  differential estimate failed: {failure}")
        return "\n".join(lines)


@dataclass
class ExploreConfig:
    """The single configuration object :func:`explore` accepts.

    Bundles every exploration knob that used to travel as its own
    keyword argument, plus the observability configuration:

    Attributes:
        search: Figure-2 tunables (balance tolerance, iteration cap).
        pipeline: code-generation knobs (outer-loop reuse, layout...).
        library: operator latency/area calibration.
        pinned_depths: loops to exclude from unrolling entirely; when
            omitted, loops that add no memory parallelism are pinned
            automatically (the paper fixes MM's innermost loop this way).
        guard: an :class:`repro.service.guard.EstimationGuard` every
            backend call runs under (per-call deadline, transient
            retries, corrupt-estimate validation) — navigation,
            confirmation, and differential re-estimates alike.  The
            batch and server workers pass one here; ``None`` calls the
            backend bare.
        obs: how to observe the run (:class:`repro.obs.ObsConfig`).
            ``None`` leaves the ambient tracer/registry alone — spans
            still flow to whatever an enclosing orchestrator installed.
        backend: which estimation backend the walk navigates on — a
            registered id (``analytic``/``placeroute``/``interp``), an
            :class:`repro.estimate.EstimatorBackend` instance, or
            ``None`` for the analytic default.
        fidelity: ``"single"`` (default) estimates everything on
            ``backend``; ``"multi"`` additionally re-estimates the
            selected and baseline designs on ``confirm_backend`` and
            runs the differential validator over sampled visited points.
        confirm_backend: the authoritative backend for ``"multi"``
            confirmation; ``None`` defaults to ``interp``.
        differential_samples: how many visited points the validator
            re-estimates per run.
        differential_seed: seed for the validator's point sampling.
    """

    search: Optional[SearchOptions] = None
    pipeline: Optional[PipelineOptions] = None
    library: Optional[OperatorLibrary] = None
    pinned_depths: Optional[Tuple[int, ...]] = None
    guard: Optional[Any] = None
    obs: Optional[ObsConfig] = None
    backend: Optional[Any] = None
    fidelity: str = "single"
    confirm_backend: Optional[Any] = None
    differential_samples: int = 6
    differential_seed: int = 0
    #: ``--strategy auto`` only: recorded per-strategy win rates
    #: (:class:`repro.dse.selector.StrategyScoreboard`) the selector may
    #: consult; ``None`` selects from space features alone.
    scoreboard: Optional[Any] = None
    #: incremental evaluation (cross-point reuse via
    #: :mod:`repro.incremental`) — on by default; ``--no-incremental``
    #: turns it off and every point runs from scratch.
    incremental: bool = True
    #: an existing :class:`repro.incremental.MemoStore` to run against;
    #: batch and server jobs and fleet walk shards pass their process's
    #: resident store (:func:`repro.incremental.resident_memo`).  The
    #: run flushes it but leaves it open.  ``None`` constructs a fresh
    #: store per call.
    memo: Optional[Any] = None
    #: directory for the persistent memo journal (convention:
    #: ``<run-dir or state-dir>/memo``); only consulted when ``memo``
    #: is ``None``.  ``None`` keeps the memo ephemeral.
    memo_dir: Optional[Any] = None


def explore(
    program: Program,
    board: Board,
    *,
    config: Optional[ExploreConfig] = None,
) -> ExplorationResult:
    """Run the full DEFACTO design space exploration for one loop nest.

    Args:
        program: a compiled C-subset program containing one loop nest.
        board: the synthesis target (e.g. ``wildstar_pipelined()``).
        config: every exploration knob, bundled — see
            :class:`ExploreConfig`.

    Returns an :class:`ExplorationResult`; ``result.selected`` carries
    the chosen design (transformed program, layout plan, estimate).
    When ``config.obs`` is enabled, the run's spans and metrics are
    collected on ``config.obs.tracer`` / ``config.obs.metrics``
    (materialized in place if the caller left them ``None``), and spans
    are additionally appended to ``config.obs.spans_path`` if set.
    """
    config = config or ExploreConfig()
    obs = config.obs
    with ExitStack() as stack:
        if obs is not None:
            stack.enter_context(use_tracer(obs.active_tracer()))
            if obs.enabled:
                stack.enter_context(use_registry(obs.metrics))
        memo = None
        if config.incremental:
            from repro.incremental.memo import use_memo
            memo = config.memo
            if memo is None:
                from repro.incremental.journal import open_memo
                memo = open_memo(config.memo_dir)
            stack.enter_context(use_memo(memo))
        with current_tracer().span(
            "dse.explore", kernel=program.name, board=board.name
        ) as span:
            result = _explore(program, board, config)
            span.set_attribute("backend", result.backend)
            span.set_attribute("strategy", result.strategy)
            span.set_attribute("fidelity", config.fidelity)
            span.set_attribute("points_searched", result.points_searched)
            span.set_attribute("design_space_size", result.design_space_size)
            span.set_attribute("speedup", result.speedup)
            span.set_attribute("baseline_degraded", result.baseline_degraded)
            span.set_attribute("incremental", config.incremental)
        if memo is not None:
            # Flush before reading the counters: a failed or damaged
            # journal write counts invalidations, and those belong in
            # this run's stats.
            memo.flush()
            result.memo_stats = {
                "hits": memo.hits,
                "misses": memo.misses,
                "point_hits": memo.point_hits,
                "point_misses": memo.point_misses,
                "invalidations": memo.invalidations,
                "entries": memo.counts(),
            }
    if (
        obs is not None
        and obs.enabled
        and obs.spans_path is not None
        and isinstance(obs.tracer, Tracer)
    ):
        obs.tracer.write_jsonl(obs.spans_path, mode="a")
    return result


def auto_pinned_space(
    program: Program,
    board: Board,
    options: Optional[PipelineOptions] = None,
    library: Optional[OperatorLibrary] = None,
    *,
    backend=None,
    guard=None,
) -> DesignSpace:
    """The design space with every loop that adds no memory parallelism
    pinned to factor 1.

    Pins every loop outside the saturation analysis's
    ``memory_varying_depths`` (the paper fixes MM's innermost loop this
    way).  The explorer uses it when no explicit pins are given, and
    the fleet partitions the same lattice into shards.  The space
    carries the analysis, so the walk over it does not run it again.
    """
    saturation = analyze_saturation(program, board.num_memories)
    varying = set(saturation.memory_varying_depths)
    pins = tuple(
        depth for depth in range(LoopNest(program).depth)
        if depth not in varying
    )
    return DesignSpace(
        program, board, options, library, pins, backend=backend, guard=guard,
        saturation=saturation,
    )


def _explore(
    program: Program, board: Board, config: ExploreConfig
) -> ExplorationResult:
    if config.fidelity not in ("single", "multi"):
        raise SearchError(
            f"unknown fidelity {config.fidelity!r}; use 'single' or 'multi'"
        )
    backend = get_backend(config.backend)
    search_options = config.search or SearchOptions()
    if config.pinned_depths is None:
        space = auto_pinned_space(
            program, board, config.pipeline, config.library,
            backend=backend, guard=config.guard,
        )
    else:
        space = DesignSpace(
            program, board, config.pipeline, config.library,
            config.pinned_depths, backend=backend, guard=config.guard,
        )

    requested = getattr(search_options, "strategy", None) or DEFAULT_STRATEGY
    selection = None
    if requested == "auto":
        selection = select_strategy(space, config.scoreboard)
        strategy = get_strategy(selection.strategy)
    else:
        strategy = get_strategy(requested)

    confirmer = None
    if config.fidelity == "multi":
        confirmer = get_backend(config.confirm_backend or "interp")

    result = strategy.run(space, search_options, confirm_backend=confirmer)
    # Fail-soft baseline: a baseline that cannot be evaluated (typically
    # under injected faults — the unrolled points were fine) degrades to
    # the selected design as its own reference instead of aborting the
    # whole exploration.
    baseline = space.try_evaluate(space.baseline_vector())
    baseline_degraded = baseline is None
    if baseline is None:
        baseline = result.selected

    confirmation = None
    differential = None
    if config.fidelity == "multi":
        confirmation = confirm_selection(
            space, result.selected, baseline, confirmer,
        )
        differential = validate_run(
            space, space.evaluated(), [backend, confirmer],
            samples=config.differential_samples,
            seed=config.differential_seed, kernel=program.name,
        )

    return ExplorationResult(
        program_name=program.name,
        board_name=board.name,
        selected=result.selected,
        baseline=baseline,
        search=result,
        design_space_size=space.size(),
        points_searched=space.points_evaluated,
        infeasible=tuple(space.infeasible_points()),
        baseline_degraded=baseline_degraded,
        backend=backend.id,
        confirmation=confirmation,
        differential=differential,
        strategy=result.strategy,
        strategy_selection=selection,
    )
