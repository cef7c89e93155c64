"""Estimation backends: who answers "how fast, how big?" and how.

The DSE used to trust one analytic estimator implicitly.  This module
makes the estimator a first-class, attributable choice: every
:class:`EstimatorBackend` turns a compiled design into an
:class:`~repro.synthesis.estimator.Estimate` stamped with a
:class:`Provenance` record (backend id, fidelity rank, content-hash
cache key), so a number in a report can always be traced to the model
that produced it.  Three backends ship:

``analytic`` (fidelity 0)
    The paper's behavioral-synthesis stand-in
    (:func:`repro.synthesis.estimator.synthesize`) behind the
    interface.  Cheap — the search navigates on it.

``placeroute`` (fidelity 1)
    The Section 6.4 post-synthesis degradation model
    (:func:`repro.synthesis.placeroute.place_and_route`) promoted from
    benchmark helper to backend: same cycle count, placed (grown)
    slices, achieved (degraded) clock.

``interp`` (fidelity 2)
    Cycle-accurate and authoritative: instead of the closed-form
    ``trip * (body + 1)`` cycle model, it steps the FSM through *every*
    loop iteration, and additionally executes the design on the
    reference IR interpreter (:mod:`repro.ir.interp`) to prove the
    program actually runs — out-of-bounds subscripts or division by
    zero that the analytic model would happily cost out become typed
    estimation failures here.  Slow by construction; callers bound it
    with the interpreter step budget, and the batch service's
    :class:`~repro.service.guard.EstimationGuard` deadlines apply
    whenever a guard fronts the call.

Higher ``fidelity`` means more authoritative, not better in every way —
the multi-fidelity search navigates on a low-fidelity backend and
confirms the selection on a high-fidelity one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import EstimationError
from repro.ir.interp import Interpreter, InterpError
from repro.ir.symbols import Program
from repro.layout.mapping import map_memories
from repro.layout.plan import LayoutPlan
from repro.synthesis.dfg import DataflowBuilder
from repro.synthesis.estimator import (
    Estimate, LOOP_OVERHEAD_CYCLES, synthesize,
)
from repro.synthesis.operators import OperatorLibrary, default_library
from repro.synthesis.placeroute import place_and_route
from repro.synthesis.regions import Block, Region, program_blocks
from repro.synthesis.scheduling import ResourceConstraints, schedule_region
from repro.target.board import Board

#: The backend every pre-backend call site implicitly used.
DEFAULT_BACKEND = "analytic"


@dataclass(frozen=True)
class Provenance:
    """Where an estimate came from.

    Attributes:
        backend: registered backend id (``analytic``/``interp``/...).
        fidelity: the backend's authority rank (higher = more trusted).
        cache_key: content hash of everything the estimate depends on,
            *including* the backend id
            (:func:`repro.incremental.hashing.design_key`), so two
            backends' estimates of one design never share a key.
        details: small primitive facts the backend measured along the
            way (dynamic memory ops, clock degradation, ...), as a
            sorted key/value tuple so the record stays hashable and
            JSON-round-trippable.
    """

    backend: str
    fidelity: int
    cache_key: str = ""
    details: Tuple[Tuple[str, Any], ...] = ()

    def detail(self, key: str, default: Any = None) -> Any:
        for name, value in self.details:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "fidelity": self.fidelity,
            "cache_key": self.cache_key,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Provenance":
        return cls(
            backend=str(record.get("backend", "")),
            fidelity=int(record.get("fidelity", 0)),
            cache_key=str(record.get("cache_key", "")),
            details=tuple(sorted((record.get("details") or {}).items())),
        )


class EstimatorBackend:
    """The estimation interface the DSE navigates against.

    Subclasses set ``id`` (registry name, cache-key component) and
    ``fidelity`` (authority rank), and implement :meth:`_estimate`.
    The public :meth:`estimate` wraps it to guarantee the returned
    estimate carries a complete :class:`Provenance`.
    """

    id: str = "abstract"
    fidelity: int = 0

    def estimate(
        self,
        program: Program,
        board: Board,
        plan: Optional[LayoutPlan] = None,
        library: Optional[OperatorLibrary] = None,
        constraints: Optional[ResourceConstraints] = None,
    ) -> Estimate:
        library = library or default_library(board.clock_ns)
        estimate = self._estimate(program, board, plan, library, constraints)
        provenance = estimate.provenance
        if not isinstance(provenance, Provenance) or not provenance.cache_key:
            details = (
                provenance.details
                if isinstance(provenance, Provenance) else ()
            )
            estimate = estimate.with_provenance(Provenance(
                backend=self.id,
                fidelity=self.fidelity,
                cache_key=self.cache_key(program, board, plan, library),
                details=details,
            ))
        return estimate

    def _estimate(
        self,
        program: Program,
        board: Board,
        plan: Optional[LayoutPlan],
        library: OperatorLibrary,
        constraints: Optional[ResourceConstraints],
    ) -> Estimate:
        raise NotImplementedError

    def cache_key(
        self,
        program: Program,
        board: Board,
        plan: Optional[LayoutPlan],
        library: Optional[OperatorLibrary] = None,
    ) -> str:
        """Content hash covering the design *and* this backend's id."""
        from repro.incremental.hashing import design_key
        library = library or default_library(board.clock_ns)
        return design_key(program, board, plan, library, self.id)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r}, fidelity={self.fidelity})"


class AnalyticBackend(EstimatorBackend):
    """The existing closed-form estimator, lifted behind the interface."""

    id = "analytic"
    fidelity = 0

    def _estimate(self, program, board, plan, library, constraints):
        return synthesize(program, board, plan, library, constraints)


class PlaceRouteBackend(EstimatorBackend):
    """Section 6.4's post-implementation model as a backend.

    Cycles never change through logic synthesis + P&R (the paper's
    finding); space grows to the placed slice count and the clock
    degrades with routing pressure, so execution time and capacity
    checks reflect the implemented design, not the behavioral estimate.
    """

    id = "placeroute"
    fidelity = 1

    def _estimate(self, program, board, plan, library, constraints):
        behavioral = synthesize(program, board, plan, library, constraints)
        implemented = place_and_route(behavioral, board)
        return replace(
            behavioral,
            space=implemented.space,
            clock_ns=implemented.achieved_clock_ns,
            provenance=Provenance(
                backend=self.id,
                fidelity=self.fidelity,
                details=(
                    ("behavioral_space", behavioral.space),
                    ("clock_degradation",
                     round(implemented.clock_degradation, 6)),
                    ("meets_target_clock", implemented.meets_target_clock),
                    ("space_growth", round(implemented.space_growth, 6)),
                ),
            ),
        )


class InterpBackend(EstimatorBackend):
    """Cycle-accurate estimation driven by the reference interpreter.

    Two passes, both strictly slower than the analytic model:

    1. **FSM simulation** — walks the region tree stepping every loop
       iteration individually (no ``trip * body`` shortcut), summing
       each region execution's schedule length plus the per-iteration
       FSM overhead.  The analytic closed form is thereby *checked*,
       not assumed.
    2. **Semantic execution** — runs the transformed program on
       :class:`~repro.ir.interp.Interpreter` with deterministic
       zero-filled inputs under ``max_steps``; a design whose code
       faults (out-of-bounds subscript after a bad transform, division
       by zero) raises a permanent
       :class:`~repro.errors.EstimationError` instead of returning a
       confident number for a broken design.

    Area and the balance rates are structural, so they come from the
    analytic model unchanged.  Interpreter faults — including the step
    budget — surface as ``EstimationError`` so the fail-soft DSE treats
    them as single-point failures.
    """

    id = "interp"
    fidelity = 2

    def __init__(self, max_steps: int = 5_000_000, execute: bool = True):
        #: interpreter step budget — the in-process deadline; the
        #: service-level EstimationGuard deadline additionally applies
        #: whenever a guard fronts this backend.
        self.max_steps = max_steps
        #: semantic execution can be disabled for pure cycle accounting.
        self.execute = execute

    def _estimate(self, program, board, plan, library, constraints):
        structural = synthesize(program, board, plan, library, constraints)
        cycles, regions_executed = self._simulate_cycles(
            program, board, plan, library, constraints
        )
        details: List[Tuple[str, Any]] = [
            ("analytic_cycles", structural.cycles),
            ("regions_executed", regions_executed),
            ("simulated", True),
        ]
        if self.execute:
            try:
                state = Interpreter(program, max_steps=self.max_steps).run()
            except InterpError as error:
                raise EstimationError(
                    f"interp backend: {program.name} does not execute: "
                    f"{error}"
                ) from error
            details.extend([
                ("memory_reads", state.memory_reads),
                ("memory_writes", state.memory_writes),
            ])
        return replace(
            structural,
            cycles=cycles,
            provenance=Provenance(
                backend=self.id,
                fidelity=self.fidelity,
                details=tuple(sorted(details)),
            ),
        )

    def _simulate_cycles(
        self, program, board, plan, library, constraints
    ) -> Tuple[int, int]:
        """Step the control FSM through every iteration of every loop."""
        if plan is not None:
            physical = dict(plan.physical)
            interleaved = dict(plan.interleaved)
        else:
            physical, interleaved = map_memories(program, board.num_memories)
        from repro.synthesis.area import index_variable_widths
        index_widths = index_variable_widths(program)
        lengths: Dict[int, int] = {}

        def region_length(region: Region) -> int:
            key = id(region)
            if key not in lengths:
                builder = DataflowBuilder(
                    program, physical, index_widths, interleaved
                )
                schedule = schedule_region(
                    builder.build(region), board.memory, library, constraints
                )
                lengths[key] = schedule.length
            return lengths[key]

        executed = 0

        def run_block(block: Block) -> int:
            nonlocal executed
            if isinstance(block, Region):
                executed += 1
                return region_length(block)
            total = 0
            # The deliberate slow path: one pass of the body per actual
            # iteration, exactly as the generated FSM would sequence it.
            for _ in range(block.trip_count):
                body = 0
                for child in block.children:
                    body += run_block(child)
                total += body + LOOP_OVERHEAD_CYCLES
            return total

        total_cycles = 0
        for block in program_blocks(program):
            total_cycles += run_block(block)
        return total_cycles, executed


# -- registry -----------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], EstimatorBackend]] = {}


def register_backend(
    backend_id: str, factory: Callable[[], EstimatorBackend]
) -> None:
    """Register (or replace) a backend factory under ``backend_id``."""
    _FACTORIES[backend_id] = factory


def backend_ids() -> Tuple[str, ...]:
    """Registered backend ids, sorted by fidelity then name."""
    built = [(factory().fidelity, name) for name, factory in _FACTORIES.items()]
    return tuple(name for _fidelity, name in sorted(built))


def get_backend(
    spec: Union[str, EstimatorBackend, None]
) -> EstimatorBackend:
    """Resolve a backend id (or pass an instance through).

    ``None`` means the historical default — the analytic estimator.
    """
    if spec is None:
        spec = DEFAULT_BACKEND
    if isinstance(spec, EstimatorBackend):
        return spec
    factory = _FACTORIES.get(spec)
    if factory is None:
        raise EstimationError(
            f"unknown estimation backend {spec!r}; "
            f"registered: {', '.join(backend_ids())}"
        )
    return factory()


register_backend("analytic", AnalyticBackend)
register_backend("placeroute", PlaceRouteBackend)
register_backend("interp", InterpBackend)
