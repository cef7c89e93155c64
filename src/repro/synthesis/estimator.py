"""Behavioral synthesis estimation — the Monet(TM) stand-in.

``synthesize(program, board, plan)`` returns an :class:`Estimate` with
the two quantities the DSE algorithm consumes — ``space`` (slices) and
``cycles`` — plus the fetch/consumption rates behind the balance metric
and a full breakdown for reports.

Cycle model: each straight-line region is ASAP-scheduled under memory
port constraints (:mod:`repro.synthesis.scheduling`); a loop costs
``trip_count * (body_cycles + 1)`` — one cycle of FSM overhead per
iteration for the counter increment/test.

Balance: computed over the *steady-state nest* (the top-level loop whose
regions execute most — prologues peeled off by the compiler run once and
epilogues cover leftovers).  With per-region execution counts ``n_r``::

    F = sum(bits_r * n_r) / sum(mem_only_r * n_r)      [bits/cycle]
    C = sum(bits_r * n_r) / sum(compute_only_r * n_r)  [bits/cycle]
    Balance = F / C

which reduces to compute-time over memory-time: Balance < 1 means the
datapath waits on memory (memory bound), > 1 means memory waits on the
datapath (compute bound), exactly Section 3's reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SynthesisError
from repro.ir.symbols import Program
from repro.layout.mapping import map_memories
from repro.layout.plan import LayoutPlan
from repro.synthesis.area import (
    AreaBreakdown, controller_area, index_variable_widths,
    memory_interface_area, operator_area, register_area,
)
from repro.synthesis.dfg import DataflowBuilder
from repro.synthesis.operators import OperatorLibrary, default_library
from repro.synthesis.regions import Block, LoopBlock, Region, program_blocks
from repro.synthesis.scheduling import (
    RegionSchedule, ResourceConstraints, merge_operator_demand, schedule_region,
)
from repro.target.board import Board

#: FSM cycles per loop iteration beyond the body schedule.
LOOP_OVERHEAD_CYCLES = 1


@dataclass(frozen=True)
class Estimate:
    """The synthesis estimate for one design point."""

    cycles: int
    space: int
    area: AreaBreakdown
    fetch_rate: float          # F, bits/cycle the memories provide
    consumption_rate: float    # C, bits/cycle the datapath can consume
    balance: float             # F / C
    operator_demand: Dict[Tuple[str, int], int]
    memory_traffic: Dict[int, int]
    register_bits: int
    region_count: int
    clock_ns: float
    #: which backend produced this estimate and how (see
    #: :class:`repro.estimate.Provenance`); ``None`` for a bare
    #: ``synthesize()`` call.  Excluded from equality: two estimates of
    #: the same design agree regardless of which backend answered.
    provenance: Optional[Any] = field(default=None, compare=False)

    def with_provenance(self, provenance: Any) -> "Estimate":
        from dataclasses import replace
        return replace(self, provenance=provenance)

    @property
    def memory_bound(self) -> bool:
        return self.balance < 1.0

    @property
    def compute_bound(self) -> bool:
        return self.balance > 1.0

    @property
    def execution_time_us(self) -> float:
        return self.cycles * self.clock_ns / 1000.0

    def fits(self, board: Board) -> bool:
        return board.fpga.fits(self.space)

    def summary(self) -> str:
        kind = "memory-bound" if self.memory_bound else (
            "compute-bound" if self.compute_bound else "balanced"
        )
        return (
            f"{self.cycles} cycles, {self.space} slices, "
            f"balance {self.balance:.3f} ({kind})"
        )


def synthesize(
    program: Program,
    board: Board,
    plan: Optional[LayoutPlan] = None,
    library: Optional[OperatorLibrary] = None,
    constraints: Optional[ResourceConstraints] = None,
) -> Estimate:
    """Estimate space and performance for one program on one board.

    ``constraints`` bounds the operator allocation (Section 2.3's "a
    design that uses two multipliers"): limited kinds serialize onto
    their units, trading cycles for area.
    """
    library = library or default_library(board.clock_ns)
    if plan is not None:
        physical = dict(plan.physical)
        interleaved = dict(plan.interleaved)
    else:
        physical, interleaved = map_memories(program, board.num_memories)
    used_ids = set(physical.values())
    for spec in interleaved.values():
        used_ids.update(spec.memories)
    bad = [m for m in used_ids if m >= board.num_memories]
    if bad:
        raise SynthesisError(
            f"layout uses memory ids {sorted(set(bad))} but the board has "
            f"only {board.num_memories} memories"
        )

    index_widths = index_variable_widths(program)
    blocks = program_blocks(program)

    # Cross-point reuse: regions unchanged between neighboring design
    # points hit the ambient memo's schedule domain and skip the DFG
    # build + ASAP scheduling entirely.  The fingerprint covers the
    # region's statements, referenced declarations, and everything
    # schedule_region consults — so a hit is bit-identical to a rebuild.
    from repro.incremental.memo import current_memo
    memo = current_memo()
    memo_context = None
    symbols = program.symbol_table
    if memo is not None:
        from repro.incremental.hashing import schedule_context
        memo_context = schedule_context(
            physical, interleaved, index_widths, board.memory, library,
            constraints,
        )

    schedules: List[RegionSchedule] = []
    executed: List[Tuple[RegionSchedule, int]] = []

    def schedule_block(block: Block, executions: int) -> int:
        """Cycles for one block; records schedules along the way."""
        if isinstance(block, Region):
            schedule = None
            fingerprint = None
            if memo is not None:
                from repro.incremental.hashing import region_fingerprint
                fingerprint = region_fingerprint(
                    block.statements, memo_context, symbols=symbols,
                )
                schedule = memo.schedule_get(fingerprint)
            if schedule is None:
                builder = DataflowBuilder(
                    program, physical, index_widths, interleaved
                )
                schedule = schedule_region(
                    builder.build(block), board.memory, library, constraints
                )
                if memo is not None:
                    memo.schedule_put(fingerprint, schedule)
                    memo.note_region(fingerprint, scheduled=True)
            elif memo is not None:
                memo.note_region(fingerprint, scheduled=False)
            schedules.append(schedule)
            executed.append((schedule, executions))
            return schedule.length
        body_cycles = sum(
            schedule_block(child, executions * block.trip_count)
            for child in block.children
        )
        return block.trip_count * (body_cycles + LOOP_OVERHEAD_CYCLES)

    total_cycles = 0
    per_top_block: List[Tuple[Block, int, int]] = []  # block, cycles, first schedule idx
    for block in blocks:
        first_schedule = len(executed)
        cycles = schedule_block(block, 1)
        total_cycles += cycles
        per_top_block.append((block, cycles, first_schedule))

    fetch_rate, consumption_rate, balance = _steady_state_balance(
        per_top_block, executed
    )

    demand = merge_operator_demand(schedules)
    traffic: Dict[int, int] = {}
    for schedule, executions in executed:
        for memory, count in schedule.memory_traffic.items():
            traffic[memory] = traffic.get(memory, 0) + count * executions

    used_arrays = _used_arrays(program, physical)

    register_bits = sum(decl.type.width for decl in program.scalars())
    register_bits += sum(index_widths.values())
    total_states = sum(schedule.length for schedule in schedules)
    from repro.synthesis.regions import count_loops
    area = AreaBreakdown(
        operators=operator_area(demand, library),
        registers=register_area(program, index_widths, library),
        memory_interface=memory_interface_area(physical, used_arrays, interleaved),
        controller=controller_area(total_states, count_loops(blocks)),
    )

    return Estimate(
        cycles=total_cycles,
        space=area.total,
        area=area,
        fetch_rate=fetch_rate,
        consumption_rate=consumption_rate,
        balance=balance,
        operator_demand=demand,
        memory_traffic=traffic,
        register_bits=register_bits,
        region_count=len(schedules),
        clock_ns=board.clock_ns,
    )


def _steady_state_balance(
    per_top_block: List[Tuple[Block, int, int]],
    executed: List[Tuple[RegionSchedule, int]],
) -> Tuple[float, float, float]:
    """F, C, and balance over the steady-state nest's regions."""
    steady = _steady_state_slice(per_top_block, executed)
    bits = sum(s.memory_bits * n for s, n in steady)
    memory_time = sum(s.memory_only_length * n for s, n in steady)
    compute_time = sum(s.compute_only_length * n for s, n in steady)
    fetch = bits / memory_time if memory_time else float("inf")
    consume = bits / compute_time if compute_time else float("inf")
    if memory_time and compute_time:
        balance = compute_time / memory_time
    elif memory_time:
        balance = 0.0            # traffic but no computation: memory bound
    elif compute_time:
        balance = float("inf")   # computation with no traffic: compute bound
    else:
        balance = 1.0            # empty design: call it balanced
    return fetch, consume, balance


def _steady_state_slice(
    per_top_block: List[Tuple[Block, int, int]],
    executed: List[Tuple[RegionSchedule, int]],
) -> List[Tuple[RegionSchedule, int]]:
    """The schedules belonging to the steady-state top-level loop.

    Peeling leaves [prologue..., main nest, epilogue...] at top level;
    the main nest is the loop block whose regions execute the most, ties
    going to the later block.  Programs with no loops fall back to all
    regions.
    """
    best: Optional[Tuple[int, int, int]] = None  # (weight, index, end)
    for index, (block, _cycles, first) in enumerate(per_top_block):
        if not isinstance(block, LoopBlock):
            continue
        end = (
            per_top_block[index + 1][2]
            if index + 1 < len(per_top_block) else len(executed)
        )
        weight = sum(n for _s, n in executed[first:end])
        if best is None or weight >= best[0]:
            best = (weight, first, end)
    if best is None:
        return executed
    return executed[best[1]:best[2]]


def _used_arrays(program: Program, physical: Mapping[str, int]) -> List[str]:
    """Arrays actually referenced somewhere in the program body."""
    from repro.ir.expr import array_refs
    used = set()
    for stmt in program.statements():
        for expr in stmt.expressions():
            for node in array_refs(expr):
                used.add(node.array)
    return sorted(used)
