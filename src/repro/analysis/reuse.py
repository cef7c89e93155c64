"""Data reuse analysis: what scalar replacement can exploit, and at what
register cost.

Section 4 of the paper extends Carr–Kennedy scalar replacement in two
ways: redundant writes on output dependences are eliminated, and reuse is
exploited across *all* loops in the nest, not just the innermost.  This
module classifies every uniformly generated set of accesses into one of
four replacement strategies:

``INVARIANT``
    Subscripts do not mention any loop deeper than depth *k*: the value
    lives in a register across all inner loops; load before / store
    after the loop at depth *k + 1* (FIR's ``D[j]``).

``ROTATING``
    A read-only set whose subscripts mention only loops deeper than the
    carrying loop: the same element sequence is re-read on every
    iteration of the carrier, so a bank of registers rotated each inner
    iteration captures it; memory loads survive only in the carrier's
    peeled first iteration (FIR's ``C[i]``, carried by ``j``).

``BODY_ONLY``
    Only loop-independent reuse (identical references within one body
    after unrolling) is exploitable; cross-iteration distances are not
    consistent (FIR's ``S[i+j]``).

``NONE``
    A single access with no reuse at all.

The analysis runs on the *unrolled* nest — unroll-and-jam changes which
reuse is loop-independent, which is exactly why the paper applies it
before scalar replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.affine import (
    AffineAccess, bucket_by_offset, collect_accesses,
    group_uniformly_generated,
)
from repro.analysis.dependence import DependenceGraph
from repro.ir.nest import LoopNest


class ReuseKind(Enum):
    """Scalar-replacement strategy for a uniformly generated set (see the
    module docstring for what each generates)."""

    INVARIANT = "invariant"
    ROTATING = "rotating"
    PIPELINE = "pipeline"
    BODY_ONLY = "body_only"
    NONE = "none"


@dataclass(frozen=True)
class PipelineChain:
    """One shift-register chain for innermost-carried reuse.

    The Carr–Kennedy case the paper's scalar replacement starts from:
    a read-only set whose offsets along dimension ``dim`` differ by
    multiples of the iteration advance (subscript coefficient times loop
    step) is served by ``span`` registers that shift once per innermost
    iteration; only the leading offset is loaded from memory
    (JAC reads ``A[i][j+1]`` once and re-uses it as ``A[i][j-1]`` two
    iterations later).

    Attributes:
        key: the fixed offsets in all other dimensions plus the residue
            class along ``dim`` (distinct residues never meet).
        dim: the chained dimension.
        advance: elements the chain moves per iteration (coeff * step).
        min_offset / max_offset: constant range covered along ``dim``.
        member_offsets: the full offset vectors served by this chain.
    """

    key: Tuple
    dim: int
    advance: int
    min_offset: int
    max_offset: int
    member_offsets: Tuple[Tuple[int, ...], ...]

    @property
    def span(self) -> int:
        """Registers in the chain (holes between served offsets included)."""
        return (self.max_offset - self.min_offset) // self.advance + 1

    def register_slot(self, offset_vector: Tuple[int, ...]) -> int:
        return (offset_vector[self.dim] - self.min_offset) // self.advance


@dataclass
class ReuseGroup:
    """One uniformly generated set plus its replacement strategy.

    Attributes:
        array: array name.
        accesses: members, in program order.
        kind: replacement strategy (see module docstring).
        hoist_depth: for INVARIANT — the deepest loop whose index the
            subscripts mention; loads/stores belong in that loop's body.
            -1 means invariant in the whole nest (hoist above it).
        carrier_depth: for ROTATING — the loop whose iterations re-read
            the sequence (registers rotate inside it).
        registers_needed: FPGA registers this strategy consumes.
        distinct_offsets: distinct constant vectors among the members;
            each needs its own register (or register bank).
    """

    array: str
    accesses: List[AffineAccess]
    kind: ReuseKind
    hoist_depth: int = -1
    carrier_depth: int = -1
    registers_needed: int = 0
    distinct_offsets: List[Tuple[int, ...]] = field(default_factory=list)
    #: for PIPELINE — the shift-register chains (offsets not covered by
    #: any chain stay as plain memory loads).
    chains: List[PipelineChain] = field(default_factory=list)

    @cached_property
    def by_offset(self) -> Dict[Tuple[int, ...], List[AffineAccess]]:
        """Members keyed by constant vector, each bucket in program order."""
        return bucket_by_offset(self.accesses)

    @property
    def has_write(self) -> bool:
        return any(access.is_write for access in self.accesses)

    @property
    def is_read_only(self) -> bool:
        return not self.has_write

    def memory_reads_after_replacement(self) -> int:
        """Steady-state memory reads per carrier iteration of this group
        (0 for fully registered groups)."""
        if self.kind in (ReuseKind.INVARIANT, ReuseKind.ROTATING):
            return 0 if self.kind is ReuseKind.ROTATING else len(self.distinct_offsets)
        return len(self.distinct_offsets)


@dataclass
class ReuseAnalysis:
    """Full reuse classification of one loop nest."""

    nest: LoopNest
    groups: List[ReuseGroup]

    @classmethod
    def run(cls, nest: LoopNest, graph: Optional[DependenceGraph] = None) -> "ReuseAnalysis":
        accesses = collect_accesses(nest)
        grouped = group_uniformly_generated(accesses)
        index_vars = nest.index_vars
        trip_counts = dict(zip(index_vars, nest.trip_counts))
        steps = {info.var: info.loop.step for info in nest.loops}
        groups: List[ReuseGroup] = []
        for (array, _signature), members in grouped.items():
            groups.append(_classify(array, members, index_vars, trip_counts, steps))
        return cls(nest, groups)

    def total_registers(self) -> int:
        """Registers scalar replacement introduces over the whole nest —
        the quantity Section 5.4 caps via tiling."""
        return sum(group.registers_needed for group in self.groups)

    def group_for(self, array: str) -> List[ReuseGroup]:
        return [group for group in self.groups if group.array == array]

    def replaceable_groups(self) -> List[ReuseGroup]:
        return [g for g in self.groups if g.kind is not ReuseKind.NONE]


def _classify(
    array: str,
    members: List[AffineAccess],
    index_vars: Sequence[str],
    trip_counts: Dict[str, int],
    steps: Dict[str, int],
) -> ReuseGroup:
    """Pick the replacement strategy for one uniformly generated set."""
    buckets = bucket_by_offset(members)
    offsets = sorted(buckets)
    # Guarded accesses may not execute: hoisting them into unconditional
    # register loads/stores would change both traffic and (for guards
    # protecting bounds) semantics.  Leave the whole set in memory.
    if any(access.guarded for access in members):
        return ReuseGroup(
            array=array,
            accesses=members,
            kind=ReuseKind.NONE,
            distinct_offsets=offsets,
        )
    mentioned = set()
    for access in members:
        mentioned.update(access.variables())
    deepest = max(
        (index_vars.index(var) for var in mentioned), default=-1
    )
    nest_depth = len(index_vars)

    # INVARIANT: no inner loop varies the subscripts, so each distinct
    # offset is one register held across all deeper loops.
    if deepest < nest_depth - 1:
        # Read-only sets invariant in *outer* position are better served
        # by rotating banks when an outer loop re-reads the sequence the
        # inner loops produce — check that first.
        rotating = _rotating_candidate(
            members, index_vars, trip_counts, mentioned, deepest, offsets
        )
        if rotating is not None:
            return rotating
        return ReuseGroup(
            array=array,
            accesses=members,
            kind=ReuseKind.INVARIANT,
            hoist_depth=deepest,
            registers_needed=len(offsets),
            distinct_offsets=offsets,
        )

    # Subscripts vary with the innermost loop.  A read-only set whose
    # subscripts do NOT mention some outer loop is re-read every
    # iteration of that loop: rotating bank.
    rotating = _rotating_candidate(
        members, index_vars, trip_counts, mentioned, deepest, offsets
    )
    if rotating is not None:
        return rotating

    # Consistent innermost-carried reuse (the Carr–Kennedy case): shift
    # register chains along one dimension.
    pipeline = _pipeline_candidate(members, index_vars, steps, buckets)
    if pipeline is not None:
        return pipeline

    # Cross-iteration reuse is inconsistent (multiple induction variables,
    # like S[i+j]) or blocked by writes: only loop-independent duplicates
    # can be merged, one register per distinct offset that occurs more
    # than once (singleton offsets load straight into an operand).
    # Merging requires the set to be read-only — a write to the array
    # between two reads of the same offset would invalidate the register.
    has_write = any(access.is_write for access in members)
    duplicated = [] if has_write else [
        offset for offset in offsets if _duplicate_reads(buckets[offset])
    ]
    kind = ReuseKind.BODY_ONLY if duplicated else ReuseKind.NONE
    return ReuseGroup(
        array=array,
        accesses=members,
        kind=kind,
        registers_needed=len(duplicated),
        distinct_offsets=offsets,
    )


def _duplicate_reads(bucket: List[AffineAccess]) -> bool:
    """True if more than one member of an offset bucket is a read."""
    return sum(1 for m in bucket if m.is_read) > 1


def _pipeline_candidate(
    members: List[AffineAccess],
    index_vars: Sequence[str],
    steps: Dict[str, int],
    buckets: Dict[Tuple[int, ...], List[AffineAccess]],
) -> Optional[ReuseGroup]:
    """PIPELINE applies to read-only sets whose offsets differ along one
    dimension that mentions only the innermost loop (with positive
    stride), while every other dimension ignores that loop: the value
    loaded at the leading offset is re-read at the trailing offsets on
    later iterations with a constant distance, so a shift-register chain
    replaces all but one load (Section 4's consistent-dependence case)."""
    if any(access.is_write for access in members):
        return None
    inner_var = index_vars[-1]
    representative = members[0]
    rank = len(representative.subscripts)
    candidate_dims = [
        dim for dim in range(rank)
        if representative.subscripts[dim].variables == (inner_var,)
        and representative.subscripts[dim].coefficient(inner_var) > 0
        and all(
            not representative.subscripts[other].depends_on(inner_var)
            for other in range(rank) if other != dim
        )
    ]
    if not candidate_dims:
        return None
    # All members must sit at the innermost body depth so one rotation
    # per innermost iteration keeps the chain aligned.
    innermost_depth = len(index_vars) - 1
    if any(access.depth != innermost_depth for access in members):
        return None
    dim = candidate_dims[0]
    coeff = representative.subscripts[dim].coefficient(inner_var)
    advance = coeff * steps[inner_var]

    offsets = sorted(buckets)
    lanes: Dict[Tuple, List[Tuple[int, ...]]] = {}
    for offset in offsets:
        key = tuple(offset[d] for d in range(rank) if d != dim) + (
            offset[dim] % advance,
        )
        lanes.setdefault(key, []).append(offset)

    chains: List[PipelineChain] = []
    for key, bucket in sorted(lanes.items()):
        values = sorted(o[dim] for o in bucket)
        duplicate_reads = any(
            _duplicate_reads(buckets[offset]) for offset in bucket
        )
        if len(values) < 2 and not duplicate_reads:
            continue  # no reuse along this chain: raw loads stay
        chains.append(PipelineChain(
            key=key,
            dim=dim,
            advance=advance,
            min_offset=values[0],
            max_offset=values[-1],
            member_offsets=tuple(sorted(bucket)),
        ))
    if not any(chain.span > 1 for chain in chains):
        return None  # nothing actually pipelines; fall through to BODY_ONLY
    return ReuseGroup(
        array=members[0].array,
        accesses=members,
        kind=ReuseKind.PIPELINE,
        hoist_depth=innermost_depth,
        registers_needed=sum(chain.span for chain in chains),
        distinct_offsets=offsets,
        chains=chains,
    )


def _rotating_candidate(
    members: List[AffineAccess],
    index_vars: Sequence[str],
    trip_counts: Dict[str, int],
    mentioned: set,
    deepest: int,
    offsets: List[Tuple[int, ...]],
) -> Optional[ReuseGroup]:
    """ROTATING applies to read-only sets with an un-mentioned outer loop
    strictly above every mentioned loop: that loop replays the whole
    element sequence.  Bank size = elements touched per replay = product
    of mentioned-loop trip counts, per distinct offset."""
    if any(access.is_write for access in members):
        return None
    if not mentioned:
        return None  # fully invariant; INVARIANT handles it
    mentioned_depths = {index_vars.index(var) for var in mentioned}
    # A loop whose index the subscripts do not mention replays the element
    # sequence produced by the mentioned loops below it.  The rotation
    # advances once per iteration of the deepest mentioned loop, so every
    # loop strictly below the carrier must be mentioned — otherwise an
    # interior unmentioned loop would replay mid-sequence and desync the
    # bank.  Under that contiguity rule at most one depth qualifies.
    # Mentioned loops *above* the carrier just mean the bank reloads on
    # their iterations (MM's a[i][k] is carried by j and reloads per i).
    candidates = [
        depth for depth in range(len(index_vars))
        if depth not in mentioned_depths
        and all(deeper in mentioned_depths for deeper in range(depth + 1, len(index_vars)))
        and any(m > depth for m in mentioned_depths)
    ]
    if not candidates:
        return None
    carrier = min(candidates)
    bank = 1
    for var in mentioned:
        if index_vars.index(var) > carrier:
            bank *= trip_counts[var]
    return ReuseGroup(
        array=members[0].array,
        accesses=members,
        kind=ReuseKind.ROTATING,
        carrier_depth=carrier,
        hoist_depth=deepest,
        registers_needed=bank * len(offsets),
        distinct_offsets=offsets,
    )
