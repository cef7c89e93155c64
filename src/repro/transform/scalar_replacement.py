"""Scalar replacement with register rotation and redundant-write
elimination (Section 4, Figure 1(c)).

Replaces array references with compiler-introduced registers according to
the strategies chosen by :class:`repro.analysis.ReuseAnalysis`:

* **INVARIANT** groups load into a register in the body of the deepest
  loop their subscripts mention, are used from the register throughout
  the inner loops, and (if written) store back once at the end of that
  body — eliminating the redundant per-iteration memory writes of an
  accumulation like ``D[j] = D[j] + ...``.
* **ROTATING** groups get a register bank per distinct offset; the bank's
  head register serves every use, a ``rotate_registers`` statement at the
  end of the rotation loop advances it, and loads happen only on the
  first iteration of the carrier loop, guarded by
  ``if (carrier == first)``.  The pipeline later peels that iteration so
  the steady-state body has no conditionals (Section 4, "Loop Peeling").
* **BODY_ONLY** groups merge duplicate reads of the same element within
  one (unrolled) body through a temporary (Figure 1(c)'s ``S_0``).

Safety: an array is replaced only if all of its accesses participate in
strategies that cannot alias behind the registers' back — one uniformly
generated set, or several sets that are all read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.reuse import ReuseAnalysis, ReuseGroup, ReuseKind
from repro.errors import TransformError
from repro.ir.expr import (
    ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef, same_nodes,
)
from repro.ir.nest import LoopNest
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program, VarDecl


@dataclass
class ReplacementStats:
    """What scalar replacement did, for reporting and tests."""

    registers_added: int = 0
    reads_removed: int = 0
    writes_removed: int = 0
    rotating_banks: int = 0
    groups_applied: List[ReuseGroup] = field(default_factory=list)
    groups_skipped: List[ReuseGroup] = field(default_factory=list)


@dataclass
class ScalarReplacementResult:
    program: Program
    stats: ReplacementStats
    #: Depths of carrier loops that now contain first-iteration load
    #: guards; the pipeline peels these (outermost first).
    carriers_to_peel: List[int] = field(default_factory=list)


def scalar_replace(
    program: Program,
    exploit_outer_loops: bool = True,
    register_cap: Optional[int] = None,
) -> ScalarReplacementResult:
    """Run scalar replacement over the program's loop nest.

    Args:
        program: the (typically already unrolled) program.
        exploit_outer_loops: when False, reuse carried by outer loops is
            ignored (no rotating banks) — the Carr–Kennedy baseline the
            paper extends; used by the ablation benchmark.
        register_cap: if given, rotating groups are dropped
            (largest first) until the register estimate fits — the
            fallback when Section 5.4's tiling is not applied.
    """
    nest = LoopNest(program)
    reuse = ReuseAnalysis.run(nest)
    chosen, skipped = _choose_groups(reuse, exploit_outer_loops, register_cap)

    builder = _Rewriter(program, nest)
    stats = ReplacementStats(groups_skipped=skipped)
    carriers: Set[int] = set()
    for group in chosen:
        if group.kind is ReuseKind.INVARIANT:
            builder.apply_invariant(group, stats)
        elif group.kind is ReuseKind.ROTATING:
            builder.apply_rotating(group, stats)
            carriers.add(group.carrier_depth)
        elif group.kind is ReuseKind.PIPELINE:
            needs_peel = builder.apply_pipeline(group, stats)
            if needs_peel:
                carriers.add(nest.depth - 1)
        elif group.kind is ReuseKind.BODY_ONLY:
            builder.apply_body_only(group, stats)
        stats.groups_applied.append(group)
    new_program = builder.build()
    return ScalarReplacementResult(
        program=new_program,
        stats=stats,
        carriers_to_peel=sorted(carriers),
    )


def _choose_groups(
    reuse: ReuseAnalysis,
    exploit_outer_loops: bool,
    register_cap: Optional[int],
) -> Tuple[List[ReuseGroup], List[ReuseGroup]]:
    """Select the groups that are both profitable and safe to apply."""
    by_array: Dict[str, List[ReuseGroup]] = {}
    for group in reuse.groups:
        by_array.setdefault(group.array, []).append(group)

    chosen: List[ReuseGroup] = []
    skipped: List[ReuseGroup] = []
    for array, groups in by_array.items():
        replaceable = [g for g in groups if g.kind is not ReuseKind.NONE]
        if not exploit_outer_loops:
            dropped = [g for g in replaceable if g.kind is ReuseKind.ROTATING]
            skipped.extend(dropped)
            replaceable = [g for g in replaceable if g.kind is not ReuseKind.ROTATING]
        if len(groups) > 1 and any(g.has_write for g in groups):
            # Another uniformly generated set writes this array: registers
            # could go stale.  Skip the whole array.
            skipped.extend(replaceable)
            continue
        chosen.extend(replaceable)
        skipped.extend(g for g in groups if g.kind is ReuseKind.NONE)

    if register_cap is not None:
        chosen.sort(key=lambda g: g.registers_needed)
        total = sum(g.registers_needed for g in chosen)
        while chosen and total > register_cap:
            dropped = chosen.pop()  # largest consumer
            total -= dropped.registers_needed
            skipped.append(dropped)
    return chosen, skipped


class _Rewriter:
    """Accumulates reference rewrites and per-depth insertions, then
    rebuilds the program in one pass."""

    def __init__(self, program: Program, nest: LoopNest):
        self.program = program
        self.nest = nest
        self.taken: Set[str] = {decl.name for decl in program.decls}
        self.taken.update(nest.index_vars)
        self.new_decls: List[VarDecl] = []
        # id(ArrayRef) -> replacement VarRef
        self.rewrites: Dict[int, VarRef] = {}
        # depth -> statements inserted at the start / end of that loop's
        # body; depth -1 means before/after the whole nest.
        self.pre: Dict[int, List[Stmt]] = {}
        self.post: Dict[int, List[Stmt]] = {}

    # -- strategies ---------------------------------------------------------

    def apply_invariant(self, group: ReuseGroup, stats: ReplacementStats) -> None:
        element_type = self.program.decl(group.array).type
        for offset in group.distinct_offsets:
            members = group.by_offset[offset]
            register = self._fresh(_offset_name(group.array, offset), element_type)
            representative = members[0].ref
            # A write-only set needs no initial load — unless a zero-trip
            # inner loop could leave the register unwritten, in which
            # case the load makes the unconditional write-back a no-op.
            has_reads = any(member.is_read for member in members)
            needs_load = has_reads or self._inner_loops_may_skip(
                group.hoist_depth, max(member.depth for member in members)
            )
            if needs_load:
                self.pre.setdefault(group.hoist_depth, []).append(
                    Assign(VarRef(register), representative)
                )
            has_write = False
            for member in members:
                self.rewrites[id(member.ref)] = VarRef(register)
                if member.is_write:
                    has_write = True
                    stats.writes_removed += 1
                else:
                    stats.reads_removed += 1
            if has_write:
                write_back = ArrayRef(representative.array, representative.indices)
                self.post.setdefault(group.hoist_depth, []).append(
                    Assign(write_back, VarRef(register))
                )
                stats.writes_removed -= 1  # one store survives
            if needs_load:
                stats.reads_removed -= 1  # one load survives
            stats.registers_added += 1

    def _inner_loops_may_skip(self, hoist_depth: int, member_depth: int) -> bool:
        """True if any loop between the hoist level and the accesses can
        execute zero iterations."""
        trips = self.nest.trip_counts
        return any(
            trips[depth] == 0
            for depth in range(hoist_depth + 1, member_depth + 1)
        )

    def apply_rotating(self, group: ReuseGroup, stats: ReplacementStats) -> None:
        element_type = self.program.decl(group.array).type
        rotation_depth = group.hoist_depth  # deepest mentioned loop
        carrier = self.nest.loop_at(group.carrier_depth)
        bank_size = group.registers_needed // max(len(group.distinct_offsets), 1)
        if bank_size < 1:
            raise TransformError(
                f"rotating group for {group.array!r} computed an empty bank",
                kernel=self.program.name, stage="scalar_replacement",
                loop=carrier.var,
            )
        for offset in group.distinct_offsets:
            members = group.by_offset[offset]
            base = _offset_name(group.array, offset)
            bank = [
                self._fresh(f"{base}_{slot}", element_type) for slot in range(bank_size)
            ]
            representative = members[0].ref
            load = Assign(VarRef(bank[0]), representative)
            guard = If(
                BinOp("==", VarRef(carrier.var), IntLit(carrier.lower)),
                (load,),
            )
            self.pre.setdefault(rotation_depth, []).append(guard)
            for member in members:
                self.rewrites[id(member.ref)] = VarRef(bank[0])
                stats.reads_removed += 1
            if bank_size > 1:
                self.post.setdefault(rotation_depth, []).append(
                    RotateRegisters(tuple(bank))
                )
            stats.registers_added += bank_size
            stats.rotating_banks += 1

    def apply_pipeline(self, group: ReuseGroup, stats: ReplacementStats) -> bool:
        """Shift-register chains for innermost-carried reuse.

        Per chain: ``span`` registers, one unguarded load of the leading
        offset each iteration, trailing registers initialized on the
        innermost loop's first iteration (guard peeled later), and a
        rotation at the end of the body.  Returns True when any guard
        was emitted (the innermost loop then needs peeling).
        """
        element_type = self.program.decl(group.array).type
        depth = group.hoist_depth  # the innermost loop's depth
        inner = self.nest.loop_at(depth)
        needs_peel = False
        for chain in group.chains:
            base = _offset_name(group.array, (chain.min_offset,) + chain.key)
            bank = [
                self._fresh(f"{base}_{slot}", element_type)
                for slot in range(chain.span)
            ]
            # The chain's offsets differ only along ``dim``, so the
            # leading offset's first member in program order anchors it.
            leading = min(chain.member_offsets, key=lambda o: o[chain.dim])
            anchor = group.by_offset[leading][0]
            anchor_offset = leading[chain.dim]

            def ref_for_slot(slot: int) -> ArrayRef:
                delta = (chain.min_offset + slot * chain.advance) - anchor_offset
                indices = list(anchor.ref.indices)
                if delta:
                    indices[chain.dim] = BinOp(
                        "+", indices[chain.dim], IntLit(delta)
                    )
                return ArrayRef(anchor.ref.array, tuple(indices))

            if chain.span > 1:
                init_loads = tuple(
                    Assign(VarRef(bank[slot]), ref_for_slot(slot))
                    for slot in range(chain.span - 1)
                )
                guard = If(
                    BinOp("==", VarRef(inner.var), IntLit(inner.lower)),
                    init_loads,
                )
                self.pre.setdefault(depth, []).append(guard)
                needs_peel = True
            head_load = Assign(VarRef(bank[-1]), ref_for_slot(chain.span - 1))
            self.pre.setdefault(depth, []).append(head_load)
            for offset in chain.member_offsets:
                slot = chain.register_slot(offset)
                for member in group.by_offset[offset]:
                    self.rewrites[id(member.ref)] = VarRef(bank[slot])
                    stats.reads_removed += 1
            stats.reads_removed -= 1  # the head load survives
            if chain.span > 1:
                self.post.setdefault(depth, []).append(
                    RotateRegisters(tuple(bank))
                )
            stats.registers_added += chain.span
        return needs_peel

    def apply_body_only(self, group: ReuseGroup, stats: ReplacementStats) -> None:
        element_type = self.program.decl(group.array).type
        for offset in group.distinct_offsets:
            members = [m for m in group.by_offset[offset] if m.is_read]
            if len(members) < 2:
                continue
            register = self._fresh(_offset_name(group.array, offset), element_type)
            depth = max(member.depth for member in members)
            representative = members[0].ref
            self.pre.setdefault(depth, []).append(
                Assign(VarRef(register), representative)
            )
            for member in members:
                self.rewrites[id(member.ref)] = VarRef(register)
                stats.reads_removed += 1
            stats.reads_removed -= 1  # the load itself
            stats.registers_added += 1

    # -- rebuild ------------------------------------------------------------

    def build(self) -> Program:
        new_body: List[Stmt] = []
        for stmt in self.program.body:
            if isinstance(stmt, For) and stmt is self.nest.outermost:
                new_body.extend(self.pre.get(-1, []))
                new_body.append(self._rebuild_loop(stmt, depth=0))
                new_body.extend(self.post.get(-1, []))
            else:
                new_body.append(self._rewrite_stmt(stmt))
        program = self.program.with_body(tuple(new_body))
        if self.new_decls:
            program = program.with_decl(*self.new_decls)
        return program

    def _rebuild_loop(self, loop: For, depth: int) -> For:
        body: List[Stmt] = list(self.pre.get(depth, []))
        for stmt in loop.body:
            if isinstance(stmt, For):
                body.append(self._rebuild_loop(stmt, depth + 1))
            else:
                body.append(self._rewrite_stmt(stmt))
        body.extend(self.post.get(depth, []))
        return For(loop.var, loop.lower, loop.upper, loop.step, tuple(body))

    # Rewriting returns the input node itself wherever nothing under it
    # is replaced: every ArrayRef still appears once in the output.

    def _rewrite_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, Assign):
            target = self._rewrite_expr(stmt.target)
            if not isinstance(target, (VarRef, ArrayRef)):
                raise TransformError("rewrite produced a non-lvalue target",
                                     stage="scalar_replacement")
            value = self._rewrite_expr(stmt.value)
            if target is stmt.target and value is stmt.value:
                return stmt
            return Assign(target, value)
        if isinstance(stmt, If):
            return If(
                self._rewrite_expr(stmt.cond),
                tuple(self._rewrite_stmt(s) for s in stmt.then_body),
                tuple(self._rewrite_stmt(s) for s in stmt.else_body),
            )
        if isinstance(stmt, For):
            return For(
                stmt.var, stmt.lower, stmt.upper, stmt.step,
                tuple(self._rewrite_stmt(s) for s in stmt.body),
            )
        return stmt

    def _rewrite_expr(self, expr: Expr) -> Expr:
        replacement = self.rewrites.get(id(expr))
        if replacement is not None:
            return replacement
        if isinstance(expr, ArrayRef):
            indices = tuple(self._rewrite_expr(e) for e in expr.indices)
            if same_nodes(indices, expr.indices):
                return expr
            return ArrayRef(expr.array, indices)
        if isinstance(expr, BinOp):
            left = self._rewrite_expr(expr.left)
            right = self._rewrite_expr(expr.right)
            if left is expr.left and right is expr.right:
                return expr
            return BinOp(expr.op, left, right)
        if isinstance(expr, UnOp):
            operand = self._rewrite_expr(expr.operand)
            return expr if operand is expr.operand else UnOp(expr.op, operand)
        if isinstance(expr, Call):
            args = tuple(self._rewrite_expr(a) for a in expr.args)
            return expr if same_nodes(args, expr.args) else Call(expr.name, args)
        return expr

    def _fresh(self, base: str, element_type) -> str:
        name = base
        counter = 0
        while name in self.taken:
            counter += 1
            name = f"{base}_{counter}"
        self.taken.add(name)
        self.new_decls.append(VarDecl(name, element_type))
        return name


def _offset_name(array: str, offset: Tuple[int, ...]) -> str:
    """Paper-style register names: D + (0,) -> d_0."""
    suffix = "_".join(str(part) for part in offset)
    return f"{array.lower()}_{suffix}".replace("-", "m")
