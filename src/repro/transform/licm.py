"""Loop-invariant code motion.

Scalar replacement already hoists the memory accesses that matter (the
INVARIANT strategy).  This pass cleans up what remains: an assignment to
a scalar whose right-hand side is invariant in the enclosing loop, where
the scalar is written nowhere else in the loop, moves in front of the
loop.  Assignments under conditionals stay put (they may not execute).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.invariance import reads_none_of
from repro.ir.expr import ArrayRef, VarRef, referenced_scalars
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt, walk_all
from repro.ir.symbols import Program


def hoist_invariants(program: Program) -> Program:
    """Apply LICM throughout the program, innermost loops first.

    Returns ``program`` itself when no loop hoists anything, and keeps
    every untouched subtree as it was.
    """

    def rebuild_body(body: Tuple[Stmt, ...]) -> Tuple[Stmt, ...]:
        new_body = tuple(s for inner in body for s in rebuild(inner))
        if len(new_body) == len(body) and all(
            a is b for a, b in zip(new_body, body)
        ):
            return body
        return new_body

    def rebuild(stmt: Stmt) -> List[Stmt]:
        if isinstance(stmt, If):
            then_body = rebuild_body(stmt.then_body)
            else_body = rebuild_body(stmt.else_body)
            if then_body is stmt.then_body and else_body is stmt.else_body:
                return [stmt]
            return [If(stmt.cond, then_body, else_body)]
        if not isinstance(stmt, For):
            return [stmt]
        body = rebuild_body(stmt.body)
        hoisted, remaining = _partition(stmt, body)
        if not hoisted and body is stmt.body:
            return [stmt]
        new_loop = For(stmt.var, stmt.lower, stmt.upper, stmt.step, remaining)
        return hoisted + [new_loop]

    body = rebuild_body(program.body)
    if body is program.body:
        return program
    return program.with_body(body)


def _partition(
    loop: For, body: Tuple[Stmt, ...]
) -> Tuple[List[Stmt], Tuple[Stmt, ...]]:
    """Split the loop's (already rebuilt) body into hoistable assignments
    and the rest.

    Only top-level scalar assignments whose RHS is loop-invariant and
    whose target has exactly one write in the loop are moved; moving is
    iterated so chains (``a = 5; b = a + 1``) hoist together.  A loop
    that might execute zero times must keep its assignments (the hoisted
    copy would run when the original would not), so zero-trip loops are
    left alone.

    Invariance is judged against the effects of the whole body, computed
    once per round: a candidate is the only writer of its target and
    never reads it, so the rest of the body mutates exactly what the
    whole body does apart from that target, which the candidate's
    right-hand side does not read.
    """
    if loop.trip_count == 0:
        return [], body
    hoisted: List[Stmt] = []
    body = list(body)
    changed = True
    while changed:
        changed = False
        write_counts, mutated, dirty_arrays = _effects(body)
        mutated.add(loop.var)
        for position, stmt in enumerate(body):
            if not isinstance(stmt, Assign) or not isinstance(stmt.target, VarRef):
                continue
            if write_counts.get(stmt.target.name, 0) != 1:
                continue
            # An accumulation (target appears in its own right-hand side)
            # executes once per iteration by design; hoisting it would
            # collapse the whole reduction into a single step.
            if stmt.target.name in referenced_scalars(stmt.value):
                continue
            if not reads_none_of(stmt.value, mutated, dirty_arrays):
                continue
            # The target must not be read before this statement in the
            # body (the pre-loop value would be observed differently).
            before = tuple(body[:position])
            if stmt.target.name in _read_scalars(before):
                continue
            hoisted.append(stmt)
            body.pop(position)
            changed = True
            break
    return hoisted, tuple(body)


def _effects(body: List[Stmt]) -> Tuple[Dict[str, int], Set[str], Set[str]]:
    """One walk of a loop body: per-scalar write counts (assignments and
    register rotations), every scalar it assigns (loop indices
    included), and every array it writes."""
    counts: Dict[str, int] = {}
    assigned: Set[str] = set()
    written: Set[str] = set()
    for stmt in walk_all(body):
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, VarRef):
                name = stmt.target.name
                counts[name] = counts.get(name, 0) + 1
                assigned.add(name)
            elif isinstance(stmt.target, ArrayRef):
                written.add(stmt.target.array)
        elif isinstance(stmt, RotateRegisters):
            for name in stmt.registers:
                counts[name] = counts.get(name, 0) + 1
            assigned.update(stmt.registers)
        elif isinstance(stmt, For):
            assigned.add(stmt.var)
    return counts, assigned, written


def _read_scalars(body: Tuple[Stmt, ...]):
    names = set()
    for stmt in walk_all(body):
        for expr in stmt.expressions():
            for node in expr.walk():
                if isinstance(node, VarRef) and node is not getattr(stmt, "target", None):
                    names.add(node.name)
    return names
