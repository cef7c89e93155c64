"""Loop peeling and guard simplification.

Scalar replacement guards its rotating-bank loads with
``if (carrier == first_iteration)``.  Peeling the carrier's first
iteration specializes those guards away: in the peeled copy the
condition folds to true (the loads run unconditionally), and in the main
loop — whose lower bound moved past the first iteration — it folds to
false (the loads vanish).  The result is the paper's steady-state body
where every iteration performs the same memory accesses and high-level
synthesis can schedule them uniformly (Section 4, "Loop Peeling and
Loop-Invariant Code Motion").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TransformError
from repro.ir.expr import (
    ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef, fold_constants,
    substitute_folded,
)
from repro.ir.nest import LoopNest
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program


def peel_loop(program: Program, var: str) -> Program:
    """Peel the first iteration of *every* loop with index variable ``var``.

    The peeled copy (index variable bound to the loop's lower bound and
    substituted into the body) precedes the remaining loop, whose lower
    bound advances by one step.  All occurrences are peeled because
    earlier peels replicate inner loops: after peeling MM's ``i`` loop
    there are two ``j`` loops, and both carry first-iteration load
    guards.  Guards decided by the peel are simplified in both copies.
    """
    found = False

    def rebuild(stmt: Stmt) -> List[Stmt]:
        nonlocal found
        if isinstance(stmt, For):
            body = tuple(out for inner in stmt.body for out in rebuild(inner))
            loop = For(stmt.var, stmt.lower, stmt.upper, stmt.step, body)
            if stmt.var != var:
                return [loop]
            found = True
            if loop.trip_count < 1:
                return [loop]
            peeled = _simplify_body(tuple(
                _substitute_and_fold(s, loop.var, loop.lower) for s in loop.body
            ))
            result = list(peeled)
            rest_lower = loop.lower + loop.step
            if rest_lower < loop.upper:
                result.append(
                    For(loop.var, rest_lower, loop.upper, loop.step, loop.body)
                )
            return result
        if isinstance(stmt, If):
            return [If(
                stmt.cond,
                tuple(out for s in stmt.then_body for out in rebuild(s)),
                tuple(out for s in stmt.else_body for out in rebuild(s)),
            )]
        return [stmt]

    new_body = tuple(out for stmt in program.body for out in rebuild(stmt))
    if not found:
        raise TransformError(
            f"no loop with index variable {var!r} to peel",
            kernel=program.name, stage="peel", loop=var,
        )
    return simplify_guards(program.with_body(new_body))


def simplify_guards(program: Program) -> Program:
    """Fold ``if`` statements whose conditions are decided by loop ranges.

    Understands conditions of the form ``var == constant`` (and constant
    conditions after folding) where ``var`` is an enclosing loop index:
    if the constant is outside the loop's iteration values the guard is
    dropped; if the loop executes exactly one iteration equal to it, the
    branch is spliced inline.
    """
    ranges: Dict[str, range] = {}

    def simplify(stmt: Stmt) -> List[Stmt]:
        if isinstance(stmt, For):
            ranges[stmt.var] = stmt.iteration_values()
            body = _splice(stmt.body, simplify)
            del ranges[stmt.var]
            return [For(stmt.var, stmt.lower, stmt.upper, stmt.step, body)]
        if isinstance(stmt, If):
            verdict = _decide(fold_constants(stmt.cond), ranges)
            if verdict is True:
                return list(_splice(stmt.then_body, simplify))
            if verdict is False:
                return list(_splice(stmt.else_body, simplify))
            return [If(
                fold_constants(stmt.cond),
                _splice(stmt.then_body, simplify),
                _splice(stmt.else_body, simplify),
            )]
        return [stmt]

    return program.with_body(_splice(program.body, simplify))


def _splice(body: Tuple[Stmt, ...], fn) -> Tuple[Stmt, ...]:
    return tuple(out for stmt in body for out in fn(stmt))


def _decide(cond: Expr, ranges: Dict[str, range]) -> Optional[bool]:
    """True/False when the condition is decided for every in-range value
    of the loop indices it mentions; None when genuinely dynamic."""
    if isinstance(cond, IntLit):
        return bool(cond.value)
    if isinstance(cond, BinOp) and cond.op == "==":
        var, literal = _var_and_literal(cond)
        if var is not None and var in ranges:
            values = ranges[var]
            if literal not in values:
                return False
            if len(values) == 1:
                return True
    return None


def _var_and_literal(cond: BinOp) -> Tuple[Optional[str], int]:
    if isinstance(cond.left, VarRef) and isinstance(cond.right, IntLit):
        return cond.left.name, cond.right.value
    if isinstance(cond.right, VarRef) and isinstance(cond.left, IntLit):
        return cond.right.name, cond.left.value
    return None, 0


def _substitute_and_fold(stmt: Stmt, var: str, value: int) -> Stmt:
    """Bind a loop index to a constant throughout a statement tree."""
    bindings = {var: IntLit(value)}

    def walk(node: Stmt) -> Stmt:
        if isinstance(node, Assign):
            target = substitute_folded(node.target, bindings)
            if not isinstance(target, (VarRef, ArrayRef)):
                raise TransformError("substitution produced a non-lvalue", stage="peel")
            return Assign(target, substitute_folded(node.value, bindings))
        if isinstance(node, If):
            return If(
                substitute_folded(node.cond, bindings),
                tuple(walk(s) for s in node.then_body),
                tuple(walk(s) for s in node.else_body),
            )
        if isinstance(node, For):
            if node.var == var:
                raise TransformError(
                    f"inner loop reuses index variable {var!r}",
                    stage="peel", loop=var,
                )
            return For(
                node.var, node.lower, node.upper, node.step,
                tuple(walk(s) for s in node.body),
            )
        return node

    return walk(stmt)


def _simplify_body(body: Tuple[Stmt, ...]) -> Tuple[Stmt, ...]:
    """Constant-condition folding inside an already-substituted body."""
    def simplify(stmt: Stmt) -> List[Stmt]:
        if isinstance(stmt, If):
            cond = fold_constants(stmt.cond)
            if isinstance(cond, IntLit):
                chosen = stmt.then_body if cond.value else stmt.else_body
                return list(_splice(chosen, simplify))
            return [If(cond, _splice(stmt.then_body, simplify),
                       _splice(stmt.else_body, simplify))]
        if isinstance(stmt, For):
            return [For(stmt.var, stmt.lower, stmt.upper, stmt.step,
                        _splice(stmt.body, simplify))]
        return [stmt]

    return _splice(body, simplify)
