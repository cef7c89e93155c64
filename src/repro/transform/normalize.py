"""Loop normalization: rewrite every loop to ``for (v = 0; v < trip; v++)``.

After unrolling, loops step by the unroll factor (``for (i = 0; i < 32;
i += 2)``).  Normalization substitutes ``v -> lower + step * v`` in the
body and resets the bounds, producing the form in Figure 1(d) where the
custom data layout can fold the remaining constant strides into memory
bank selection.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.expr import ArrayRef, BinOp, Expr, IntLit, VarRef, substitute_folded
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program


def normalize_loops(program: Program) -> Program:
    """Normalize every loop in the program to lower bound 0 and step 1.

    Each statement is rewritten once, with the replacements of all its
    enclosing strided loops applied together.  That equals normalizing
    innermost loop first and re-folding the result at every enclosing
    strided loop: a replacement ``lower + step * v`` mentions only its
    own variable and never folds to a literal, so folding in between
    changes nothing the final fold would not.
    """

    def rebuild(stmt: Stmt, bindings: Dict[str, Expr]) -> Stmt:
        if isinstance(stmt, For):
            upper = stmt.upper
            if stmt.lower != 0 or stmt.step != 1:
                replacement = BinOp(
                    "+",
                    IntLit(stmt.lower),
                    BinOp("*", IntLit(stmt.step), VarRef(stmt.var)),
                )
                # An enclosing loop with the same index would rewrite
                # this replacement too.
                bindings = dict(bindings)
                bindings[stmt.var] = substitute_folded(replacement, bindings)
                upper = stmt.trip_count
            body = tuple(rebuild(s, bindings) for s in stmt.body)
            return For(stmt.var, 0, upper, 1, body)
        if isinstance(stmt, If):
            cond = substitute_folded(stmt.cond, bindings) if bindings else stmt.cond
            return If(
                cond,
                tuple(rebuild(s, bindings) for s in stmt.then_body),
                tuple(rebuild(s, bindings) for s in stmt.else_body),
            )
        if not bindings or isinstance(stmt, RotateRegisters):
            return stmt
        if isinstance(stmt, Assign):
            target = substitute_folded(stmt.target, bindings)
            assert isinstance(target, (VarRef, ArrayRef))
            return Assign(target, substitute_folded(stmt.value, bindings))
        raise TypeError(f"unknown statement node {type(stmt).__name__}")

    return program.with_body(tuple(rebuild(stmt, {}) for stmt in program.body))
