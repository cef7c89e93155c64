"""Loop-invariance predicates shared by LICM and scalar replacement.

An expression is invariant with respect to a loop when it references
neither the loop's index variable nor any scalar assigned inside the
loop.  Array references are invariant only if their subscripts are and
no write to the array occurs in the loop (the conservative rule; reuse
analysis refines it for uniformly generated sets).
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Set, Tuple

from repro.ir.expr import ArrayRef, Expr, VarRef
from repro.ir.stmt import Assign, For, RotateRegisters, Stmt, walk_all


def assigned_scalars(body: Iterable[Stmt]) -> FrozenSet[str]:
    """Scalar names written anywhere in a statement sequence, including
    register rotations (which redefine every named register)."""
    names: Set[str] = set()
    for stmt in walk_all(tuple(body)):
        if isinstance(stmt, Assign) and isinstance(stmt.target, VarRef):
            names.add(stmt.target.name)
        elif isinstance(stmt, For):
            names.add(stmt.var)
        elif isinstance(stmt, RotateRegisters):
            names.update(stmt.registers)
    return frozenset(names)


def written_arrays(body: Iterable[Stmt]) -> FrozenSet[str]:
    """Array names written anywhere in a statement sequence."""
    names: Set[str] = set()
    for stmt in walk_all(tuple(body)):
        if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef):
            names.add(stmt.target.array)
    return frozenset(names)


def expr_is_invariant(expr: Expr, loop: For) -> bool:
    """True if ``expr`` evaluates to the same value on every iteration of
    ``loop`` (assuming it is evaluated at the top of the body)."""
    return reads_none_of(
        expr, assigned_scalars(loop.body) | {loop.var}, written_arrays(loop.body)
    )


def reads_none_of(
    expr: Expr, mutated: AbstractSet[str], dirty_arrays: AbstractSet[str]
) -> bool:
    """True if ``expr`` reads no scalar in ``mutated`` and no array in
    ``dirty_arrays`` — the invariance test once a loop's effects are
    known (callers testing many expressions compute those once)."""
    for node in expr.walk():
        if isinstance(node, VarRef) and node.name in mutated:
            return False
        if isinstance(node, ArrayRef) and node.array in dirty_arrays:
            return False
    return True


def access_varies_with(expr: Expr, loop_var: str) -> bool:
    """True if ``expr`` mentions ``loop_var`` anywhere."""
    return any(
        isinstance(node, VarRef) and node.name == loop_var for node in expr.walk()
    )
