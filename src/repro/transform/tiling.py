"""Loop tiling, used to cap on-chip register usage (Section 5.4).

When the reuse distance is large, scalar replacement would demand more
registers than the FPGA should spend on storage.  Tiling a loop splits
it into a tile-loop / element-loop pair so that rotating banks and
invariant registers are sized by the tile, and reuse is exploited fully
*within* each tile.

Because the IR requires constant loop bounds, tiling uses the
divisor form::

    for (i = 0; i < N; i++)          for (i_t = 0; i_t < N/T; i_t++)
        body(i)              ==>         for (i_e = 0; i_e < T; i_e++)
                                             body(i_t * T + i_e)

which requires ``T`` to divide the trip count and the loop to be
normalized (lower bound 0, step 1) — run
:func:`repro.transform.normalize.normalize_loops` first if needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import TransformError
from repro.ir.expr import ArrayRef, BinOp, IntLit, VarRef, substitute_folded
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt, walk_all
from repro.ir.symbols import Program


def tile_loop(program: Program, var: str, tile: int) -> Program:
    """Tile every loop with index variable ``var`` by ``tile``.

    The element loop keeps the original variable name (so subscripts keep
    their shape for later analyses); the new tile-loop variable is
    ``{var}_t`` (made fresh on collision).
    """
    if tile < 1:
        raise TransformError(
            f"tile size must be >= 1, got {tile}",
            kernel=program.name, stage="tiling", loop=var,
        )
    taken: Set[str] = {decl.name for decl in program.decls}
    for stmt in walk_all(program.body):
        if isinstance(stmt, For):
            taken.add(stmt.var)
    found = False

    def rebuild(stmt: Stmt) -> Stmt:
        nonlocal found
        if isinstance(stmt, If):
            return If(
                stmt.cond,
                tuple(rebuild(s) for s in stmt.then_body),
                tuple(rebuild(s) for s in stmt.else_body),
            )
        if not isinstance(stmt, For):
            return stmt
        body = tuple(rebuild(s) for s in stmt.body)
        loop = For(stmt.var, stmt.lower, stmt.upper, stmt.step, body)
        if loop.var != var:
            return loop
        found = True
        if tile == 1 or tile >= loop.trip_count:
            return loop
        if loop.lower != 0 or loop.step != 1:
            raise TransformError(
                f"loop {var!r} must be normalized (lower 0, step 1) before tiling",
                stage="tiling", loop=var, location=loop.location,
            )
        if loop.trip_count % tile != 0:
            raise TransformError(
                f"tile size {tile} does not divide trip count {loop.trip_count} "
                f"of loop {var!r}",
                stage="tiling", loop=var, location=loop.location,
            )
        tile_var = _fresh(f"{var}_t", taken)
        # i -> i_t * tile + i
        replacement = BinOp(
            "+", BinOp("*", VarRef(tile_var), IntLit(tile)), VarRef(var)
        )
        inner_body = tuple(_substitute_stmt(s, var, replacement) for s in loop.body)
        element = For(var, 0, tile, 1, inner_body)
        return For(tile_var, 0, loop.trip_count // tile, 1, (element,))

    new_body = tuple(rebuild(stmt) for stmt in program.body)
    if not found:
        raise TransformError(
            f"no loop with index variable {var!r} to tile",
            kernel=program.name, stage="tiling", loop=var,
        )
    return program.with_body(new_body)


def _fresh(base: str, taken: Set[str]) -> str:
    name = base
    counter = 0
    while name in taken:
        counter += 1
        name = f"{base}{counter}"
    taken.add(name)
    return name


def _substitute_stmt(stmt: Stmt, var: str, replacement) -> Stmt:
    bindings = {var: replacement}
    if isinstance(stmt, Assign):
        target = substitute_folded(stmt.target, bindings)
        assert isinstance(target, (VarRef, ArrayRef))
        return Assign(target, substitute_folded(stmt.value, bindings))
    if isinstance(stmt, If):
        return If(
            substitute_folded(stmt.cond, bindings),
            tuple(_substitute_stmt(s, var, replacement) for s in stmt.then_body),
            tuple(_substitute_stmt(s, var, replacement) for s in stmt.else_body),
        )
    if isinstance(stmt, For):
        return For(
            stmt.var, stmt.lower, stmt.upper, stmt.step,
            tuple(_substitute_stmt(s, var, replacement) for s in stmt.body),
        )
    if isinstance(stmt, RotateRegisters):
        return stmt
    raise TransformError(
        f"unknown statement node {type(stmt).__name__}", stage="tiling",
    )
