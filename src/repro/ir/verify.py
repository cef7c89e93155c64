"""IR invariant checking.

The transformation pipeline rewrites programs wholesale — unroll-and-jam
clones bodies, scalar replacement invents registers, data layout renames
arrays — and a bug in any rewrite can produce a tree that *looks* like a
program but violates the IR's basic well-formedness rules.  This module
makes those rules explicit and checkable after every transform:

* **symbol scoping** — every scalar reference is a declared scalar or an
  in-scope loop index; every array reference names a declared array;
* **reference shape** — arrays are subscripted with exactly their
  declared arity, scalars are never subscripted, assignments never
  target a loop index;
* **loop sanity** — index variables are unique along any nest path, are
  not also declared variables, and iteration spaces are non-empty
  (``step > 0`` is enforced by the node itself);
* **node closure** — only known statement/expression node types appear;
* optionally, **affine accesses** — each subscript is a linear function
  of the enclosing loop indices (the paper's Section 2.4 input
  restriction).  This check is opt-in because the custom data layout
  legitimately introduces ``/`` and ``%`` into subscripts (static
  residue banking), so it only holds *before* layout.

:func:`verify_program` collects :class:`Violation` records;
:func:`check_ir` turns a non-empty list into a typed
:class:`~repro.errors.VerificationError` carrying kernel/stage context,
which the fail-soft DSE records as an infeasible point diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import AnalysisError, VerificationError
from repro.ir.expr import ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program


@dataclass(frozen=True)
class Violation:
    """One invariant violation: a stable rule slug plus a message."""

    rule: str
    message: str
    #: index variable of the nearest enclosing loop, when inside one.
    loop: Optional[str] = None

    def __str__(self) -> str:
        where = f" (in loop {self.loop!r})" if self.loop else ""
        return f"{self.rule}: {self.message}{where}"


class _Verifier:
    """Single pass over a program, collecting every violation."""

    def __init__(self, program: Program, require_affine: bool):
        from repro.analysis.affine import linearize
        self.program = program
        self.symbols = program.symbol_table
        self.require_affine = require_affine
        self.violations: List[Violation] = []
        self._linearize = linearize
        #: loop-index scope -> its set, built once per scope.
        self._index_sets: Dict[Tuple[str, ...], FrozenSet[str]] = {}

    def run(self) -> List[Violation]:
        for stmt in self.program.body:
            self._stmt(stmt, loop_vars=())
        return self.violations

    def _flag(self, rule: str, message: str, loop_vars: Tuple[str, ...]) -> None:
        self.violations.append(
            Violation(rule, message, loop=loop_vars[-1] if loop_vars else None)
        )

    # -- statements ----------------------------------------------------------

    def _stmt(self, stmt: Stmt, loop_vars: Tuple[str, ...]) -> None:
        if isinstance(stmt, Assign):
            self._assign(stmt, loop_vars)
        elif isinstance(stmt, If):
            self._expr(stmt.cond, loop_vars)
            for inner in stmt.then_body + stmt.else_body:
                self._stmt(inner, loop_vars)
        elif isinstance(stmt, For):
            self._for(stmt, loop_vars)
        elif isinstance(stmt, RotateRegisters):
            self._rotate(stmt, loop_vars)
        else:
            self._flag(
                "unknown-stmt",
                f"unknown statement node {type(stmt).__name__}", loop_vars,
            )

    def _for(self, loop: For, loop_vars: Tuple[str, ...]) -> None:
        if loop.var in loop_vars:
            self._flag(
                "index-shadowing",
                f"loop variable {loop.var!r} shadows an enclosing loop's index",
                loop_vars,
            )
        if loop.var in self.symbols:
            self._flag(
                "index-declared",
                f"loop variable {loop.var!r} is also a declared variable",
                loop_vars,
            )
        if loop.trip_count < 1:
            self._flag(
                "empty-loop",
                f"loop {loop.var!r} has an empty iteration space "
                f"[{loop.lower}, {loop.upper})",
                loop_vars,
            )
        inner = loop_vars + (loop.var,)
        for stmt in loop.body:
            self._stmt(stmt, inner)

    def _assign(self, stmt: Assign, loop_vars: Tuple[str, ...]) -> None:
        target = stmt.target
        if isinstance(target, VarRef):
            if target.name in loop_vars:
                self._flag(
                    "index-assigned",
                    f"assignment to loop index variable {target.name!r}",
                    loop_vars,
                )
            else:
                decl = self.symbols.get(target.name)
                if decl is None:
                    self._flag(
                        "undeclared-var",
                        f"assignment to undeclared variable {target.name!r}",
                        loop_vars,
                    )
                elif decl.is_array:
                    self._flag(
                        "array-as-scalar",
                        f"array {target.name!r} assigned without subscripts",
                        loop_vars,
                    )
        elif isinstance(target, ArrayRef):
            self._expr(target, loop_vars)
        else:
            self._flag(
                "unknown-lvalue",
                f"cannot assign to {type(target).__name__}", loop_vars,
            )
        self._expr(stmt.value, loop_vars)

    def _rotate(self, stmt: RotateRegisters, loop_vars: Tuple[str, ...]) -> None:
        for name in stmt.registers:
            decl = self.symbols.get(name)
            if decl is None:
                self._flag(
                    "undeclared-var",
                    f"rotate_registers names undeclared variable {name!r}",
                    loop_vars,
                )
            elif decl.is_array:
                self._flag(
                    "array-as-scalar",
                    f"rotate_registers names array {name!r}; scalars only",
                    loop_vars,
                )

    # -- expressions ---------------------------------------------------------

    def _expr(self, expr: Expr, loop_vars: Tuple[str, ...]) -> None:
        """Check ``expr`` and its sub-expressions in pre-order."""
        symbols = self.symbols
        stack = [expr]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            if isinstance(node, VarRef):
                if node.name not in loop_vars:
                    decl = symbols.get(node.name)
                    if decl is None or decl.dims:
                        self._var_ref(node, loop_vars)
                continue
            if isinstance(node, BinOp):
                push(node.right)
                push(node.left)
                continue
            if isinstance(node, ArrayRef):
                self._array_ref(node, loop_vars)
            elif not isinstance(node, (IntLit, UnOp, Call)):
                self._flag(
                    "unknown-expr",
                    f"unknown expression node {type(node).__name__}",
                    loop_vars,
                )
            children = node.children()
            if children:
                stack.extend(reversed(children))

    def _var_ref(self, ref: VarRef, loop_vars: Tuple[str, ...]) -> None:
        """Flag a read of an undeclared name or of a whole array."""
        decl = self.symbols.get(ref.name)
        if decl is None:
            self._flag(
                "undeclared-var",
                f"use of undeclared variable {ref.name!r}", loop_vars,
            )
        elif decl.is_array:
            self._flag(
                "array-as-scalar",
                f"array {ref.name!r} used without subscripts", loop_vars,
            )

    def _array_ref(self, ref: ArrayRef, loop_vars: Tuple[str, ...]) -> None:
        """The reference's own checks; :meth:`_expr` visits its subscripts."""
        decl = self.symbols.get(ref.array)
        if decl is None:
            self._flag(
                "undeclared-array",
                f"use of undeclared array {ref.array!r}", loop_vars,
            )
        elif not decl.is_array:
            self._flag(
                "scalar-subscripted",
                f"scalar {ref.array!r} used with subscripts", loop_vars,
            )
        elif len(ref.indices) != len(decl.dims):
            self._flag(
                "subscript-arity",
                f"array {ref.array!r} has {len(decl.dims)} dimension(s) "
                f"but is referenced with {len(ref.indices)} subscript(s)",
                loop_vars,
            )
        if self.require_affine:
            self._affine(ref, loop_vars)

    def _affine(self, ref: ArrayRef, loop_vars: Tuple[str, ...]) -> None:
        index_set = self._index_sets.get(loop_vars)
        if index_set is None:
            index_set = self._index_sets[loop_vars] = frozenset(loop_vars)
        for position, index in enumerate(ref.indices):
            try:
                self._linearize(index, index_set)
            except AnalysisError as error:
                self._flag(
                    "non-affine-subscript",
                    f"{ref.array}[...] subscript {position} is not affine "
                    f"in the loop indices: {error}",
                    loop_vars,
                )


def verify_program(
    program: Program, *, require_affine: bool = False
) -> List[Violation]:
    """Collect every invariant violation in ``program`` (empty = valid)."""
    return _Verifier(program, require_affine).run()


def check_ir(
    program: Program,
    *,
    require_affine: bool = False,
    stage: Optional[str] = None,
    kernel: Optional[str] = None,
) -> Program:
    """Verify and return ``program``; raise on any violation.

    The raised :class:`~repro.errors.VerificationError` lists every
    violation in its message and carries them structurally on
    ``violations``, plus the ``stage``/``kernel`` context the pipeline
    provides — which is what the DSE layer turns into an
    infeasible-point diagnostic.
    """
    violations = verify_program(program, require_affine=require_affine)
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        if len(violations) > 5:
            summary += f"; ... {len(violations) - 5} more"
        raise VerificationError(
            f"IR invariants violated ({len(violations)}): {summary}",
            violations=violations,
            stage=stage,
            kernel=kernel or program.name,
        )
    return program
