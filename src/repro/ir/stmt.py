"""Statement nodes of the loop-nest IR.

Like expressions, statements are immutable: bodies are tuples and
transformations rebuild the tree.  A program body is a tuple of
statements; there is no separate block node.

``RotateRegisters`` is the one node with no C counterpart.  It models the
parallel register-rotation the paper introduces during scalar replacement
for reuse carried by an outer loop (Figure 1(c)): in hardware all the
shifts happen in a single cycle, so keeping it as a first-class statement
lets the synthesis estimator cost it correctly instead of as a chain of
copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple, Union

from repro.ir.expr import ArrayRef, Expr, VarRef

#: The things an assignment may write to.
LValue = Union[VarRef, ArrayRef]


class Stmt:
    """Base class for all statement nodes."""

    __slots__ = ()

    def walk(self) -> Iterator["Stmt"]:
        """Pre-order traversal of this statement subtree."""
        return walk_all((self,))

    def children(self) -> Tuple["Stmt", ...]:
        """Immediately nested statements, in program order."""
        return ()

    def expressions(self) -> Tuple[Expr, ...]:
        """Expressions evaluated directly by this statement (not nested stmts)."""
        return ()


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = value;`` where target is a scalar or array reference."""

    target: LValue
    value: Expr

    def __post_init__(self):
        if not isinstance(self.target, (VarRef, ArrayRef)):
            raise TypeError(f"cannot assign to {type(self.target).__name__}")

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.target, self.value)

    def __str__(self) -> str:
        return f"{self.target} = {self.value};"


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) { then_body } else { else_body }``.

    The paper supports loops with control flow but notes the generated
    hardware always performs conditional memory accesses; the synthesis
    estimator schedules both arms and the interpreter takes one.
    """

    cond: Expr
    then_body: Tuple[Stmt, ...]
    else_body: Tuple[Stmt, ...] = ()

    def children(self) -> Tuple[Stmt, ...]:
        return self.then_body + self.else_body

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.cond,)

    def __str__(self) -> str:
        return f"if ({self.cond}) {{ ... }}"


@dataclass(frozen=True)
class For(Stmt):
    """A counted loop ``for (var = lower; var < upper; var += step)``.

    Bounds and step are compile-time constants, matching the paper's
    restriction (Section 2.4): "The loop bounds must be constant."
    ``upper`` is exclusive.  ``step`` must be positive; loop normalization
    (:mod:`repro.transform.normalize`) rewrites strided loops to step 1
    when needed for downstream analyses.
    """

    var: str
    lower: int
    upper: int
    step: int
    body: Tuple[Stmt, ...]
    #: Source position of the ``for`` keyword, threaded through by the
    #: frontend for diagnostics.  Excluded from equality/hash so printer
    #: round-trips and transform rewrites compare structurally; loops
    #: built programmatically keep the 0 sentinel ("no location").
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"loop {self.var}: step must be positive, got {self.step}")

    @property
    def location(self) -> "str | None":
        """``"line:column"`` when the frontend recorded one, else None."""
        if self.line:
            return f"{self.line}:{self.column}"
        return None

    @property
    def trip_count(self) -> int:
        """Number of iterations the loop executes."""
        if self.upper <= self.lower:
            return 0
        return (self.upper - self.lower + self.step - 1) // self.step

    def iteration_values(self) -> range:
        """The values the index variable takes, as a range object."""
        return range(self.lower, self.upper, self.step)

    def children(self) -> Tuple[Stmt, ...]:
        return self.body

    def __str__(self) -> str:
        incr = f"{self.var}++" if self.step == 1 else f"{self.var} += {self.step}"
        return f"for ({self.var} = {self.lower}; {self.var} < {self.upper}; {incr}) {{ ... }}"


@dataclass(frozen=True)
class RotateRegisters(Stmt):
    """Rotate a register file: ``(r0, r1, ..., rn) <- (r1, ..., rn, r0)``.

    Introduced by scalar replacement for outer-loop reuse.  All moves
    happen simultaneously (a barrel shift in hardware, a tuple assignment
    in the interpreter).
    """

    registers: Tuple[str, ...]

    def __post_init__(self):
        if len(self.registers) < 2:
            raise ValueError("register rotation needs at least two registers")

    def __str__(self) -> str:
        names = ", ".join(self.registers)
        return f"rotate_registers({names});"


def walk_all(body: Tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Pre-order traversal over a statement sequence."""
    stack = list(body)
    stack.reverse()
    while stack:
        stmt = stack.pop()
        yield stmt
        children = stmt.children()
        if children:
            stack.extend(reversed(children))


def count_statements(body: Tuple[Stmt, ...]) -> int:
    """Total number of statement nodes in a sequence, including nested ones."""
    return sum(1 for _ in walk_all(body))
