"""Expression nodes of the loop-nest IR.

Expressions are immutable; transformations build new trees rather than
mutating in place, which keeps sharing safe and makes the interpreter and
printers straightforward.  The node set is deliberately small — the C
subset the paper accepts needs integer arithmetic, comparisons, boolean
connectives, and array references with affine subscripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.ir.types import INT32, BOOL, IntType

# Binary operators, grouped by the hardware resource class they bind to in
# behavioral synthesis.  The estimator keys its operator library on these
# exact strings.
ARITH_OPS = ("+", "-", "*", "/", "%")
SHIFT_OPS = ("<<", ">>")
BITWISE_OPS = ("&", "|", "^")
COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGICAL_OPS = ("&&", "||")
BINARY_OPS = ARITH_OPS + SHIFT_OPS + BITWISE_OPS + COMPARE_OPS + LOGICAL_OPS
UNARY_OPS = ("-", "!", "~")

_COMMUTATIVE = {"+", "*", "&", "|", "^", "==", "!=", "&&", "||"}


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions, left to right."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this expression tree (left to right)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children()
            if children:
                stack.extend(reversed(children))


@dataclass(frozen=True)
class IntLit(Expr):
    """An integer literal with an explicit type."""

    value: int
    type: IntType = INT32

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarRef(Expr):
    """A reference to a scalar variable or a loop index variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(Expr):
    """A subscripted reference to an array variable, e.g. ``S[i + j + 1]``.

    Subscripts are ordinary expressions; the affine analysis
    (:mod:`repro.analysis.affine`) decides whether they fall in the
    domain the paper's transformations require.
    """

    array: str
    indices: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError(f"array reference to {self.array!r} needs at least one subscript")

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def __str__(self) -> str:
        subs = "".join(f"[{index}]" for index in self.indices)
        return f"{self.array}{subs}"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation.  ``op`` must be one of :data:`BINARY_OPS`."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    @property
    def is_commutative(self) -> bool:
        return self.op in _COMMUTATIVE

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation.  ``op`` must be one of :data:`UNARY_OPS`."""

    op: str
    operand: Expr

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """A call to one of the supported intrinsics (abs, min, max).

    The paper's kernels (e.g. Sobel edge detection) need an absolute
    value; behavioral synthesis maps these to small dedicated datapath
    blocks, so the IR keeps them as calls rather than lowering to
    control flow.
    """

    INTRINSICS = ("abs", "min", "max")

    name: str
    args: Tuple[Expr, ...]

    def __post_init__(self):
        if self.name not in self.INTRINSICS:
            raise ValueError(f"unknown intrinsic {self.name!r}; supported: {self.INTRINSICS}")
        arity = 1 if self.name == "abs" else 2
        if len(self.args) != arity:
            raise ValueError(f"{self.name} expects {arity} argument(s), got {len(self.args)}")

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def substitute(expr: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Return ``expr`` with every :class:`VarRef` named in ``bindings`` replaced.

    Used by loop unrolling (``i`` → ``i + k``) and by scalar replacement
    (array reference → register reference is handled separately because it
    rewrites :class:`ArrayRef` nodes, not :class:`VarRef` nodes).
    """
    if isinstance(expr, VarRef):
        return bindings.get(expr.name, expr)
    if isinstance(expr, IntLit):
        return expr
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.array, tuple(substitute(e, bindings) for e in expr.indices))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, bindings), substitute(expr.right, bindings))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, substitute(expr.operand, bindings))
    if isinstance(expr, Call):
        return Call(expr.name, tuple(substitute(a, bindings) for a in expr.args))
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def referenced_scalars(expr: Expr) -> frozenset:
    """Names of all scalar variables read anywhere in ``expr``."""
    return frozenset(node.name for node in expr.walk() if isinstance(node, VarRef))


def referenced_arrays(expr: Expr) -> frozenset:
    """Names of all arrays referenced anywhere in ``expr``."""
    return frozenset(node.array for node in expr.walk() if isinstance(node, ArrayRef))


def array_refs(expr: Expr) -> Tuple[ArrayRef, ...]:
    """All array references in ``expr``, in pre-order (duplicates kept)."""
    found = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
            continue
        if isinstance(node, ArrayRef):
            found.append(node)
        children = node.children()
        if children:
            stack.extend(reversed(children))
    return tuple(found)


def fold_constants(expr: Expr) -> Expr:
    """Evaluate constant sub-expressions.

    Unrolling produces subscripts like ``(i + 0)`` and ``((i + 1) + 1)``;
    folding them keeps generated code readable and lets uniformly generated
    set detection compare normalized subscripts.  Only exact integer
    arithmetic is folded — division by zero and friends are left in place
    for the interpreter to report at run time.  A subtree with nothing to
    fold comes back as the same object.
    """
    return _fold(expr, None)


def substitute_folded(expr: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """``fold_constants(substitute(expr, bindings))`` in one pass.

    Like :func:`substitute`, every :class:`ArrayRef` in the result is a
    new node, so two substituted copies of one body never share a
    reference (scalar replacement keys its rewrites on reference
    identity).
    """
    return _fold(expr, bindings)


def _fold(expr: Expr, bindings: Optional[Mapping[str, Expr]]) -> Expr:
    """Fold ``expr`` bottom-up after replacing the variables in
    ``bindings``; ``None`` means plain folding, which keeps every
    unchanged node."""
    if isinstance(expr, VarRef):
        if bindings:
            value = bindings.get(expr.name)
            if value is not None:
                return _fold(value, None)
        return expr
    if isinstance(expr, IntLit):
        return expr
    if isinstance(expr, BinOp):
        left = _fold(expr.left, bindings)
        right = _fold(expr.right, bindings)
        folded = _fold_binop(expr.op, left, right)
        if folded is not None:
            return folded
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, ArrayRef):
        indices = tuple(_fold(e, bindings) for e in expr.indices)
        if bindings is None and same_nodes(indices, expr.indices):
            return expr
        return ArrayRef(expr.array, indices)
    if isinstance(expr, UnOp):
        operand = _fold(expr.operand, bindings)
        if isinstance(operand, IntLit) and expr.op == "-":
            return IntLit(-operand.value, operand.type)
        if isinstance(operand, IntLit) and expr.op == "!":
            return IntLit(0 if operand.value else 1, BOOL)
        if isinstance(operand, IntLit) and expr.op == "~":
            return IntLit(~operand.value, operand.type)
        return expr if operand is expr.operand else UnOp(expr.op, operand)
    if isinstance(expr, Call):
        args = tuple(_fold(a, bindings) for a in expr.args)
        if all(isinstance(a, IntLit) for a in args):
            values = [a.value for a in args]
            if expr.name == "abs":
                return IntLit(abs(values[0]), args[0].type)
            if expr.name == "min":
                return IntLit(min(values), args[0].type)
            if expr.name == "max":
                return IntLit(max(values), args[0].type)
        return expr if same_nodes(args, expr.args) else Call(expr.name, args)
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def same_nodes(new: Tuple[Expr, ...], old: Tuple[Expr, ...]) -> bool:
    """True if a rebuilt child tuple holds exactly the old children (the
    test rewriters use to hand back an unchanged node itself)."""
    return all(a is b for a, b in zip(new, old))


def _fold_binop(op: str, left: Expr, right: Expr) -> Optional[Expr]:
    """Fold a binary op over literals, plus the easy algebraic identities."""
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        lv, rv = left.value, right.value
        if op in ("/", "%") and rv == 0:
            return None  # leave for the interpreter to report
        if op in ("<<", ">>") and rv < 0:
            return None  # undefined in C; leave unfolded
        table = {
            "+": lambda: lv + rv, "-": lambda: lv - rv, "*": lambda: lv * rv,
            "/": lambda: _c_div(lv, rv), "%": lambda: _c_mod(lv, rv),
            "<<": lambda: lv << rv, ">>": lambda: lv >> rv,
            "&": lambda: lv & rv, "|": lambda: lv | rv, "^": lambda: lv ^ rv,
            "<": lambda: int(lv < rv), "<=": lambda: int(lv <= rv),
            ">": lambda: int(lv > rv), ">=": lambda: int(lv >= rv),
            "==": lambda: int(lv == rv), "!=": lambda: int(lv != rv),
            "&&": lambda: int(bool(lv) and bool(rv)),
            "||": lambda: int(bool(lv) or bool(rv)),
        }
        result_type = BOOL if op in COMPARE_OPS + LOGICAL_OPS else left.type
        return IntLit(table[op](), result_type)
    # x + 0, 0 + x, x - 0, x * 1, 1 * x, x * 0, 0 * x
    if op == "+" and isinstance(right, IntLit) and right.value == 0:
        return left
    if op == "+" and isinstance(left, IntLit) and left.value == 0:
        return right
    if op == "-" and isinstance(right, IntLit) and right.value == 0:
        return left
    if op == "*" and isinstance(right, IntLit) and right.value == 1:
        return left
    if op == "*" and isinstance(left, IntLit) and left.value == 1:
        return right
    if op == "*" and isinstance(right, IntLit) and right.value == 0:
        return IntLit(0, right.type)
    if op == "*" and isinstance(left, IntLit) and left.value == 0:
        return IntLit(0, left.type)
    return None


def _c_div(a: int, b: int) -> int:
    """C-style truncating division (rounds toward zero)."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _c_mod(a: int, b: int) -> int:
    """C-style remainder: ``a == b * _c_div(a, b) + _c_mod(a, b)``."""
    return a - b * _c_div(a, b)
