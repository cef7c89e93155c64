"""Affine subscript analysis.

The paper restricts input programs to array subscripts that are affine
functions of the loop index variables with constant strides (Section 2.4).
This module turns subscript expressions into an explicit linear form

    a1*i1 + a2*i2 + ... + an*in + b

(:class:`AffineExpr`), and array references into :class:`AffineAccess`
records carrying one affine expression per dimension.  Everything
downstream — dependence testing, uniformly generated sets, data layout —
works on these records instead of raw expression trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.ir.expr import (
    ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef, array_refs,
)
from repro.ir.nest import LoopNest
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt


@dataclass(frozen=True)
class AffineExpr:
    """A linear function of loop index variables plus a constant.

    ``coefficients`` maps index-variable names to integer coefficients;
    variables absent from the map have coefficient zero.  Stored as a
    sorted tuple of pairs so instances hash and compare structurally.
    """

    terms: Tuple[Tuple[str, int], ...]
    constant: int = 0

    @classmethod
    def from_parts(cls, coefficients: Mapping[str, int], constant: int) -> "AffineExpr":
        terms = tuple(sorted((v, c) for v, c in coefficients.items() if c != 0))
        return cls(terms, constant)

    @property
    def coefficients(self) -> Dict[str, int]:
        return dict(self.terms)

    def coefficient(self, var: str) -> int:
        return self.coefficients.get(var, 0)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def depends_on(self, var: str) -> bool:
        return self.coefficient(var) != 0

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = self.constant
        for var, coeff in self.terms:
            total += coeff * values[var]
        return total

    def shifted(self, delta: int) -> "AffineExpr":
        """The same linear part with the constant moved by ``delta``."""
        return AffineExpr(self.terms, self.constant + delta)

    def substituted(self, var: str, replacement: "AffineExpr") -> "AffineExpr":
        """Replace ``var`` with another affine expression (used by unrolling
        and tiling legality reasoning: ``i -> i + k``, ``i -> ii*T + it``)."""
        own = self.coefficients
        coeff = own.pop(var, 0)
        if coeff == 0:
            return self
        constant = self.constant + coeff * replacement.constant
        for other_var, other_coeff in replacement.terms:
            own[other_var] = own.get(other_var, 0) + coeff * other_coeff
        return AffineExpr.from_parts(own, constant)

    def same_linear_part(self, other: "AffineExpr") -> bool:
        """True if only the constants differ — the *uniformly generated*
        condition from Section 4 (array renaming)."""
        return self.terms == other.terms

    def __str__(self) -> str:
        parts: List[str] = []
        for var, coeff in self.terms:
            if coeff == 1:
                parts.append(var)
            elif coeff == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coeff}*{var}")
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


def linearize(expr: Expr, index_vars: Sequence[str]) -> AffineExpr:
    """Convert an expression to affine form over ``index_vars``.

    Raises :class:`AnalysisError` if the expression is not affine (index
    variables multiplied together, division, references to arrays or
    non-index scalars, intrinsic calls...).  Non-index scalar references
    are rejected because the paper requires constant strides and bounds;
    symbolic coefficients would defeat the dependence tests.

    The affine form depends only on the (immutable) tree, so a success is
    kept on the expression node: a later call whose index variables cover
    the form's variables returns it without re-deriving.  Forms in which
    a variable cancels out (``i - i``) are not kept, since the check
    would miss that variable.  Failures are never kept, so a non-affine
    subscript raises on every call, and the form lives and dies with its
    node.
    """
    index_set = frozenset(index_vars)
    cached = getattr(expr, _AFFINE_FORM, None)
    if cached is not None:
        for var, _ in cached.terms:
            if var not in index_set:
                break
        else:
            return cached
    names = set()

    def recurse(node: Expr) -> Tuple[Dict[str, int], int]:
        if isinstance(node, IntLit):
            return {}, node.value
        if isinstance(node, VarRef):
            if node.name not in index_set:
                raise AnalysisError(
                    f"subscript uses non-index variable {node.name!r}; "
                    "subscripts must be affine in the loop indices"
                )
            names.add(node.name)
            return {node.name: 1}, 0
        if isinstance(node, UnOp) and node.op == "-":
            coeffs, const = recurse(node.operand)
            return {v: -c for v, c in coeffs.items()}, -const
        if isinstance(node, BinOp):
            if node.op in ("+", "-"):
                left_coeffs, left_const = recurse(node.left)
                right_coeffs, right_const = recurse(node.right)
                sign = 1 if node.op == "+" else -1
                for var, coeff in right_coeffs.items():
                    left_coeffs[var] = left_coeffs.get(var, 0) + sign * coeff
                return left_coeffs, left_const + sign * right_const
            if node.op == "*":
                left_coeffs, left_const = recurse(node.left)
                right_coeffs, right_const = recurse(node.right)
                if left_coeffs and right_coeffs:
                    raise AnalysisError(f"non-linear subscript term: {node}")
                if left_coeffs:
                    return {v: c * right_const for v, c in left_coeffs.items()}, \
                        left_const * right_const
                return {v: c * left_const for v, c in right_coeffs.items()}, \
                    left_const * right_const
            if node.op == "<<":
                coeffs, const = recurse(node.left)
                _, shift = recurse(node.right)  # must be constant
                factor = 1 << shift
                return {v: c * factor for v, c in coeffs.items()}, const * factor
            raise AnalysisError(f"non-affine operator {node.op!r} in subscript: {node}")
        raise AnalysisError(f"non-affine subscript expression: {node}")

    coefficients, constant = recurse(expr)
    form = AffineExpr.from_parts(coefficients, constant)
    if isinstance(expr, Expr) and len(form.terms) == len(names):
        # Outside the dataclass fields: equality, hashing and printing
        # never see it.
        object.__setattr__(expr, _AFFINE_FORM, form)
    return form


#: The attribute under which :func:`linearize` keeps a node's form.
_AFFINE_FORM = "_affine_form"


@dataclass(frozen=True)
class AffineAccess:
    """One array reference in affine form.

    Attributes:
        array: the array name.
        subscripts: one :class:`AffineExpr` per dimension.
        is_write: True if this reference is an assignment target.
        ref: the original IR node (identity is meaningful: two textually
            equal reads are distinct accesses).
        depth: loop depth at which the reference's statement appears
            (0 = directly inside the outermost loop).
        guarded: True if the reference sits inside an ``if`` branch — it
            may not execute, so scalar replacement must not turn it into
            an unconditional memory access.
    """

    array: str
    subscripts: Tuple[AffineExpr, ...]
    is_write: bool
    ref: ArrayRef = field(compare=False, repr=False)
    depth: int = field(compare=False, default=0)
    guarded: bool = field(compare=False, default=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_offset", tuple(sub.constant for sub in self.subscripts)
        )

    @property
    def is_read(self) -> bool:
        return not self.is_write

    def linear_signature(self) -> Tuple[Tuple[Tuple[str, int], ...], ...]:
        """The per-dimension linear parts; equal signatures mean the two
        accesses are *uniformly generated* (Section 4)."""
        return tuple(sub.terms for sub in self.subscripts)

    def constant_vector(self) -> Tuple[int, ...]:
        return self._offset

    def variables(self) -> frozenset:
        names = set()
        for sub in self.subscripts:
            names.update(sub.variables)
        return frozenset(names)

    def depends_on(self, var: str) -> bool:
        return any(sub.depends_on(var) for sub in self.subscripts)

    def __str__(self) -> str:
        subs = "".join(f"[{sub}]" for sub in self.subscripts)
        flag = "W" if self.is_write else "R"
        return f"{flag}:{self.array}{subs}"


def collect_accesses(nest: LoopNest) -> List[AffineAccess]:
    """All affine array accesses inside a loop nest, in program order.

    Subscript evaluation order within a statement follows the
    interpreter: target subscripts, then the right-hand side left to
    right; but the access list orders reads before the write of the same
    statement since hardware must fetch operands first.
    """
    accesses: List[AffineAccess] = []
    index_vars = nest.index_vars

    def visit_expr(expr: Expr, depth: int, guarded: bool) -> None:
        for node in array_refs(expr):
            accesses.append(_make_access(
                node, index_vars, is_write=False, depth=depth, guarded=guarded,
            ))

    def visit_stmt(stmt: Stmt, depth: int, guarded: bool) -> None:
        if isinstance(stmt, Assign):
            visit_expr(stmt.value, depth, guarded)
            if isinstance(stmt.target, ArrayRef):
                for index in stmt.target.indices:
                    visit_expr(index, depth, guarded)
                accesses.append(_make_access(
                    stmt.target, index_vars, is_write=True, depth=depth,
                    guarded=guarded,
                ))
        elif isinstance(stmt, If):
            # The condition always evaluates; the branches may not.
            visit_expr(stmt.cond, depth, guarded)
            for inner in stmt.then_body + stmt.else_body:
                visit_stmt(inner, depth, guarded=True)
        elif isinstance(stmt, For):
            for inner in stmt.body:
                visit_stmt(inner, depth + 1, guarded)
        elif isinstance(stmt, RotateRegisters):
            pass
        else:
            raise AnalysisError(f"unknown statement node {type(stmt).__name__}")

    for stmt in nest.outermost.body:
        visit_stmt(stmt, depth=0, guarded=False)
    return accesses


def _make_access(
    ref: ArrayRef, index_vars: Sequence[str], is_write: bool, depth: int,
    guarded: bool = False,
) -> AffineAccess:
    subscripts = tuple(linearize(index, index_vars) for index in ref.indices)
    return AffineAccess(ref.array, subscripts, is_write, ref, depth, guarded)


def group_uniformly_generated(
    accesses: Sequence[AffineAccess],
) -> Dict[Tuple[str, Tuple], List[AffineAccess]]:
    """Partition accesses into uniformly generated sets.

    Two references to the same array are uniformly generated when their
    subscripts have identical linear parts (they differ only in constant
    offsets).  The key is ``(array, linear_signature)``.
    """
    groups: Dict[Tuple[str, Tuple], List[AffineAccess]] = {}
    for access in accesses:
        key = (access.array, access.linear_signature())
        groups.setdefault(key, []).append(access)
    return groups


def bucket_by_offset(
    accesses: Sequence[AffineAccess],
) -> Dict[Tuple[int, ...], List[AffineAccess]]:
    """Accesses keyed by constant vector, each bucket in program order
    (so ``min`` over a bucket breaks ties the way a scan of the whole
    set would)."""
    buckets: Dict[Tuple[int, ...], List[AffineAccess]] = {}
    for access in accesses:
        buckets.setdefault(access.constant_vector(), []).append(access)
    return buckets


def all_uniformly_generated(accesses: Sequence[AffineAccess], array: str) -> bool:
    """True if every reference to ``array`` shares one linear signature —
    the precondition for array renaming (Section 4)."""
    signatures = {
        access.linear_signature() for access in accesses if access.array == array
    }
    return len(signatures) <= 1
