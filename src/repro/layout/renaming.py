"""Array renaming: the first phase of custom data layout (Section 4).

Performs a 1-to-1 mapping between array access expressions and virtual
memory ids.  An array qualifies when all of its accesses are *uniformly
generated* (identical linear subscript parts); the per-dimension modulus
is the GCD of that dimension's coefficients, so each access's residue —
hence its bank — is a compile-time constant.  The effect on FIR unrolled
by 2 is exactly Figure 1(d): even elements of ``S`` go to one bank, odd
to another, and ``S[2i + 2j + o]`` becomes ``S<o%2>[i + j + o/2]``.

Renaming runs after loop normalization, on the whole transformed program
(steady-state nest *and* peeled prologues), so every reference is
rewritten consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.affine import AffineExpr, linearize
from repro.errors import AnalysisError, LayoutError
from repro.ir.expr import (
    ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef, array_refs, same_nodes,
)
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program, VarDecl
from repro.layout.plan import BankedArray


@dataclass(frozen=True)
class ObservedAccess:
    """One array reference with its affine form in its own loop scope."""

    array: str
    subscripts: Tuple[AffineExpr, ...]
    is_write: bool
    #: nesting depth of the reference (loops entered), for mapping order.
    depth: int
    #: index of the top-level statement containing it (regions).
    region: int
    #: monotone program-order counter.
    order: int


def observe_accesses(program: Program) -> List[ObservedAccess]:
    """Collect every array access in the program with affine subscripts.

    Raises :class:`AnalysisError` if any subscript is not affine in the
    loop indices in scope at that point.
    """
    observed: List[ObservedAccess] = []
    counter = [0]

    def visit_expr(expr: Expr, scope: List[str], depth: int, region: int) -> None:
        for node in array_refs(expr):
            _record(node, scope, depth, region, is_write=False)

    def _record(ref: ArrayRef, scope: List[str], depth: int, region: int,
                is_write: bool) -> None:
        subscripts = tuple(linearize(index, scope) for index in ref.indices)
        observed.append(ObservedAccess(
            ref.array, subscripts, is_write, depth, region, counter[0]
        ))
        counter[0] += 1

    def visit_stmt(stmt: Stmt, scope: List[str], depth: int, region: int) -> None:
        if isinstance(stmt, Assign):
            visit_expr(stmt.value, scope, depth, region)
            if isinstance(stmt.target, ArrayRef):
                for index in stmt.target.indices:
                    visit_expr(index, scope, depth, region)
                _record(stmt.target, scope, depth, region, is_write=True)
        elif isinstance(stmt, If):
            visit_expr(stmt.cond, scope, depth, region)
            for inner in stmt.then_body + stmt.else_body:
                visit_stmt(inner, scope, depth, region)
        elif isinstance(stmt, For):
            scope.append(stmt.var)
            for inner in stmt.body:
                visit_stmt(inner, scope, depth + 1, region)
            scope.pop()
        elif isinstance(stmt, RotateRegisters):
            pass
        else:
            raise AnalysisError(f"unknown statement node {type(stmt).__name__}")

    for region, stmt in enumerate(program.body):
        visit_stmt(stmt, [], 0, region)
    return observed


def derive_moduli(
    accesses: Sequence[ObservedAccess], array_decl: VarDecl
) -> Optional[Tuple[int, ...]]:
    """Per-dimension bank moduli for one array, or ``None`` if the array
    cannot be renamed (accesses are not uniformly generated).

    The modulus of a dimension is the GCD of every coefficient appearing
    in that dimension's subscripts across all accesses; the residue of
    each access is then constant.  A dimension with a constant subscript
    gets modulus 1 (nothing to distribute).
    """
    members = [a for a in accesses if a.array == array_decl.name]
    if not members:
        return None
    # The paper requires all accesses to be uniformly generated.  We relax
    # this to the condition renaming actually needs: in every dimension,
    # every coefficient must be divisible by the modulus so each access's
    # residue (bank) is a compile-time constant.  Taking the GCD over all
    # accesses subsumes the uniformly generated case and also covers the
    # peeled prologue, whose substituted subscripts have different linear
    # parts but compatible strides.  Non-uniform access patterns simply
    # drive the GCD to 1 (no banking), the paper's single-memory fallback.
    moduli: List[int] = []
    for dim in range(len(array_decl.dims)):
        divisor = 0
        for access in members:
            for _, coeff in access.subscripts[dim].terms:
                divisor = gcd(divisor, abs(coeff))
        moduli.append(max(divisor, 1))
    return tuple(moduli)


@dataclass
class RenamingResult:
    program: Program
    banked: Dict[str, BankedArray]
    new_decls: List[VarDecl]


def rename_arrays(
    program: Program, max_total_banks: Optional[int] = None
) -> RenamingResult:
    """Apply array renaming to every qualifying array.

    Args:
        program: normalized, transformed program.
        max_total_banks: optional cap on banks per array (moduli are
            reduced to divisors so the product stays within the cap) —
            keeps pathological strides from exploding into thousands of
            tiny arrays.
    """
    accesses = observe_accesses(program)
    taken: Set[str] = {decl.name for decl in program.decls}
    banked: Dict[str, BankedArray] = {}
    new_decls: List[VarDecl] = []

    for decl in program.arrays():
        moduli = derive_moduli(accesses, decl)
        if moduli is None or all(m == 1 for m in moduli):
            continue
        moduli = _cap_moduli(moduli, max_total_banks)
        if all(m == 1 for m in moduli):
            continue
        bank_dims = tuple(
            -(-extent // modulus) for extent, modulus in zip(decl.dims, moduli)
        )
        banks: Dict[Tuple[int, ...], str] = {}
        for residues in _residue_vectors(moduli):
            index = _mixed_radix(residues, moduli)
            name = _fresh(f"{decl.name}{index}", taken)
            banks[residues] = name
            new_decls.append(VarDecl(name, decl.type, bank_dims))
        banked[decl.name] = BankedArray(
            original=decl.name,
            moduli=moduli,
            original_dims=decl.dims,
            banks=banks,
            bank_dims=bank_dims,
        )

    if not banked:
        return RenamingResult(program, {}, [])
    rewritten = _rewrite_program(program, banked)
    # Drop the original declarations of banked arrays; keep everything else.
    remaining = tuple(
        decl for decl in rewritten.decls if decl.name not in banked
    )
    final = Program(rewritten.name, remaining + tuple(new_decls), rewritten.body)
    return RenamingResult(final, banked, new_decls)


def _cap_moduli(
    moduli: Tuple[int, ...], max_total_banks: Optional[int]
) -> Tuple[int, ...]:
    if max_total_banks is None:
        return moduli
    result = list(moduli)
    while _product(result) > max_total_banks:
        # Halve the largest modulus via its smallest prime factor.
        largest = max(range(len(result)), key=lambda d: result[d])
        if result[largest] == 1:
            break
        result[largest] //= _smallest_prime_factor(result[largest])
    return tuple(result)


def _smallest_prime_factor(value: int) -> int:
    for candidate in range(2, value + 1):
        if value % candidate == 0:
            return candidate
    return value


def _residue_vectors(moduli: Tuple[int, ...]):
    if not moduli:
        yield ()
        return
    for rest in _residue_vectors(moduli[1:]):
        for residue in range(moduli[0]):
            yield (residue,) + rest


def _mixed_radix(residues: Tuple[int, ...], moduli: Tuple[int, ...]) -> int:
    index = 0
    for residue, modulus in zip(residues, moduli):
        index = index * modulus + residue
    return index


def _fresh(base: str, taken: Set[str]) -> str:
    name = base
    counter = 0
    while name in taken:
        counter += 1
        name = f"{base}_{counter}"
    taken.add(name)
    return name


def _product(values: Sequence[int]) -> int:
    result = 1
    for value in values:
        result *= value
    return result


# ---------------------------------------------------------------------------
# Reference rewriting
# ---------------------------------------------------------------------------

def _rewrite_program(program: Program, banked: Dict[str, BankedArray]) -> Program:
    """Rebank every reference to a banked array; any statement or
    expression that holds none comes back as the same object."""

    def rewrite_stmt(stmt: Stmt, scope: List[str]) -> Stmt:
        if isinstance(stmt, Assign):
            target = rewrite_expr(stmt.target, scope)
            assert isinstance(target, (VarRef, ArrayRef))
            value = rewrite_expr(stmt.value, scope)
            if target is stmt.target and value is stmt.value:
                return stmt
            return Assign(target, value)
        if isinstance(stmt, If):
            return If(
                rewrite_expr(stmt.cond, scope),
                tuple(rewrite_stmt(s, scope) for s in stmt.then_body),
                tuple(rewrite_stmt(s, scope) for s in stmt.else_body),
            )
        if isinstance(stmt, For):
            scope.append(stmt.var)
            body = tuple(rewrite_stmt(s, scope) for s in stmt.body)
            scope.pop()
            return For(stmt.var, stmt.lower, stmt.upper, stmt.step, body)
        return stmt

    def rewrite_expr(expr: Expr, scope: List[str]) -> Expr:
        if isinstance(expr, ArrayRef):
            indices = tuple(rewrite_expr(e, scope) for e in expr.indices)
            if not same_nodes(indices, expr.indices):
                expr = ArrayRef(expr.array, indices)
            plan = banked.get(expr.array)
            return expr if plan is None else _rebank(expr, plan, scope)
        if isinstance(expr, BinOp):
            left = rewrite_expr(expr.left, scope)
            right = rewrite_expr(expr.right, scope)
            if left is expr.left and right is expr.right:
                return expr
            return BinOp(expr.op, left, right)
        if isinstance(expr, UnOp):
            operand = rewrite_expr(expr.operand, scope)
            return expr if operand is expr.operand else UnOp(expr.op, operand)
        if isinstance(expr, Call):
            args = tuple(rewrite_expr(a, scope) for a in expr.args)
            return expr if same_nodes(args, expr.args) else Call(expr.name, args)
        return expr

    body = tuple(rewrite_stmt(stmt, []) for stmt in program.body)
    return program.with_body(body)


def _rebank(ref: ArrayRef, plan: BankedArray, scope: List[str]) -> ArrayRef:
    """Rewrite one reference: pick its bank by residue, divide the
    subscripts by the moduli."""
    residues: List[int] = []
    new_indices: List[Expr] = []
    for index_expr, modulus in zip(ref.indices, plan.moduli):
        affine = linearize(index_expr, scope)
        residue = affine.constant % modulus
        residues.append(residue)
        terms = {}
        for var, coeff in affine.terms:
            if coeff % modulus != 0:
                raise LayoutError(
                    f"{ref.array}: coefficient {coeff} not divisible by "
                    f"modulus {modulus}; renaming precondition violated"
                )
            terms[var] = coeff // modulus
        constant = (affine.constant - residue) // modulus
        new_indices.append(
            _affine_to_expr(AffineExpr.from_parts(terms, constant))
        )
    bank_name = plan.banks[tuple(residues)]
    return ArrayRef(bank_name, tuple(new_indices))


def _affine_to_expr(affine: AffineExpr) -> Expr:
    expr: Optional[Expr] = None
    for var, coeff in affine.terms:
        term: Expr = VarRef(var) if coeff == 1 else BinOp(
            "*", IntLit(coeff), VarRef(var)
        )
        expr = term if expr is None else BinOp("+", expr, term)
    if expr is None:
        return IntLit(affine.constant)
    if affine.constant:
        expr = BinOp("+", expr, IntLit(affine.constant))
    return expr
