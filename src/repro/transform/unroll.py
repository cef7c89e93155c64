"""Unroll-and-jam.

The transformation at the heart of the design space: unrolling one or
more loops of the nest by an *unroll factor vector* ``U = (u1, ..., un)``
replicates the loop body, exposing operator parallelism to behavioral
synthesis and shrinking dependence distances so scalar replacement can
turn reused values into registers (Section 4).

Unrolling loop ``i`` by factor ``u`` multiplies its step by ``u`` and
replicates the body ``u`` times with ``i`` shifted by ``k * step``; for a
non-innermost loop the replicated inner loops are *jammed* (fused) back
into one.  When ``u`` does not divide the trip count, a residual
("epilogue") loop with the original step covers the leftover iterations —
note an epilogue makes the result no longer a single near-perfect nest,
so the DSE pipeline restricts itself to divisor factors while this
function stays general.

Scalar temporaries that are dead on entry to the body are privatized
(renamed per copy) so jamming cannot cross copies' values; a scalar that
is live into the body (an accumulator) keeps its name, which is correct
because copies execute in iteration order within the jammed body.

Legality across iterations is the caller's job via
:meth:`repro.analysis.DependenceGraph.unroll_and_jam_legal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import TransformError
from repro.ir.expr import BinOp, Expr, IntLit, VarRef, fold_constants, substitute
from repro.ir.nest import LoopNest
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program, VarDecl
from repro.ir.types import INT32


@dataclass(frozen=True)
class UnrollVector:
    """An unroll factor per loop, outermost first (the paper's ``U``)."""

    factors: Tuple[int, ...]

    def __post_init__(self):
        for factor in self.factors:
            if factor < 1:
                raise TransformError(f"unroll factors must be >= 1, got {self.factors}")

    @classmethod
    def ones(cls, depth: int) -> "UnrollVector":
        return cls((1,) * depth)

    @classmethod
    def of(cls, *factors: int) -> "UnrollVector":
        return cls(tuple(factors))

    @property
    def product(self) -> int:
        """The paper's ``P(U)`` — product of all factors."""
        result = 1
        for factor in self.factors:
            result *= factor
        return result

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, depth: int) -> int:
        return self.factors[depth]

    def __iter__(self):
        return iter(self.factors)

    def with_factor(self, depth: int, factor: int) -> "UnrollVector":
        factors = list(self.factors)
        factors[depth] = factor
        return UnrollVector(tuple(factors))

    def dominates(self, other: "UnrollVector") -> bool:
        """True if every factor is >= the other's (the component-wise
        ordering Increase/SelectBetween must respect)."""
        return all(a >= b for a, b in zip(self.factors, other.factors))

    def clamped(self, maxima: Sequence[int]) -> "UnrollVector":
        return UnrollVector(tuple(min(f, m) for f, m in zip(self.factors, maxima)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(f) for f in self.factors) + ")"


def unroll_and_jam(program: Program, factors: UnrollVector) -> Program:
    """Apply unroll-and-jam to the program's loop nest.

    Returns a new program; the input is untouched.  Subscript arithmetic
    introduced by the shifts is constant-folded so downstream analyses
    see normalized offsets.  Privatized temporaries get fresh
    declarations appended.
    """
    nest = LoopNest(program)
    if len(factors) != nest.depth:
        raise TransformError(
            f"unroll vector has {len(factors)} entries for a depth-{nest.depth} nest",
            kernel=program.name, stage="unroll",
        )
    for info, factor in zip(nest.loops, factors):
        if factor > info.trip_count and info.trip_count > 0:
            raise TransformError(
                f"unroll factor {factor} exceeds trip count {info.trip_count} "
                f"of loop {info.var!r}",
                kernel=program.name, stage="unroll", loop=info.var,
                location=info.loop.location,
            )
    context = _UnrollContext(program)
    # Substituting a folded, non-literal expression (``i + k``, a renamed
    # scalar) for a variable leaves a folded statement folded: whether a
    # folding rule applies depends only on literal operands, and those
    # stay where they were.  So the copies of a folded nest need no
    # folding pass.
    copies_folded = _nest_is_folded(nest)
    new_body: List[Stmt] = []
    for stmt in program.body:
        if stmt is nest.outermost:
            unrolled = context.unroll(stmt, list(factors.factors))
            new_body.extend(
                unrolled if copies_folded else map(_fold_stmt, unrolled)
            )
        else:
            new_body.append(_fold_stmt(stmt))
    result = program.with_body(tuple(new_body))
    if context.new_decls:
        result = result.with_decl(*context.new_decls)
    return result


class _UnrollContext:
    """Carries fresh-name generation state through the recursion."""

    def __init__(self, program: Program):
        self.taken: Set[str] = {decl.name for decl in program.decls}
        self.new_decls: List[VarDecl] = []

    def unroll(self, loop: For, factors: List[int]) -> List[Stmt]:
        """Unroll ``loop`` by ``factors[0]`` (inner loops by the rest).

        Returns the replacement statements: the main unrolled loop, plus
        an epilogue loop when the factor does not divide the trip count.
        """
        factor = factors[0]
        inner_factors = factors[1:]
        body = self._unroll_inner(loop.body, inner_factors)

        if factor == 1:
            return [For(loop.var, loop.lower, loop.upper, loop.step, tuple(body))]

        trip = loop.trip_count
        main_trips = (trip // factor) * factor
        main_upper = loop.lower + main_trips * loop.step

        private = _privatizable_scalars(body)
        copies: List[List[Stmt]] = []
        for k in range(factor):
            # The last copy keeps original scalar names so values that are
            # live out of the loop land in the right place.
            renames = {} if k == factor - 1 else {
                name: self._fresh(f"{name}__u{k}") for name in sorted(private)
            }
            copies.append(_make_copy(body, loop.var, k * loop.step, renames))
        jammed = _jam(copies)

        main = For(loop.var, loop.lower, main_upper, loop.step * factor, jammed)
        result: List[Stmt] = [main]
        if main_trips != trip:
            # A copy of its own (substitution builds new references):
            # the first unrolled copy may hold the very statements of
            # ``body``.
            epilogue = tuple(_substitute_stmt(stmt, {}, {}) for stmt in body)
            result.append(For(loop.var, main_upper, loop.upper, loop.step, epilogue))
        return result

    def _unroll_inner(self, body: Tuple[Stmt, ...], factors: List[int]) -> List[Stmt]:
        if not factors:
            return list(body)
        result: List[Stmt] = []
        for stmt in body:
            if isinstance(stmt, For):
                result.extend(self.unroll(stmt, factors))
            else:
                result.append(stmt)
        return result

    def _fresh(self, base: str) -> str:
        name = base
        counter = 0
        while name in self.taken:
            counter += 1
            name = f"{base}_{counter}"
        self.taken.add(name)
        self.new_decls.append(VarDecl(name, INT32))
        return name


def _privatizable_scalars(body: Sequence[Stmt]) -> Set[str]:
    """Scalars that are definitely written before any read in the body.

    These are per-iteration temporaries; each unrolled copy gets its own.
    The walk is conservative: a write under an ``if`` or inside an inner
    loop does not count as a definite write, and any read (anywhere,
    including inner loops or conditions) of a not-yet-definitely-written
    scalar disqualifies it.
    """
    written: Set[str] = set()
    disqualified: Set[str] = set()
    candidates: Set[str] = set()

    def read_names(expr: Expr) -> Set[str]:
        return {node.name for node in expr.walk() if isinstance(node, VarRef)}

    def scan(stmt: Stmt, definite: bool) -> None:
        if isinstance(stmt, Assign):
            reads: Set[str] = read_names(stmt.value)
            if not isinstance(stmt.target, VarRef):
                for index in stmt.target.indices:
                    reads |= read_names(index)
            for name in reads - written:
                disqualified.add(name)
            if isinstance(stmt.target, VarRef):
                candidates.add(stmt.target.name)
                if definite:
                    written.add(stmt.target.name)
        elif isinstance(stmt, If):
            for name in read_names(stmt.cond) - written:
                disqualified.add(name)
            for inner in stmt.then_body + stmt.else_body:
                scan(inner, definite=False)
        elif isinstance(stmt, For):
            disqualified.add(stmt.var)
            for inner in stmt.body:
                scan(inner, definite=False)
        elif isinstance(stmt, RotateRegisters):
            # Rotation reads every register: live-in state, never private.
            disqualified.update(stmt.registers)

    for stmt in body:
        scan(stmt, definite=True)
    return candidates - disqualified


def _make_copy(
    body: Sequence[Stmt], var: str, shift: int, renames: Dict[str, str]
) -> List[Stmt]:
    """One unrolled copy: ``var -> var + shift`` plus scalar privatization.

    Copies stay unfolded until the whole nest is built: privatization at
    an enclosing level reads them, and folding can drop a read
    (``x * 0``)."""
    bindings: Dict[str, Expr] = {old: VarRef(new) for old, new in renames.items()}
    if shift != 0:
        bindings[var] = BinOp("+", VarRef(var), IntLit(shift))
    if not bindings:
        return list(body)
    return [_substitute_stmt(stmt, bindings, renames) for stmt in body]


def _substitute_stmt(
    stmt: Stmt, bindings: Dict[str, Expr], renames: Dict[str, str]
) -> Stmt:
    if isinstance(stmt, Assign):
        if isinstance(stmt.target, VarRef):
            target: Expr = VarRef(renames.get(stmt.target.name, stmt.target.name))
        else:
            target = substitute(stmt.target, bindings)
        return Assign(target, substitute(stmt.value, bindings))
    if isinstance(stmt, If):
        return If(
            substitute(stmt.cond, bindings),
            tuple(_substitute_stmt(s, bindings, renames) for s in stmt.then_body),
            tuple(_substitute_stmt(s, bindings, renames) for s in stmt.else_body),
        )
    if isinstance(stmt, For):
        if stmt.var in bindings:
            raise TransformError(
                f"inner loop reuses index variable {stmt.var!r}",
                stage="unroll", loop=stmt.var, location=stmt.location,
            )
        return For(
            stmt.var, stmt.lower, stmt.upper, stmt.step,
            tuple(_substitute_stmt(s, bindings, renames) for s in stmt.body),
        )
    if isinstance(stmt, RotateRegisters):
        return stmt
    raise TransformError(
        f"unknown statement node {type(stmt).__name__}", stage="unroll",
    )


def _jam(copies: List[List[Stmt]]) -> Tuple[Stmt, ...]:
    """Fuse unrolled copies.

    If the body contains loops, walk by position: loops at the same
    position fuse recursively; straight-line statements at the same
    position concatenate across copies (so every copy's pre-statements
    run before the fused inner loop).  A flat body concatenates
    copy-major, preserving each copy's internal order and iteration
    order between copies — required for shared accumulators.
    """
    template = copies[0]
    if not any(isinstance(stmt, For) for stmt in template):
        return tuple(stmt for copy in copies for stmt in copy)
    jammed: List[Stmt] = []
    for position, stmt in enumerate(template):
        if isinstance(stmt, For):
            inner_copies = []
            for copy in copies:
                inner = copy[position]
                assert isinstance(inner, For) and inner.var == stmt.var
                inner_copies.append(list(inner.body))
            jammed.append(
                For(stmt.var, stmt.lower, stmt.upper, stmt.step, _jam(inner_copies))
            )
        else:
            for copy in copies:
                jammed.append(copy[position])
    return tuple(jammed)


def _nest_is_folded(nest: LoopNest) -> bool:
    """True if folding would leave every statement of the nest as it is.

    A loop other than the nest's own chain (one under an ``if``) counts
    as unfolded: the folding pass rebuilds it.
    """
    for info in nest.loops:
        for stmt in info.loop.body:
            if not isinstance(stmt, For) and not _is_folded(stmt):
                return False
    return True


def _is_folded(stmt: Stmt) -> bool:
    if isinstance(stmt, Assign):
        return (fold_constants(stmt.target) is stmt.target
                and fold_constants(stmt.value) is stmt.value)
    if isinstance(stmt, If):
        return fold_constants(stmt.cond) is stmt.cond and all(
            _is_folded(inner) for inner in stmt.children()
        )
    return isinstance(stmt, RotateRegisters)


def _fold_stmt(stmt: Stmt) -> Stmt:
    """Recursively constant-fold every expression in a statement tree
    (an assignment with nothing to fold is kept as it is)."""
    if isinstance(stmt, Assign):
        target = fold_constants(stmt.target)
        value = fold_constants(stmt.value)
        if target is stmt.target and value is stmt.value:
            return stmt
        return Assign(target, value)
    if isinstance(stmt, If):
        return If(
            fold_constants(stmt.cond),
            tuple(_fold_stmt(s) for s in stmt.then_body),
            tuple(_fold_stmt(s) for s in stmt.else_body),
        )
    if isinstance(stmt, For):
        return For(
            stmt.var, stmt.lower, stmt.upper, stmt.step,
            tuple(_fold_stmt(s) for s in stmt.body),
        )
    return stmt
