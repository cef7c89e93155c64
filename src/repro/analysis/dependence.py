"""Data dependence analysis on affine array accesses.

Implements the machinery Section 4 relies on:

* **distance vectors** between uniformly generated accesses, solved
  exactly by integer Gaussian elimination over the per-dimension
  subscript equations;
* **GCD** and **Banerjee** existence tests for pairs that are not
  uniformly generated (may-dependence, no constant distance);
* a **dependence graph** over a loop nest, classifying flow, anti,
  output, and input dependences, used to pick the initial unroll factors
  (loops carrying no dependence run fully parallel — Section 5.3) and to
  check unroll-and-jam legality.

A distance entry may be an integer, or ``None`` meaning *unconstrained*:
the accesses touch the same element regardless of that loop's iteration
(e.g. ``D[j]`` is invariant in ``i``, so the ``i`` entry of its
self-dependence is unconstrained).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.affine import AffineAccess, collect_accesses
from repro.errors import AnalysisError
from repro.ir.nest import LoopNest


class DependenceKind(Enum):
    """Classification by source/sink access kinds (source executes first)."""

    FLOW = "flow"      # write -> read   (true dependence)
    ANTI = "anti"      # read  -> write
    OUTPUT = "output"  # write -> write
    INPUT = "input"    # read  -> read   (reuse, not a real constraint)

    @classmethod
    def classify(cls, source_is_write: bool, sink_is_write: bool) -> "DependenceKind":
        if source_is_write and sink_is_write:
            return cls.OUTPUT
        if source_is_write:
            return cls.FLOW
        if sink_is_write:
            return cls.ANTI
        return cls.INPUT


#: One distance per loop, outermost first; ``None`` = unconstrained.
Distance = Tuple[Optional[int], ...]


def lexicographically_nonnegative(distance: Distance) -> bool:
    """True if the distance is realizable with the source running first.

    Scanning outermost-in: a positive entry decides yes, a negative one
    decides no, and an unconstrained entry decides *yes* — it can be
    chosen positive, which makes everything after it irrelevant.  An
    all-zero distance is realizable within one iteration (program order
    decides).
    """
    for entry in distance:
        if entry is None:
            return True
        if entry != 0:
            return entry > 0
    return True


def negate(distance: Distance) -> Distance:
    """The distance of the opposite direction (unconstrained entries stay)."""
    return tuple(None if entry is None else -entry for entry in distance)


def is_zero(distance: Distance) -> bool:
    """True if the accesses only ever meet within one iteration.

    An unconstrained entry (``None``) means the loop *can* separate the
    two accesses (any iteration distance reaches the same element), so a
    distance with a ``None`` entry is never loop-independent.
    """
    return all(entry == 0 for entry in distance)


def carrier(distance: Distance) -> Optional[int]:
    """Depth of the outermost loop that carries this dependence.

    An unconstrained entry carries the dependence at its depth: e.g. the
    accumulation ``D[j] = D[j] + ...`` inside an ``i`` loop has distance
    ``(0, None)`` over ``(j, i)`` and is carried by ``i`` — every ``i``
    iteration hits the same element.  ``None`` result means the
    dependence is loop-independent.
    """
    for depth, entry in enumerate(distance):
        if entry is None or entry != 0:
            return depth
    return None


@dataclass(frozen=True)
class Dependence:
    """A dependence edge: ``source`` may conflict with ``sink``.

    ``distance`` is present for uniformly generated pairs with a constant
    solution; ``None`` means only a may-dependence is known (the GCD /
    Banerjee tests could not rule it out).
    """

    source: AffineAccess
    sink: AffineAccess
    kind: DependenceKind
    distance: Optional[Distance]

    @property
    def is_consistent(self) -> bool:
        """Constant-distance (the paper's *consistent* dependence)."""
        return self.distance is not None

    @property
    def loop_independent(self) -> bool:
        return self.distance is not None and is_zero(self.distance)

    def carried_by(self, depth: int) -> bool:
        """True if the loop at ``depth`` carries this dependence.

        A may-dependence (no distance) is conservatively carried by every
        loop whose index appears in either access (or neither — then by
        all).
        """
        if self.distance is None:
            return True
        return carrier(self.distance) == depth

    def __str__(self) -> str:
        dist = "?" if self.distance is None else \
            "(" + ", ".join("*" if d is None else str(d) for d in self.distance) + ")"
        return f"{self.kind.value}: {self.source} -> {self.sink} {dist}"


# ---------------------------------------------------------------------------
# Existence tests
# ---------------------------------------------------------------------------

def gcd_test(a: AffineAccess, b: AffineAccess) -> bool:
    """GCD test: can ``a`` and ``b`` touch the same element at all?

    Per dimension, ``sum(a_k i_k) + c_a == sum(b_k i'_k) + c_b`` has an
    integer solution only if gcd of all coefficients divides the constant
    difference.  Returns True if a dependence *may* exist.
    """
    if a.array != b.array or len(a.subscripts) != len(b.subscripts):
        return False
    from math import gcd
    for sub_a, sub_b in zip(a.subscripts, b.subscripts):
        divisor = 0
        for _, coeff in sub_a.terms:
            divisor = gcd(divisor, abs(coeff))
        for _, coeff in sub_b.terms:
            divisor = gcd(divisor, abs(coeff))
        delta = sub_b.constant - sub_a.constant
        if divisor == 0:
            if delta != 0:
                return False
        elif delta % divisor != 0:
            return False
    return True


def banerjee_test(
    a: AffineAccess, b: AffineAccess, bounds: Dict[str, Tuple[int, int]]
) -> bool:
    """Banerjee bounds test over rectangular loop bounds.

    ``bounds[var] = (lower, upper_exclusive)``.  Treats the two accesses'
    iterations as independent variables; returns True if the constant
    difference lies within the attainable range of the subscript
    difference in every dimension (a dependence *may* exist).
    """
    if a.array != b.array or len(a.subscripts) != len(b.subscripts):
        return False
    for sub_a, sub_b in zip(a.subscripts, b.subscripts):
        # Collision:  sum(a_k i_k) + c_a == sum(b_k i'_k) + c_b, i.e.
        #   sum(a_k i_k) - sum(b_k i'_k) == c_b - c_a
        # with the left side ranging over [low, high] for in-bounds
        # iterations.
        delta = sub_b.constant - sub_a.constant
        low = high = 0
        for terms, sign in ((sub_a.terms, 1), (sub_b.terms, -1)):
            for var, coeff in terms:
                if var not in bounds:
                    raise AnalysisError(f"no bounds known for index variable {var!r}")
                lo_v, hi_v = bounds[var][0], bounds[var][1] - 1
                contrib = sign * coeff
                low += min(contrib * lo_v, contrib * hi_v)
                high += max(contrib * lo_v, contrib * hi_v)
        if not low <= delta <= high:
            return False
    return True


# ---------------------------------------------------------------------------
# Exact constant-distance solver
# ---------------------------------------------------------------------------

def constant_distance(
    a: AffineAccess, b: AffineAccess, index_vars: Sequence[str]
) -> Optional[Distance]:
    """Solve for the constant distance vector ``d`` with ``I_b = I_a + d``.

    Requires the pair to be uniformly generated (identical linear parts);
    then per dimension ``sum_k coeff_k * d_k = c_a - c_b``.  Gaussian
    elimination over the integers; a variable never mentioned by any
    subscript is unconstrained (``None`` entry).  Returns ``None`` when
    the system is inconsistent, non-integral, or underdetermined in a
    mentioned variable (the paper's *inconsistent* dependence, e.g.
    ``S[i+j]`` vs ``S[i+j+2]``).
    """
    if a.array != b.array or a.linear_signature() != b.linear_signature():
        return None
    names = a.variables()
    mentioned = [var for var in index_vars if var in names]
    rows: List[List[int]] = []
    for sub_a, sub_b in zip(a.subscripts, b.subscripts):
        coeffs = sub_a.coefficients
        row = [coeffs.get(var, 0) for var in mentioned]
        row.append(sub_a.constant - sub_b.constant)
        rows.append(row)
    solution = _solve_exactly(rows, len(mentioned))
    if solution is None:
        return None
    values = dict(zip(mentioned, solution))
    return tuple(values.get(var) for var in index_vars)


def _solve_exactly(
    rows: List[List[int]], num_vars: int
) -> Optional[List[int]]:
    """Solve ``A x = b`` (augmented integer rows) for a unique integral
    solution.

    Returns ``None`` if inconsistent, underdetermined, or if the unique
    rational solution is not integral (the accesses never meet).  With
    zero variables, succeeds iff every constant row is zero.

    Fraction-free Gauss-Jordan elimination: a row is updated to
    ``row * lead - factor * pivot_row``, a nonzero multiple of what
    rational elimination leaves, so every row has the same zero pattern
    and the same pivots are chosen.  A pivot row ends as ``lead * x =
    rhs``.
    """
    matrix = [row[:] for row in rows]
    pivot_row = 0
    pivot_cols: List[int] = []
    for col in range(num_vars):
        pivot = next(
            (r for r in range(pivot_row, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        pivot_values = matrix[pivot_row]
        lead = pivot_values[col]
        for r in range(len(matrix)):
            factor = matrix[r][col]
            if r != pivot_row and factor != 0:
                matrix[r] = [
                    value * lead - factor * pivot_value
                    for value, pivot_value in zip(matrix[r], pivot_values)
                ]
        pivot_cols.append(col)
        pivot_row += 1
    # Inconsistent: a zero row with nonzero constant.
    for row in matrix[pivot_row:]:
        if row[-1] != 0:
            return None
    if len(pivot_cols) < num_vars:
        return None  # underdetermined
    solution = [0] * num_vars
    for r, col in enumerate(pivot_cols):
        lead, rhs = matrix[r][col], matrix[r][-1]
        if rhs % lead != 0:
            return None  # fractional distance: the accesses never meet
        solution[col] = rhs // lead
    return solution


# ---------------------------------------------------------------------------
# Dependence graph over a loop nest
# ---------------------------------------------------------------------------

@dataclass
class DependenceGraph:
    """All dependences among the array accesses of one loop nest."""

    nest: LoopNest
    accesses: List[AffineAccess]
    dependences: List[Dependence]

    @classmethod
    def build(cls, nest: LoopNest) -> "DependenceGraph":
        accesses = collect_accesses(nest)
        index_vars = nest.index_vars
        bounds = {
            info.var: (info.loop.lower, info.loop.upper) for info in nest.loops
        }
        dependences: List[Dependence] = []
        for i, first in enumerate(accesses):
            for second in accesses[i:]:
                if first.array != second.array:
                    continue
                dependences.extend(
                    _pair_dependences(first, second, index_vars, bounds)
                )
        return cls(nest, accesses, dependences)

    # -- queries -------------------------------------------------------------

    def true_dependences(self) -> List[Dependence]:
        """Flow, anti, and output dependences (everything except reuse)."""
        return [d for d in self.dependences if d.kind is not DependenceKind.INPUT]

    def input_dependences(self) -> List[Dependence]:
        return [d for d in self.dependences if d.kind is DependenceKind.INPUT]

    def carried_by(self, depth: int) -> List[Dependence]:
        return [d for d in self.true_dependences() if d.carried_by(depth)]

    def loop_is_parallel(self, depth: int) -> bool:
        """True if the loop at ``depth`` carries no flow/anti/output
        dependence — its unrolled iterations can all run in parallel
        (Section 5.3's first choice for the initial unroll factor)."""
        return not self.carried_by(depth)

    def parallel_loops(self) -> List[int]:
        return [d for d in range(self.nest.depth) if self.loop_is_parallel(d)]

    def min_nonzero_distance(self, depth: int) -> Optional[int]:
        """Smallest positive constrained distance carried at ``depth``.

        Section 5.3 favors larger unroll factors for loops with larger
        minimum dependence distances, because iterations between
        dependences can run in parallel.  ``None`` if nothing is carried
        there with a constant distance.
        """
        values = [
            d.distance[depth]
            for d in self.true_dependences()
            if d.distance is not None
            and d.distance[depth] is not None
            and d.distance[depth] > 0
            and d.carried_by(depth)
        ]
        return min(values) if values else None

    def unroll_and_jam_legal(self, depth: int) -> bool:
        """Classic legality test: unroll-and-jam of the loop at ``depth``
        is illegal if a dependence carried by that loop has a negative
        constrained entry in some inner position (jamming would reverse
        it).

        A *may*-dependence (no constant distance, e.g. the write
        ``OUT[i + j]`` conflicting with itself across iterations) is
        conservatively blocking: jamming interleaves the copies'
        statements with the fused inner loop, and without a distance we
        cannot prove the interleaving preserves the conflicting order.

        Dependences between accesses of one recognized reduction are
        exempt — jamming only reorders an associative-commutative
        accumulation (CORR's ``R[y][x] += ...`` under four loops).

        Unrolling the *innermost* loop involves no jam at all — the
        copies run back to back in iteration order — so it is always
        legal.
        """
        if depth == self.nest.depth - 1:
            return True
        from repro.analysis.reduction import find_reductions, same_reduction
        reductions = find_reductions(self.nest.program.body)
        for dep in self.true_dependences():
            if same_reduction(reductions, dep.source.ref, dep.sink.ref):
                continue
            if dep.distance is None:
                return False
            if carrier(dep.distance) != depth:
                continue
            for entry in dep.distance[depth + 1:]:
                # A negative inner entry is reversed by jamming; an
                # unconstrained one is realizable negative, so it blocks
                # too (two unconstrained writes to OUT[0] in different
                # statements must keep their full iteration order).
                if entry is None or entry < 0:
                    return False
        return True


def _pair_dependences(
    first: AffineAccess,
    second: AffineAccess,
    index_vars: Sequence[str],
    bounds: Dict[str, Tuple[int, int]],
) -> List[Dependence]:
    """Dependences between one ordered pair of accesses (program order:
    ``first`` no later than ``second``)."""
    results: List[Dependence] = []
    if not gcd_test(first, second) or not banerjee_test(first, second, bounds):
        return results
    distance = constant_distance(first, second, index_vars)
    if distance is None:
        # May-dependence only; skip read-read pairs (reuse needs a distance
        # to be exploitable anyway).
        if first.is_write or second.is_write:
            kind = DependenceKind.classify(first.is_write, second.is_write)
            results.append(Dependence(first, second, kind, None))
        return results
    if first is second:
        # Self pair: the all-zero solution (same access, same iteration)
        # is trivial.  A genuine self dependence exists only when some
        # entry is unconstrained — the access revisits the same element
        # in other iterations of that loop (e.g. D[j] over i).
        if any(entry is None for entry in distance):
            kind = DependenceKind.classify(first.is_write, second.is_write)
            results.append(Dependence(first, second, kind, distance))
        return results
    # Each direction is emitted if its distance (sink iteration minus
    # source iteration) is realizable with the source running first.  A
    # distance with unconstrained entries is usually realizable both ways
    # (the write of D[j] at iteration i feeds the read at i+1 — flow —
    # and follows the read at i — anti); a strictly signed distance only
    # one way.
    if lexicographically_nonnegative(distance):
        kind = DependenceKind.classify(first.is_write, second.is_write)
        results.append(Dependence(first, second, kind, distance))
    reverse = negate(distance)
    if not is_zero(distance) and lexicographically_nonnegative(reverse):
        kind = DependenceKind.classify(second.is_write, first.is_write)
        results.append(Dependence(second, first, kind, reverse))
    return results
