"""Differential tests: integer dependence solving against rational
elimination.

:func:`repro.analysis.dependence._solve_exactly` eliminates over the
integers with fraction-free row updates.  The reference below is
Gauss-Jordan elimination over :class:`fractions.Fraction`, whose unique
solution is integral exactly when the integer solver returns one.
Whole dependence graphs built with each solver must agree on every
kernel and on seeded fuzz programs.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import dependence
from repro.analysis.dependence import DependenceGraph, _solve_exactly
from repro.errors import ReproError
from repro.fuzz import generate_program
from repro.ir.nest import LoopNest
from repro.kernels import ALL_KERNELS, EXTRA_KERNELS


def reference_solve(rows, num_vars):
    """The unique rational solution of the augmented rows, or ``None``."""
    matrix = [[Fraction(value) for value in row] for row in rows]
    pivot_row = 0
    pivot_cols = []
    for col in range(num_vars):
        pivot = next((r for r in range(pivot_row, len(matrix))
                      if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        scale = matrix[pivot_row][col]
        matrix[pivot_row] = [value / scale for value in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [value - factor * pivot_value for value, pivot_value
                             in zip(matrix[r], matrix[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
    if any(row[-1] != 0 for row in matrix[pivot_row:]):
        return None
    if len(pivot_cols) < num_vars:
        return None
    solution = [Fraction(0)] * num_vars
    for r, col in enumerate(pivot_cols):
        solution[col] = matrix[r][-1]
    return solution


def reference_distance(a, b, index_vars):
    if a.array != b.array or a.linear_signature() != b.linear_signature():
        return None
    mentioned = sorted(a.variables(), key=list(index_vars).index)
    rows = []
    for sub_a, sub_b in zip(a.subscripts, b.subscripts):
        row = [sub_a.coefficients.get(var, 0) for var in mentioned]
        rows.append(row + [sub_a.constant - sub_b.constant])
    solution = reference_solve(rows, len(mentioned))
    if solution is None or any(v.denominator != 1 for v in solution):
        return None
    values = dict(zip(mentioned, solution))
    return tuple(int(values[var]) if var in values else None
                 for var in index_vars)


def integral(solution):
    if solution is None or any(v.denominator != 1 for v in solution):
        return None
    return [int(v) for v in solution]


@st.composite
def systems(draw):
    num_vars = draw(st.integers(0, 3))
    entry = st.integers(-4, 4)
    row = st.one_of(
        st.just([0] * (num_vars + 1)),
        st.tuples(st.lists(entry, min_size=num_vars, max_size=num_vars),
                  st.integers(-9, 9)).map(lambda pair: pair[0] + [pair[1]]),
    )
    return draw(st.lists(row, max_size=4)), num_vars


class TestSolveExactly:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_matches_rational_elimination(self, system):
        rows, num_vars = system
        assert _solve_exactly(rows, num_vars) == integral(
            reference_solve(rows, num_vars))

    @pytest.mark.parametrize("rows, num_vars, expected", [
        ([[2, 3]], 1, None),                      # x = 3/2
        ([[-2, 4]], 1, [-2]),                     # negative lead
        ([[-3, 0, 6], [0, -1, 5]], 2, [-2, -5]),
        ([[1, 1, 2]], 2, None),                   # underdetermined
        ([[0, 0, 0], [1, 0, 3], [0, 2, -4]], 2, [3, -2]),
        ([[1, 1], [1, 2]], 1, None),              # inconsistent
        ([[2, 1, 1], [1, -1, 0]], 2, None),       # x = y = 1/3
        ([], 0, []),
        ([[0, 5]], 0, None),
    ])
    def test_edge_systems(self, rows, num_vars, expected):
        assert _solve_exactly(rows, num_vars) == expected
        assert integral(reference_solve(rows, num_vars)) == expected


def graph_summary(nest):
    try:
        graph = DependenceGraph.build(nest)
    except ReproError as error:
        return type(error).__name__, str(error)
    return (
        [(str(dep.source), str(dep.sink), dep.kind, dep.distance)
         for dep in graph.dependences],
        graph.parallel_loops(),
        [graph.min_nonzero_distance(depth) for depth in range(nest.depth)],
    )


def assert_same_graph(nest, monkeypatch):
    built = graph_summary(nest)
    with monkeypatch.context() as patch:
        patch.setattr(dependence, "constant_distance", reference_distance)
        assert graph_summary(nest) == built


class TestGraphs:
    @pytest.mark.parametrize("kernel", ALL_KERNELS + EXTRA_KERNELS,
                             ids=lambda kernel: kernel.name)
    def test_kernels(self, kernel, monkeypatch):
        assert_same_graph(LoopNest(kernel.program()), monkeypatch)

    def test_fuzz_programs(self, monkeypatch):
        for index in range(400):
            program = generate_program(random.Random(f"dependence:{index}"))
            assert_same_graph(LoopNest(program), monkeypatch)
