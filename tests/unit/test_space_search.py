"""Unit tests for the design space and the Figure-2 search."""

import pytest

from repro.dse.saturation import analyze_saturation
from repro.dse.search import SearchOptions
from repro.dse.space import DesignSpace
from repro.dse.strategy import (
    BalanceGuidedStrategy, increase, initial_vector, loop_priority,
)
from repro.frontend import compile_source
from repro.target import Board, virtex_300, wildstar_nonpipelined, wildstar_pipelined
from repro.target.memory import pipelined_memory
from repro.transform import UnrollVector


class TestDesignSpace:
    def test_size_is_product_of_trips(self, fir_program, pipelined_board):
        space = DesignSpace(fir_program, pipelined_board)
        assert space.size() == 64 * 32

    def test_enumerable_points_are_divisors(self, tiny_program, pipelined_board):
        space = DesignSpace(tiny_program, pipelined_board)
        points = list(space.enumerable_points())
        assert len(points) == 4 * 3  # divisors of 8 x divisors of 4
        assert all(space.is_valid(p) for p in points)

    def test_pinned_depths(self, mm_program, pipelined_board):
        space = DesignSpace(mm_program, pipelined_board, pinned_depths=(2,))
        assert all(p[2] == 1 for p in space.enumerable_points())
        assert not space.is_valid(UnrollVector.of(1, 1, 2))

    def test_evaluation_cached(self, tiny_program, pipelined_board):
        space = DesignSpace(tiny_program, pipelined_board)
        first = space.evaluate(UnrollVector.of(2, 2))
        second = space.evaluate(UnrollVector.of(2, 2))
        assert first is second
        assert space.points_evaluated == 1

    def test_is_valid_rejects_nondivisors(self, fir_program, pipelined_board):
        space = DesignSpace(fir_program, pipelined_board)
        assert not space.is_valid(UnrollVector.of(3, 1))
        assert space.is_valid(UnrollVector.of(4, 8))

    def test_exhaustive_search_finds_feasible_best(self, tiny_program, pipelined_board):
        space = DesignSpace(tiny_program, pipelined_board)
        result = space.exhaustive_search()
        assert result.best.estimate.fits(pipelined_board)
        cycles = [e.cycles for e in result.evaluations if e.estimate.fits(pipelined_board)]
        assert result.best.cycles == min(cycles)


class TestSearchMoves:
    @pytest.fixture
    def space(self, fir_program, pipelined_board):
        return DesignSpace(fir_program, pipelined_board)

    @pytest.fixture
    def saturation(self, space):
        return analyze_saturation(space.program, space.board.num_memories)

    @pytest.fixture
    def priority(self, space, saturation):
        return loop_priority(space, saturation)

    @pytest.fixture
    def walk(self, space, saturation, priority):
        """A balance walk positioned on FIR, ready to bisect."""
        strategy = BalanceGuidedStrategy()
        strategy.space = space
        strategy.saturation = saturation
        strategy.priority = priority
        return strategy

    def test_initial_vector_prefers_parallel_loop(self, saturation, priority):
        """FIR's j loop carries no dependence: Uinit = Sat_j = (4, 1)."""
        assert initial_vector(saturation, priority) == UnrollVector.of(4, 1)

    def test_increase_doubles_product(self, space, priority):
        current = UnrollVector.of(4, 1)
        bigger = increase(space, current, priority)
        assert bigger.product == 8
        assert bigger.dominates(current)

    def test_increase_spreads_to_lagging_loop(self, space, priority):
        grown = increase(space, UnrollVector.of(4, 1), priority)
        assert grown == UnrollVector.of(4, 2)

    def test_increase_saturates_at_umax(self, space, priority):
        full = UnrollVector.of(64, 32)
        assert increase(space, full, priority) == full

    def test_select_between_bisects_products(self, walk):
        chosen = walk.select_between(UnrollVector.of(4, 1), UnrollVector.of(16, 1))
        assert 4 < chosen.product < 16
        assert chosen.product % 4 == 0

    def test_select_between_falls_back_to_small(self, walk):
        small = UnrollVector.of(4, 1)
        chosen = walk.select_between(small, UnrollVector.of(8, 1))
        assert chosen == small  # no product strictly between 4 and 8 fits the box

    def test_select_between_component_bounds(self, walk):
        small, large = UnrollVector.of(2, 2), UnrollVector.of(8, 8)
        chosen = walk.select_between(small, large)
        assert chosen.dominates(small)
        assert large.dominates(chosen)


class TestSearchRuns:
    def test_fir_nonpipelined_stops_at_saturation(self, fir_program):
        """Memory bound at Uinit: the paper's FIR non-pipelined case."""
        space = DesignSpace(fir_program, wildstar_nonpipelined())
        result = BalanceGuidedStrategy().run(space)
        assert result.selected.unroll == result.initial
        assert result.trace[0].verdict == "memory bound"

    def test_fir_pipelined_explores_upward(self, fir_program):
        space = DesignSpace(fir_program, wildstar_pipelined())
        result = BalanceGuidedStrategy().run(space)
        assert result.selected.unroll.product > 4
        assert any(step.verdict == "compute bound" for step in result.trace)

    def test_selected_design_fits(self, fir_program):
        board = wildstar_pipelined()
        space = DesignSpace(fir_program, board)
        result = BalanceGuidedStrategy().run(space)
        assert result.selected.estimate.fits(board)

    def test_small_device_triggers_capacity_path(self, fir_program):
        board = Board(
            name="tiny", fpga=virtex_300(), memory=pipelined_memory(),
            num_memories=4, clock_ns=40.0,
        )
        space = DesignSpace(fir_program, board)
        result = BalanceGuidedStrategy().run(space)
        assert result.selected.estimate.fits(board)

    def test_points_searched_tiny_fraction(self, fir_program):
        space = DesignSpace(fir_program, wildstar_pipelined())
        BalanceGuidedStrategy().run(space)
        assert space.points_evaluated <= 10  # out of 2048 possible

    def test_trace_is_coherent(self, fir_program):
        space = DesignSpace(fir_program, wildstar_pipelined())
        result = BalanceGuidedStrategy().run(space)
        for step in result.trace:
            assert step.cycles > 0 and step.space > 0
            assert step.verdict in (
                "compute bound", "memory bound", "balanced, done",
                "exceeds capacity",
            )

    def test_max_iterations_respected(self, fir_program):
        space = DesignSpace(fir_program, wildstar_pipelined())
        options = SearchOptions(max_iterations=1)
        result = BalanceGuidedStrategy().run(space, options)
        assert len(result.trace) <= 1
