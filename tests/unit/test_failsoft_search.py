"""Fail-soft exploration: poisoned points degrade, budgets abort."""

import pytest

import repro.dse.space as space_module
from repro.dse import (
    BalanceGuidedStrategy, DesignSpace, ExploreConfig, SearchOptions,
    analyze_saturation, explore,
)
from repro.dse.strategy import initial_vector, loop_priority
from repro.errors import (
    NoFeasiblePoint, PointFailureBudgetExceeded, TransformError,
)
from repro.frontend import compile_source
from repro.target import wildstar_pipelined


@pytest.fixture
def poison(monkeypatch):
    """Make compile_design raise a TransformError for chosen unroll
    vectors (or for all of them with ``poison(all=True)``)."""
    original = space_module.compile_design
    state = {"vectors": set(), "all": False}

    def wrapper(program, unroll, num_memories, options=None):
        if state["all"] or unroll.factors in state["vectors"]:
            raise TransformError(
                "poisoned point", kernel=program.name, stage="unroll",
            )
        return original(program, unroll, num_memories, options)

    monkeypatch.setattr(space_module, "compile_design", wrapper)

    def configure(*vectors, all=False):
        state["vectors"] = {tuple(v) for v in vectors}
        state["all"] = all

    return configure


class TestPointDegradation:
    def test_space_records_diagnostic_and_try_evaluate_returns_none(
        self, fir_program, pipelined_board, poison
    ):
        space = DesignSpace(fir_program, pipelined_board)
        bad = space.max_vector()
        poison(bad.factors)
        assert space.try_evaluate(bad) is None
        assert space.points_failed == 1
        [diagnostic] = space.infeasible_points()
        assert diagnostic.unroll == tuple(bad)
        assert diagnostic.stage == "unroll"
        assert diagnostic.kind == "transform"

    def test_recovered_point_drops_stale_diagnostic(
        self, fir_program, pipelined_board, poison
    ):
        space = DesignSpace(fir_program, pipelined_board)
        vector = space.baseline_vector()
        poison(vector.factors)
        assert space.try_evaluate(vector) is None
        poison()  # heal
        assert space.try_evaluate(vector) is not None
        assert space.infeasible_points() == []

    def test_search_skips_poisoned_points_and_still_selects(
        self, fir_program, pipelined_board, poison
    ):
        clean_space = DesignSpace(fir_program, pipelined_board)
        clean = BalanceGuidedStrategy().run(clean_space)
        poison(tuple(clean.initial))
        space = DesignSpace(fir_program, pipelined_board)
        result = BalanceGuidedStrategy().run(space)
        assert result.selected is not None
        assert result.infeasible
        assert result.infeasible[0].unroll == tuple(clean.initial)

    def test_explore_reports_infeasible_points(
        self, fir_program, pipelined_board, poison
    ):
        probe = DesignSpace(fir_program, pipelined_board)
        saturation = analyze_saturation(
            fir_program, pipelined_board.num_memories
        )
        poison(tuple(initial_vector(
            saturation, loop_priority(probe, saturation)
        )))
        result = explore(fir_program, pipelined_board)
        assert result.infeasible
        assert "infeasible points" in result.report()


class TestTerminalStates:
    def test_budget_breaker_raises_typed_error(
        self, fir_program, pipelined_board, poison
    ):
        poison(all=True)
        space = DesignSpace(fir_program, pipelined_board)
        options = SearchOptions(max_point_failures=1)
        with pytest.raises(PointFailureBudgetExceeded) as excinfo:
            BalanceGuidedStrategy().run(space, options)
        assert excinfo.value.kind == "failure_budget"
        assert "transform" in str(excinfo.value)

    def test_everything_poisoned_without_budget_is_no_feasible_point(
        self, fir_program, pipelined_board, poison
    ):
        poison(all=True)
        space = DesignSpace(fir_program, pipelined_board)
        options = SearchOptions(max_point_failures=None)
        with pytest.raises(NoFeasiblePoint) as excinfo:
            BalanceGuidedStrategy().run(space, options)
        assert excinfo.value.kind == "no_feasible_point"
        assert "poisoned point" in str(excinfo.value)

    def test_budget_not_charged_during_final_selection(
        self, fir_program, pipelined_board, poison
    ):
        """A search whose walk succeeded never aborts at selection time,
        even if the budget is nearly spent."""
        space = DesignSpace(fir_program, pipelined_board)
        options = SearchOptions(max_point_failures=1)
        result = BalanceGuidedStrategy().run(space, options)
        assert result.selected is not None

    @pytest.mark.parametrize("strategy", ["balance", "exhaustive"])
    @pytest.mark.parametrize("source", [
        "int A[16]; int B[16];\n"
        "for (i = 0; i < 0; i++) B[i] = A[i] + 1;",
        "int A[4][4]; int B[4][4];\n"
        "for (i = 0; i < 4; i++) for (j = 0; j < 0; j++)"
        " B[i][j] = A[i][j] + 1;",
    ], ids=["one-deep", "inner-empty"])
    def test_empty_loop_is_rejected_by_the_verifier(
        self, source, strategy, pipelined_board
    ):
        """An empty loop has one realizable factor, 1, so the walk reaches
        the entry verifier instead of asking unroll for a factor of 0."""
        config = ExploreConfig(search=SearchOptions(strategy=strategy))
        with pytest.raises(NoFeasiblePoint, match="empty-loop"):
            explore(compile_source(source), pipelined_board, config=config)
