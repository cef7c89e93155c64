"""Unit tests for the SearchStrategy protocol and its implementations."""

import pytest

from repro.dse import (
    DesignSpace, SearchOptions, SearchResult, analyze_saturation,
    get_strategy, strategy_ids,
)
from repro.dse.strategy import (
    GeneticStrategy, HillClimbStrategy, LinearScanStrategy, RandomStrategy,
    initial_vector, loop_priority,
)
from repro.errors import SearchError
from repro.kernels import FIR
from repro.target import wildstar_pipelined


@pytest.fixture
def space():
    return DesignSpace(FIR.program(), wildstar_pipelined())


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(strategy_ids()) >= {
            "balance", "exhaustive", "genetic", "greedy", "hill",
            "linear", "random",
        }

    def test_get_strategy_resolves_default(self):
        assert get_strategy(None).id == "balance"
        assert get_strategy("balance").id == "balance"

    def test_instances_pass_through(self):
        instance = RandomStrategy(samples=3, seed=1)
        assert get_strategy(instance) is instance

    def test_unknown_name_lists_valid_set(self):
        with pytest.raises(SearchError) as excinfo:
            get_strategy("simulated-annealing")
        message = str(excinfo.value)
        for known in strategy_ids():
            assert known in message
        assert "auto" in message

    def test_default_knobs_are_constructor_defaults(self):
        assert get_strategy("random").default_knobs() == {
            "samples": 8, "seed": 0,
        }
        assert get_strategy("balance").default_knobs() == {}


class TestStrategies:
    def test_every_strategy_returns_search_result(self, space):
        for strategy_id in strategy_ids():
            fresh = DesignSpace(FIR.program(), space.board)
            result = get_strategy(strategy_id).run(fresh)
            assert isinstance(result, SearchResult)
            assert result.strategy == strategy_id
            assert result.selected.estimate.fits(fresh.board)
            assert result.points_searched >= 1
            assert result.trace, strategy_id

    def test_balance_strategy_matches_search(self, space):
        result = get_strategy("balance").run(space)
        assert result.selected.estimate.fits(space.board)
        assert result.points_searched >= 2

    def test_linear_scan_improves_on_baseline(self, space):
        result = LinearScanStrategy().run(space)
        baseline = space.evaluate(space.baseline_vector())
        assert result.selected.cycles < baseline.cycles
        assert result.selected.estimate.fits(space.board)

    def test_random_deterministic_by_seed(self):
        board = wildstar_pipelined()
        first = RandomStrategy(samples=5, seed=7).run(
            DesignSpace(FIR.program(), board)
        )
        second = RandomStrategy(samples=5, seed=7).run(
            DesignSpace(FIR.program(), board)
        )
        assert first.selected.unroll == second.selected.unroll

    def test_random_respects_sample_budget(self, space):
        result = RandomStrategy(samples=4, seed=1).run(space)
        assert result.points_searched <= 4

    def test_hill_climb_monotone_improvement(self, space):
        result = HillClimbStrategy().run(space)
        saturation = analyze_saturation(
            space.program, space.board.num_memories
        )
        start = space.evaluate(
            initial_vector(saturation, loop_priority(space, saturation))
        )
        assert result.selected.cycles <= start.cycles
        assert result.selected.estimate.fits(space.board)

    def test_exhaustive_matches_oracle(self, space):
        result = get_strategy("exhaustive").run(space)
        oracle = DesignSpace(FIR.program(), space.board).exhaustive_search()
        assert result.selected.unroll == oracle.best.unroll
        assert result.points_searched == len(oracle.evaluations)

    def test_genetic_deterministic_by_seed(self):
        board = wildstar_pipelined()
        first = GeneticStrategy(seed=11).run(DesignSpace(FIR.program(), board))
        second = GeneticStrategy(seed=11).run(
            DesignSpace(FIR.program(), board)
        )
        assert first.selected.unroll == second.selected.unroll
        assert [s.unroll.factors for s in first.trace] == \
            [s.unroll.factors for s in second.trace]

    def test_greedy_never_worse_than_baseline(self, space):
        result = get_strategy("greedy").run(space)
        baseline = space.evaluate(space.baseline_vector())
        assert result.selected.cycles <= baseline.cycles

    def test_options_flow_through_run(self, space):
        result = get_strategy("linear").run(
            space, SearchOptions(max_iterations=4)
        )
        assert result.strategy == "linear"

    def test_trace_steps_stringify(self, space):
        result = LinearScanStrategy().run(space)
        assert "cycles" in str(result.trace[0])


class TestFidelitySwitching:
    """The mid-walk backend-switch hook every strategy inherits."""

    class _ConfirmingLinear(LinearScanStrategy):
        """A linear scan that confirms its endpoint mid-walk."""

        def _search(self):
            result = super()._search()
            self.confirm(result.selected, "endpoint confirmation")
            return result

    def test_confirm_records_a_switch(self, space):
        strategy = self._ConfirmingLinear()
        result = strategy.run(space, confirm_backend="interp")
        assert len(result.fidelity_switches) == 1
        switch = result.fidelity_switches[0]
        assert switch.from_backend == "analytic"
        assert switch.to_backend == "interp"
        assert switch.reason == "endpoint confirmation"
        assert switch.unroll == result.selected.unroll.factors
        assert switch.cycles_before == result.selected.cycles
        assert switch.cycles_after > 0
        doc = switch.as_dict()
        assert doc["to_backend"] == "interp"

    def test_confirm_is_a_noop_in_single_fidelity(self, space):
        result = self._ConfirmingLinear().run(space)
        assert result.fidelity_switches == ()

    def test_switch_counter_increments(self, space):
        from repro.obs import MetricsRegistry, use_registry
        registry = MetricsRegistry()
        with use_registry(registry):
            self._ConfirmingLinear().run(space, confirm_backend="interp")
        counters = registry.snapshot()["counters"]
        assert counters["dse.fidelity_switches{strategy=linear}"] == 1

    def test_navigation_estimate_is_not_replaced(self, space):
        # The switch is evidence, not a mutation: the selected point
        # keeps its navigation-backend estimate so multi-fidelity
        # confirmation semantics (cycle error vs. navigation) hold.
        strategy = self._ConfirmingLinear()
        result = strategy.run(space, confirm_backend="interp")
        assert result.selected.estimate.provenance.backend == "analytic"

    def test_failed_confirmation_degrades_to_none(self, space, monkeypatch):
        from repro.errors import EstimationError

        def boom(self, evaluation, backend):
            raise EstimationError("confirmation backend down")

        monkeypatch.setattr(type(space), "reestimate", boom)
        strategy = self._ConfirmingLinear()
        result = strategy.run(space, confirm_backend="interp")
        [switch] = result.fidelity_switches
        assert "confirmation failed" in switch.reason
        assert switch.cycles_after == switch.cycles_before


class TestDeprecatedShims:
    """The deprecated pre-protocol shims are retired, one release after
    their deprecation."""

    def test_legacy_strategies_module_is_gone(self):
        """The pre-protocol ``repro.dse.strategies`` shims were removed;
        ``repro.dse.get_strategy(id)`` replaces every class they held."""
        with pytest.raises(ModuleNotFoundError):
            import repro.dse.strategies  # noqa: F401

    def test_strategy_result_type_is_gone(self):
        """Every strategy returns the one ``SearchResult``."""
        import repro.dse
        import repro.dse.strategy
        assert not hasattr(repro.dse, "StrategyResult")
        assert not hasattr(repro.dse.strategy, "StrategyResult")
