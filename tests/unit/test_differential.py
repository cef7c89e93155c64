"""Unit tests for differential validation and multi-fidelity confirmation."""

import pytest

from repro.dse.space import DesignSpace
from repro.estimate import (
    EstimatorBackend, confirm_selection, get_backend, validate_run,
)
from repro.estimate.differential import RankAgreement, _rank_agreement
from repro.errors import EstimationError
from repro.kernels import FIR
from repro.obs import MetricsRegistry, use_registry
from repro.synthesis import synthesize
from repro.target import wildstar_pipelined
from repro.transform import UnrollVector


@pytest.fixture
def board():
    return wildstar_pipelined()


@pytest.fixture
def space(board):
    return DesignSpace(FIR.program(), board)


@pytest.fixture
def evaluations(space):
    return [
        space.evaluate(UnrollVector.of(*factors))
        for factors in [(1, 1), (2, 1), (4, 2), (8, 4)]
    ]


class _Estimate:
    def __init__(self, cycles):
        self.cycles = cycles


class TestRankAgreementMath:
    def test_full_agreement(self):
        a = [_Estimate(c) for c in (100, 50, 25)]
        b = [_Estimate(c) for c in (90, 60, 10)]
        agreement = _rank_agreement("x", "y", a, b)
        assert agreement.pairs == 3
        assert agreement.concordant == 3
        assert agreement.agreement == 1.0
        assert agreement.kendall_tau == 1.0

    def test_full_disagreement(self):
        a = [_Estimate(c) for c in (10, 20)]
        b = [_Estimate(c) for c in (20, 10)]
        agreement = _rank_agreement("x", "y", a, b)
        assert agreement.discordant == 1
        assert agreement.agreement == 0.0
        assert agreement.kendall_tau == -1.0

    def test_ties_are_not_decisive(self):
        a = [_Estimate(c) for c in (10, 10)]
        b = [_Estimate(c) for c in (10, 20)]
        agreement = _rank_agreement("x", "y", a, b)
        assert agreement.ties == 1
        assert agreement.agreement == 1.0  # no decisive pairs

    def test_missing_estimates_skipped(self):
        a = [_Estimate(10), None, _Estimate(30)]
        b = [_Estimate(10), _Estimate(20), _Estimate(30)]
        agreement = _rank_agreement("x", "y", a, b)
        assert agreement.pairs == 1

    def test_backends_label(self):
        assert RankAgreement("a", "b", 0, 0, 0, 0).backends_label == "a|b"


class TestValidateRun:
    def test_navigation_column_reused_not_recomputed(
        self, space, evaluations
    ):
        calls = []

        class Counting(EstimatorBackend):
            id = "counting"
            fidelity = 5

            def _estimate(self, program, board, plan, library, constraints):
                calls.append(program.name)
                return synthesize(program, board, plan, library, constraints)

        report = validate_run(
            space, evaluations, ["analytic", Counting()],
            samples=len(evaluations), kernel="fir",
        )
        # Only the non-navigation backend re-estimates.
        assert len(calls) == len(evaluations)
        assert report.backends == ("analytic", "counting")
        assert report.sampled == len(evaluations)

    def test_disagreement_counter_always_registered(
        self, space, evaluations
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = validate_run(
                space, evaluations, ["analytic", "placeroute"],
                samples=len(evaluations), kernel="fir",
            )
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", snapshot)
        assert any(
            "estimate.disagreement" in str(key) for key in counters
        ), f"no disagreement series in {counters!r}"
        assert report.disagreements == 0

    def test_sampling_caps_pool(self, space, evaluations):
        report = validate_run(
            space, evaluations, ["analytic", "placeroute"],
            samples=2, kernel="fir",
        )
        assert report.sampled == 2

    def test_failing_backend_degrades_to_recorded_failure(
        self, space, evaluations
    ):
        class Broken(EstimatorBackend):
            id = "broken"
            fidelity = 3

            def _estimate(self, program, board, plan, library, constraints):
                raise EstimationError("synthetic failure")

        report = validate_run(
            space, evaluations, ["analytic", Broken()],
            samples=2, kernel="fir",
        )
        assert len(report.failures) == 2
        assert all("synthetic failure" in f for f in report.failures)
        # Broken column is all-None: no decisive pairs, agreement 1.0.
        assert report.agreements[0].pairs == 0

    def test_table_and_dict_round_trip(self, space, evaluations):
        report = validate_run(
            space, evaluations, ["analytic", "placeroute"],
            samples=len(evaluations), kernel="fir",
        )
        rendered = report.table().render()
        assert "analytic|placeroute" in rendered
        record = report.as_dict()
        assert record["backends"] == ["analytic", "placeroute"]
        assert record["agreements"][0]["backends"] == "analytic|placeroute"
        assert "monotonicity_violations" in record

    def test_duplicate_backends_deduped(self, space, evaluations):
        report = validate_run(
            space, evaluations, ["analytic", "analytic"],
            samples=2, kernel="fir",
        )
        assert report.backends == ("analytic",)
        assert report.agreements == ()


class TestConfirmSelection:
    def test_confirms_selected_and_baseline(self, space, evaluations):
        baseline, selected = evaluations[0], evaluations[-1]
        result = confirm_selection(
            space, selected, baseline, "placeroute",
        )
        assert result.backend == "placeroute"
        assert result.navigation_backend == "analytic"
        assert result.selected is not None
        assert result.baseline is not None
        assert result.error is None
        assert result.confirmed_speedup == pytest.approx(
            result.baseline.cycles / result.selected.cycles
        )
        assert result.selected_cycle_error is not None

    def test_degraded_baseline_skips_baseline(self, space, evaluations):
        selected = evaluations[-1]
        result = confirm_selection(
            space, selected, selected, "placeroute",
        )
        assert result.selected is not None
        assert result.baseline is None
        assert result.confirmed_speedup is None

    def test_none_baseline_allowed(self, space, evaluations):
        result = confirm_selection(
            space, evaluations[-1], None, "placeroute",
        )
        assert result.baseline is None
        assert result.error is None

    def test_failed_confirmation_records_error(self, space, evaluations):
        class Broken(EstimatorBackend):
            id = "broken"
            fidelity = 3

            def _estimate(self, program, board, plan, library, constraints):
                raise EstimationError("no deal")

        result = confirm_selection(
            space, evaluations[-1], evaluations[0], Broken(),
        )
        assert result.selected is None
        assert "selected design" in result.error

    def test_as_dict_payload(self, space, evaluations):
        result = confirm_selection(
            space, evaluations[-1], evaluations[0], "placeroute",
        )
        record = result.as_dict()
        assert record["backend"] == "placeroute"
        assert record["navigation_backend"] == "analytic"
        assert record["cycles"] == result.selected.cycles
        assert record["baseline_cycles"] == result.baseline.cycles
        assert "confirmed_speedup" in record

    def test_interp_confirmation_agrees_on_fir(self, space, evaluations):
        result = confirm_selection(
            space, evaluations[-1], evaluations[0], "interp",
        )
        assert result.error is None
        assert result.selected_cycle_error == pytest.approx(0.0)


class TestExplorerMultiFidelity:
    def test_multi_fidelity_report_sections(self, board):
        from repro.dse import ExploreConfig, explore
        result = explore(FIR.program(), board, config=ExploreConfig(
            fidelity="multi", confirm_backend="placeroute",
        ))
        assert result.backend == "analytic"
        assert result.confirmation is not None
        assert result.differential is not None
        report = result.report()
        assert "fidelity: multi (navigate=analytic, confirm=placeroute)" \
            in report
        assert "navigation selected (analytic):" in report
        assert "confirmed selected (placeroute):" in report
        assert "rank agreement" in report

    def test_single_fidelity_skips_confirmation(self, board):
        from repro.dse import ExploreConfig, explore
        result = explore(FIR.program(), board, config=ExploreConfig())
        assert result.confirmation is None
        assert result.differential is None
        assert "fidelity: multi" not in result.report()

    def test_bad_fidelity_rejected(self, board):
        from repro.dse import ExploreConfig, explore
        from repro.errors import SearchError
        with pytest.raises(SearchError, match="fidelity"):
            explore(FIR.program(), board,
                    config=ExploreConfig(fidelity="triple"))

    def test_navigation_backend_threads_to_evaluations(self, board):
        from repro.dse import ExploreConfig, explore
        result = explore(FIR.program(), board, config=ExploreConfig(
            backend="placeroute",
        ))
        assert result.backend == "placeroute"
        assert result.selected.estimate.provenance.backend == "placeroute"
