"""Unit coverage for incremental evaluation at the design-space layer.

What ``DesignSpace._evaluate_point`` promises when an ambient memo is
installed:

* a second evaluation of the same point (fresh space, same inputs) is a
  point-memo **hit**: bit-identical estimate, no pipeline run, and the
  compiled design stays unmaterialized until someone touches it;
* hit/miss/off attribution lands on the ``dse.point`` span;
* an undecodable memo entry (schema drift in a shared journal) counts
  one invalidation and the point silently re-runs from scratch;
* changing any keyed input — the unroll factors, the board — misses
  rather than serving a stale estimate.

And what ``DesignSpace.reestimate`` promises: confirmation lookups go
through the same point domain under the confirming backend's context,
so a repeat confirmation hits, a navigation entry is never served to
it, and a failed estimate is never stored.
"""

import pytest

from repro.dse import DesignSpace
from repro.errors import EstimationError
from repro.estimate import EstimatorBackend
from repro.incremental.memo import MemoStore, use_memo
from repro.ir.nest import LoopNest
from repro.obs import Tracer, use_tracer
from repro.synthesis.operators import OperatorLibrary
from repro.target import wildstar_nonpipelined, wildstar_pipelined
from repro.transform.unroll import UnrollVector


def vector(program, *factors):
    return UnrollVector(tuple(factors))


def point_spans(tracer):
    return [span for span in tracer.finished if span.name == "dse.point"]


@pytest.fixture
def tracer():
    tracer = Tracer()
    with use_tracer(tracer):
        yield tracer


def unit_vector(program):
    return UnrollVector((1,) * LoopNest(program).depth)


class TestPointMemo:
    def test_second_space_hits_with_identical_estimate(
        self, fir_program, pipelined_board, tracer
    ):
        memo = MemoStore()
        with use_memo(memo):
            cold = DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
            warm = DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
        assert warm.estimate == cold.estimate
        attrs = [s.attributes.get("incremental") for s in point_spans(tracer)]
        assert attrs == ["miss", "hit"]

    def test_hit_defers_design_materialization(
        self, fir_program, pipelined_board, tracer
    ):
        memo = MemoStore()
        with use_memo(memo):
            DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
            warm = DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
            assert not warm.design_materialized
            # Touching .design compiles on demand, deterministically.
            assert warm.design is not None
            assert warm.design_materialized

    def test_no_memo_marks_span_off(
        self, fir_program, pipelined_board, tracer
    ):
        DesignSpace(fir_program, pipelined_board).evaluate(
            unit_vector(fir_program)
        )
        (span,) = point_spans(tracer)
        assert span.attributes["incremental"] == "off"

    def test_different_factors_do_not_hit(
        self, fir_program, pipelined_board, tracer
    ):
        memo = MemoStore()
        depth = LoopNest(fir_program).depth
        with use_memo(memo):
            space = DesignSpace(fir_program, pipelined_board)
            space.evaluate(UnrollVector((1,) * depth))
            DesignSpace(fir_program, pipelined_board).evaluate(
                UnrollVector((2,) + (1,) * (depth - 1))
            )
        attrs = [s.attributes.get("incremental") for s in point_spans(tracer)]
        assert attrs == ["miss", "miss"]

    def test_different_board_does_not_hit(self, fir_program, tracer):
        memo = MemoStore()
        with use_memo(memo):
            DesignSpace(fir_program, wildstar_pipelined()).evaluate(
                unit_vector(fir_program)
            )
            DesignSpace(fir_program, wildstar_nonpipelined()).evaluate(
                unit_vector(fir_program)
            )
        attrs = [s.attributes.get("incremental") for s in point_spans(tracer)]
        assert attrs == ["miss", "miss"]

    def test_different_library_does_not_hit(
        self, fir_program, pipelined_board, tracer
    ):
        slower = OperatorLibrary(
            clock_ns=pipelined_board.clock_ns, mul_latency=3
        )
        with use_memo(MemoStore()):
            DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
            DesignSpace(fir_program, pipelined_board, library=slower).evaluate(
                unit_vector(fir_program)
            )
        attrs = [s.attributes.get("incremental") for s in point_spans(tracer)]
        assert attrs == ["miss", "miss"]

    def test_different_program_does_not_hit(
        self, fir_program, mm_program, pipelined_board, tracer
    ):
        with use_memo(MemoStore()):
            for program in (fir_program, mm_program):
                DesignSpace(program, pipelined_board).evaluate(
                    unit_vector(program)
                )
        attrs = [s.attributes.get("incremental") for s in point_spans(tracer)]
        assert attrs == ["miss", "miss"]

    def test_undecodable_entry_invalidates_and_recomputes(
        self, fir_program, pipelined_board, tracer
    ):
        memo = MemoStore()
        with use_memo(memo):
            cold = DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
            # Poison every stored point value with schema drift.
            for key in list(memo._points):
                memo._points[key] = {"not": "an estimate"}
            warm = DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
        assert memo.invalidations == 1
        assert warm.estimate == cold.estimate
        attrs = [s.attributes.get("incremental") for s in point_spans(tracer)]
        assert attrs[-1] == "miss"

    def test_schedule_reuse_reported_on_span(
        self, fir_program, pipelined_board, tracer
    ):
        memo = MemoStore()
        with use_memo(memo):
            DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
            # Drop only the point entries: schedules survive, so the
            # re-run misses on the point but reuses every region.
            memo._points.clear()
            DesignSpace(fir_program, pipelined_board).evaluate(
                unit_vector(fir_program)
            )
        last = point_spans(tracer)[-1]
        assert last.attributes["incremental"] == "miss"
        assert last.attributes["incremental.reused_regions"] >= 1


class TestReestimate:
    def test_interp_after_analytic_walk_misses_then_hits(
        self, fir_program, pipelined_board
    ):
        memo = MemoStore()
        with use_memo(memo):
            space = DesignSpace(fir_program, pipelined_board)
            evaluation = space.evaluate(unit_vector(fir_program))
            assert (memo.point_hits, memo.point_misses) == (0, 1)
            first = space.reestimate(evaluation, "interp")
            # The analytic entry for this very point is never served.
            assert (memo.point_hits, memo.point_misses) == (0, 2)
            again = space.reestimate(evaluation, "interp")
            assert (memo.point_hits, memo.point_misses) == (1, 2)
        assert first.provenance.backend == again.provenance.backend == "interp"
        assert again == first
        assert memo.counts()["point"] == 2
        assert space.points_evaluated == 1

    def test_matches_unmemoized_confirmation(
        self, fir_program, pipelined_board
    ):
        bare = DesignSpace(fir_program, pipelined_board)
        expected = bare.reestimate(
            bare.evaluate(unit_vector(fir_program)), "interp"
        )
        with use_memo(MemoStore()):
            space = DesignSpace(fir_program, pipelined_board)
            evaluation = space.evaluate(unit_vector(fir_program))
            space.reestimate(evaluation, "interp")
            assert space.reestimate(evaluation, "interp") == expected

    def test_hit_leaves_deferred_design_uncompiled(
        self, fir_program, pipelined_board
    ):
        with use_memo(MemoStore()):
            cold = DesignSpace(fir_program, pipelined_board)
            cold.reestimate(cold.evaluate(unit_vector(fir_program)), "interp")
            warm = DesignSpace(fir_program, pipelined_board)
            evaluation = warm.evaluate(unit_vector(fir_program))
            warm.reestimate(evaluation, "interp")
            assert not evaluation.design_materialized

    def test_failures_are_never_memoized(self, fir_program, pipelined_board):
        calls = []

        class Flaky(EstimatorBackend):
            id = "flaky"
            fidelity = 3

            def _estimate(self, program, board, plan, library, constraints):
                calls.append(1)
                raise EstimationError("synthetic failure")

        memo = MemoStore()
        with use_memo(memo):
            space = DesignSpace(fir_program, pipelined_board)
            evaluation = space.evaluate(unit_vector(fir_program))
            for _ in range(2):
                with pytest.raises(EstimationError):
                    space.reestimate(evaluation, Flaky())
        assert len(calls) == 2
        assert memo.counts()["point"] == 1
