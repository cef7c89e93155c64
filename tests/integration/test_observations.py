"""The paper's search-space properties (Section 5.2, Observations 1-3).

Observation 1: the data fetch rate is monotonically non-decreasing as
the unroll factor increases by multiples of Psat, and stops increasing
past the saturation point.

Observation 2: the consumption rate is monotonically non-decreasing; in
particular execution time keeps (weakly) improving.

Observation 3: balance rises to the saturation point and falls after it.

These hold along the search's own path — unroll products doubling from
the saturation point with the factors chosen the way the search chooses
them.  The tests walk that path explicitly.
"""

import pytest

from repro.dse.saturation import analyze_saturation
from repro.dse.space import DesignSpace
from repro.dse.strategy import increase, initial_vector, loop_priority
from repro.kernels import FIR, MM, PAT
from repro.target import wildstar_nonpipelined, wildstar_pipelined


def search_path(kernel, board, steps=5):
    """Uinit and its Increase successors, evaluated."""
    space = DesignSpace(kernel.program(), board)
    saturation = analyze_saturation(space.program, board.num_memories)
    priority = loop_priority(space, saturation)
    vectors = [initial_vector(saturation, priority)]
    for _ in range(steps):
        grown = increase(space, vectors[-1], priority)
        if grown == vectors[-1]:
            break
        vectors.append(grown)
    feasible = []
    for vector in vectors:
        evaluation = space.evaluate(vector)
        feasible.append(evaluation)
    return feasible


WEAKLY = 1.05  # tolerance for "monotone up to small model noise"


class TestObservation2ExecutionTime:
    @pytest.mark.parametrize("kernel", [FIR, MM, PAT], ids=lambda k: k.name)
    @pytest.mark.parametrize(
        "board", [wildstar_pipelined(), wildstar_nonpipelined()],
        ids=["pipelined", "nonpipelined"],
    )
    def test_cycles_nonincreasing_along_path(self, kernel, board):
        path = search_path(kernel, board)
        cycles = [e.cycles for e in path]
        for before, after in zip(cycles, cycles[1:]):
            assert after <= before * WEAKLY


class TestObservation1FetchRate:
    def test_fetch_rate_nondecreasing_then_flat(self):
        path = search_path(FIR, wildstar_pipelined())
        rates = [e.estimate.fetch_rate for e in path]
        peak = max(rates)
        seen_peak = False
        for before, after in zip(rates, rates[1:]):
            if before == peak:
                seen_peak = True
            if not seen_peak:
                assert after >= before / WEAKLY

    def test_fetch_rate_bounded_by_bandwidth(self):
        board = wildstar_pipelined()
        path = search_path(FIR, board)
        # 4 memories x 32 bits per cycle
        for evaluation in path:
            assert evaluation.estimate.fetch_rate <= 4 * 32 + 1e-9


class TestObservation3Balance:
    def test_balance_declines_past_saturation(self):
        """The exact curve oscillates (each point re-derives its own
        layout, so the achieved memory parallelism is not perfectly
        even), but the structural claim survives: the peak sits at or
        near the saturation point and the trend beyond it is downward.
        """
        path = search_path(FIR, wildstar_pipelined(), steps=7)
        balances = [e.balance for e in path]
        peak_index = balances.index(max(balances))
        assert peak_index <= len(balances) // 2
        assert balances[-1] < balances[0]
        assert min(balances) == min(balances[len(balances) // 2:])

    def test_nonpipelined_fir_always_memory_bound(self):
        """Figure 4's headline: every non-pipelined FIR design is
        memory bound."""
        path = search_path(FIR, wildstar_nonpipelined(), steps=7)
        for evaluation in path:
            assert evaluation.balance < 1.0


class TestAreaMonotonicity:
    def test_space_grows_with_unrolling(self):
        path = search_path(FIR, wildstar_pipelined(), steps=6)
        spaces = [e.space for e in path]
        assert spaces == sorted(spaces)
