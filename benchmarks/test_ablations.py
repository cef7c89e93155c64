"""Ablations of the design choices DESIGN.md calls out.

1. Scalar replacement across all loops (the paper) vs innermost-only
   (Carr-Kennedy): the rotating banks are where FIR's traffic reduction
   comes from.
2. Custom data layout vs single-memory mapping: without renaming /
   interleaving the four memories cannot serve parallel accesses.
3. Balance-guided bisection vs a naive linear scan of the same axis:
   same neighborhood found, strictly more synthesis calls for the scan.
"""

import pytest

from benchmarks.common import board_for, emit
from repro.dse import BalanceGuidedStrategy, DesignSpace, analyze_saturation
from repro.dse.strategy import increase, initial_vector, loop_priority
from repro.ir import run_program
from repro.kernels import FIR
from repro.report import Table
from repro.synthesis import synthesize
from repro.transform import PipelineOptions, UnrollVector, compile_design


class TestOuterLoopReuseAblation:
    def test_rotating_banks_cut_traffic_and_cycles(self, benchmark):
        board = board_for("pipelined")
        inputs = FIR.random_inputs(41)
        rows = []
        for label, options in [
            ("all loops (paper)", PipelineOptions(exploit_outer_reuse=True)),
            ("innermost only (Carr-Kennedy)", PipelineOptions(exploit_outer_reuse=False)),
        ]:
            design = compile_design(FIR.program(), UnrollVector.of(2, 2), 4, options)
            estimate = synthesize(design.program, board, design.plan)
            state = run_program(design.program, design.plan.distribute_inputs(inputs))
            rows.append((label, state.memory_reads, estimate.cycles,
                         estimate.register_bits))
        table = Table(
            "Ablation: reuse across all loops vs innermost-only (FIR 2x2)",
            ["Variant", "Memory reads", "Cycles", "Register bits"],
        )
        for row in rows:
            table.add_row(*row)
        emit("ablation_outer_reuse", table.render())
        paper_reads, ck_reads = rows[0][1], rows[1][1]
        assert paper_reads < ck_reads
        paper_cycles, ck_cycles = rows[0][2], rows[1][2]
        assert paper_cycles < ck_cycles
        benchmark(lambda: paper_reads)


class TestDataLayoutAblation:
    def test_layout_enables_memory_parallelism(self, benchmark):
        board = board_for("pipelined")
        with_layout = compile_design(FIR.program(), UnrollVector.of(4, 1), 4)
        without = compile_design(
            FIR.program(), UnrollVector.of(4, 1), 4,
            PipelineOptions(apply_data_layout=False),
        )
        fast = synthesize(with_layout.program, board, with_layout.plan)
        slow = synthesize(without.program, board, without.plan)
        table = Table(
            "Ablation: custom data layout vs whole-array mapping (FIR 4x1)",
            ["Variant", "Cycles", "Fetch rate (bits/cycle)", "Balance"],
        )
        table.add_row("custom layout (paper)", fast.cycles,
                      round(fast.fetch_rate, 1), round(fast.balance, 3))
        table.add_row("single-memory arrays", slow.cycles,
                      round(slow.fetch_rate, 1), round(slow.balance, 3))
        emit("ablation_layout", table.render())
        assert fast.cycles < slow.cycles
        assert fast.fetch_rate > slow.fetch_rate
        benchmark(lambda: synthesize(with_layout.program, board, with_layout.plan))


class TestSearchStrategyAblation:
    def test_bisection_beats_linear_scan(self, benchmark):
        board = board_for("pipelined")
        guided_space = DesignSpace(FIR.program(), board)
        result = BalanceGuidedStrategy().run(guided_space)
        guided_points = guided_space.points_evaluated

        # Linear scan: walk Psat multiples in order until performance
        # stops improving (a natural hand-tuning strategy).
        scan_space = DesignSpace(FIR.program(), board)
        saturation = analyze_saturation(scan_space.program, board.num_memories)
        priority = loop_priority(scan_space, saturation)
        current = initial_vector(saturation, priority)
        best = scan_space.evaluate(current)
        while True:
            grown = increase(scan_space, current, priority)
            if grown == current:
                break
            evaluation = scan_space.evaluate(grown)
            if not evaluation.estimate.fits(board):
                break
            current = grown
            if evaluation.cycles < best.cycles:
                best = evaluation
        scan_points = scan_space.points_evaluated

        table = Table(
            "Ablation: balance-guided search vs linear scan (FIR pipelined)",
            ["Strategy", "Points synthesized", "Selected cycles", "Selected space"],
        )
        table.add_row("balance-guided (paper)", guided_points,
                      result.selected.cycles, result.selected.space)
        table.add_row("linear scan", scan_points, best.cycles, best.space)
        emit("ablation_search", table.render())
        assert guided_points <= scan_points
        assert result.selected.cycles <= best.cycles * 2.0
        benchmark(lambda: BalanceGuidedStrategy().run(DesignSpace(FIR.program(), board)))
