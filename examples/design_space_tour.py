#!/usr/bin/env python3
"""A tour of a kernel's design space: balance, cycles, and area curves.

Regenerates the paper's figure data for matrix multiply on both memory
models, prints the curve families, and contrasts the balance-guided
search (a handful of synthesis calls) with the exhaustive oracle (all
divisor points).

Run:  python examples/design_space_tour.py [kernel]
"""

import sys

from repro import SearchOptions
from repro.dse import BalanceGuidedStrategy, DesignSpace
from repro.ir import LoopNest
from repro.kernels import kernel_by_name
from repro.report import Figure
from repro.target import wildstar_nonpipelined, wildstar_pipelined
from repro.transform import UnrollVector


def sweep(kernel, board):
    program = kernel.program()
    nest = LoopNest(program)
    pinned = tuple(range(2, nest.depth))
    space = DesignSpace(program, board, pinned_depths=pinned)
    trips = nest.trip_counts

    def powers(limit):
        value, values = 1, []
        while value <= limit:
            values.append(value)
            value *= 2
        return values

    grid = {}
    for outer in powers(trips[0]):
        for inner in powers(trips[1]):
            factors = [outer, inner] + [1] * (nest.depth - 2)
            vector = UnrollVector(tuple(factors))
            if space.is_valid(vector):
                grid[(outer, inner)] = space.evaluate(vector)
    return space, grid


def curves(kernel_name, mode, grid):
    balance = Figure(f"{kernel_name.upper()} ({mode}): balance",
                     "inner unroll", "balance")
    cycles = Figure(f"{kernel_name.upper()} ({mode}): execution cycles",
                    "inner unroll", "cycles", log_y=True)
    for outer in sorted({o for o, _ in grid}):
        b_series = balance.new_series(f"outer={outer}")
        c_series = cycles.new_series(f"outer={outer}")
        for (o, inner), evaluation in sorted(grid.items()):
            if o == outer:
                b_series.add(inner, evaluation.balance)
                c_series.add(inner, float(evaluation.cycles))
    return balance, cycles


def main() -> None:
    kernel_name = sys.argv[1] if len(sys.argv) > 1 else "mm"
    kernel = kernel_by_name(kernel_name)

    for board in (wildstar_nonpipelined(), wildstar_pipelined()):
        mode = "pipelined" if board.memory.pipelined else "non-pipelined"
        print(f"\n{'#' * 70}\n# {kernel.name.upper()} on {board.name}\n{'#' * 70}")
        space, grid = sweep(kernel, board)
        balance, cycles = curves(kernel.name, mode, grid)
        print()
        print(balance.render())
        print()
        print(cycles.render())

        result = BalanceGuidedStrategy().run(space, SearchOptions())
        print(f"\nguided search: Psat={result.saturation.psat}, "
              f"Uinit={result.initial}")
        for step in result.trace:
            print(f"  {step}")
        print(f"  -> selected U={result.selected.unroll} "
              f"({result.selected.estimate.summary()})")

        oracle = space.exhaustive_search()
        print(f"oracle best (over {len(oracle.evaluations)} divisor points): "
              f"U={oracle.best.unroll} with {oracle.best.cycles} cycles")
        print(f"search synthesized {result.points_searched} new points; "
              f"space size {space.size()} "
              f"-> fraction {result.points_searched / space.size():.2%}")


if __name__ == "__main__":
    main()
