"""Every search walk's trace, pinned.

``bench/golden.json`` pins what a walk selects and
``test_stage_digests.py`` pins the IR of each point; this file pins the
walk itself.  ``tests/golden/strategy_traces.json`` records, per walk,
the initial vector, every trace step's ``(unroll, verdict, cycles,
space)``, the selection and ``points_searched``:

* the paper's balance walk on all nine kernels x {both WildStar boards,
  a 4-memory Virtex-300 board small enough to hit the capacity paths}
  x ``balance_tolerance`` {0.02, 0.10, 0.20};
* the linear, hill, greedy, random and genetic strategies on fir, mm
  and decimate x both WildStar boards;
* the ``enumerable_points()`` order of all nine kernels under the
  explorer's automatic pins.

Walks run through :func:`repro.dse.explore` with one in-memory memo per
kernel x board, so repeated points are served from the point domain
(bit-identical to recomputing them).  Keys read
``strategy/kernel/board/tolerance`` and ``points/kernel``.

Regenerate (only when a walk is meant to change) with
``PYTHONPATH=src python tests/integration/test_strategy_traces.py``.
"""

import json
from pathlib import Path

import pytest

from repro.dse import ExploreConfig, SearchOptions, explore
from repro.dse.explorer import auto_pinned_space
from repro.incremental.memo import MemoStore
from repro.kernels import ALL_KERNELS, EXTRA_KERNELS, kernel_by_name
from repro.target import (
    Board, virtex_300, wildstar_nonpipelined, wildstar_pipelined,
)
from repro.target.memory import pipelined_memory

GOLDEN_PATH = (
    Path(__file__).parent.parent / "golden" / "strategy_traces.json"
)
KERNELS = tuple(kernel.name for kernel in ALL_KERNELS + EXTRA_KERNELS)
BOARDS = {
    "pipelined": wildstar_pipelined,
    "nonpipelined": wildstar_nonpipelined,
    "tiny": lambda: Board(
        name="tiny", fpga=virtex_300(), memory=pipelined_memory(),
        num_memories=4, clock_ns=40.0,
    ),
}
TOLERANCES = (0.02, 0.10, 0.20)
BASELINES = ("linear", "hill", "greedy", "random", "genetic")
BASELINE_KERNELS = ("fir", "mm", "decimate")


def walk(program, board, strategy, tolerance, memo):
    result = explore(program, board, config=ExploreConfig(
        search=SearchOptions(balance_tolerance=tolerance, strategy=strategy),
        memo=memo,
    ))
    return {
        "initial": list(result.search.initial.factors),
        "trace": [
            [list(step.unroll.factors), step.verdict, step.cycles, step.space]
            for step in result.search.trace
        ],
        "selected": list(result.selected.unroll.factors),
        "points_searched": result.points_searched,
    }


def walks_for(kernel, board_name):
    """Every pinned walk of one kernel x board, sharing one memo."""
    program = kernel_by_name(kernel).program()
    board = BOARDS[board_name]()
    memo = MemoStore()
    found = {}
    for tolerance in TOLERANCES:
        found[f"balance/{kernel}/{board_name}/{tolerance}"] = walk(
            program, board, "balance", tolerance, memo
        )
    if kernel in BASELINE_KERNELS and board_name != "tiny":
        for strategy in BASELINES:
            found[f"{strategy}/{kernel}/{board_name}/0.1"] = walk(
                program, board, strategy, 0.10, memo
            )
    return found


def enumerable_points(kernel):
    program = kernel_by_name(kernel).program()
    space = auto_pinned_space(program, wildstar_pipelined())
    return [list(point.factors) for point in space.enumerable_points()]


def generate():
    golden = {}
    for kernel in KERNELS:
        for board_name in BOARDS:
            golden.update(walks_for(kernel, board_name))
        golden[f"points/{kernel}"] = enumerable_points(kernel)
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_every_walk():
    walks = [key for key in GOLDEN if not key.startswith("points/")]
    assert sum(key.startswith("balance/") for key in walks) == 81
    assert len(walks) == 81 + len(BASELINES) * len(BASELINE_KERNELS) * 2
    assert {key.split("/")[1] for key in GOLDEN} == set(KERNELS)
    verdicts = {
        step[1] for key in walks if key.startswith("balance/")
        for step in GOLDEN[key]["trace"]
    }
    assert verdicts == {
        "compute bound", "memory bound", "balanced, done", "exceeds capacity",
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("board_name", sorted(BOARDS))
def test_walks_replay_identically(kernel, board_name):
    found = walks_for(kernel, board_name)
    expected = {
        key: GOLDEN[key] for key in GOLDEN
        if key.split("/")[1:3] == [kernel, board_name]
    }
    assert found == expected


@pytest.mark.parametrize("kernel", KERNELS)
def test_enumerable_points_keep_their_order(kernel):
    assert enumerable_points(kernel) == GOLDEN[f"points/{kernel}"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(generate(), indent=1, sort_keys=True) + "\n"
    )
