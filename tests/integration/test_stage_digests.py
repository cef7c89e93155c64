"""Every pipeline stage's printed IR, pinned by digest.

The printed form of each stage's output feeds ``program_hash``, the
verify and legality memo keys, and ``Provenance.cache_key``; identical
text is what lets existing memo journals keep hitting after the
transforms are rewritten.  ``tests/golden/stage_digests.json`` holds the
SHA-256 of ``print_program`` after every stage for each point the
default balance-guided walk visits (nine kernels x both boards) plus the
largest points of the exhaustive sweep: fir (8,16), sobel (8,16) and
mm (16,2,1).  Keys read ``kernel/board/factors``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.ir.printer import print_program
from repro.kernels import kernel_by_name
from repro.target import wildstar_nonpipelined, wildstar_pipelined
from repro.transform import UnrollVector, compile_design, pipeline

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "stage_digests.json").read_text()
)
BOARDS = {"pipelined": wildstar_pipelined(), "nonpipelined": wildstar_nonpipelined()}


def stage_digests(kernel, board, factors, monkeypatch):
    """SHA-256 of the printed program each stage hands to its contract."""
    digests = {}
    checked = pipeline._StageRunner.checked

    def recording(self, stage, program):
        digests[stage] = hashlib.sha256(
            print_program(program).encode("utf-8")
        ).hexdigest()
        return checked(self, stage, program)

    monkeypatch.setattr(pipeline._StageRunner, "checked", recording)
    compile_design(
        kernel_by_name(kernel).program(), UnrollVector(factors),
        BOARDS[board].num_memories,
    )
    return digests


def test_golden_covers_every_kernel_board_and_the_sweep_maxima():
    walks = {tuple(key.split("/")[:2]) for key in GOLDEN}
    assert len(walks) == 18
    for key in ("fir/pipelined/8,16", "sobel/pipelined/8,16",
                "mm/pipelined/16,2,1"):
        assert key in GOLDEN


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stage_output_prints_identically(key, monkeypatch):
    kernel, board, factors = key.split("/")
    unroll = tuple(int(f) for f in factors.split(","))
    assert stage_digests(kernel, board, unroll, monkeypatch) == GOLDEN[key]
