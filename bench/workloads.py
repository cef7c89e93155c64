"""The four benchmark workloads as seeded op sequences.

The seed decides only the order of walks and the server submissions
drawn; the program under test never sees it.
Every trial of one run replays the same sequence, so trial-to-trial
spread is noise, not a different mix.

This module imports nothing from ``repro``: the orchestrator uses it
before any child process has loaded the program.
"""

from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("walk-cold", "rewalk-warm", "sweep-exhaustive", "serve-mixed")

KERNELS = (
    "fir", "mm", "pat", "jac", "sobel", "corr", "dilate", "laplace",
    "decimate",
)
BOARDS = ("pipelined", "nonpipelined")
SWEEP_KERNELS = ("fir", "sobel", "mm")

#: Pipeline option overrides a server submission may carry.
PIPELINE_VARIANTS = {
    "default": {},
    "nolicm": {"run_licm": False},
    "noouter": {"exploit_outer_reuse": False},
}
TOLERANCES = (0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2)

#: Trial sizes.  A trial is a fixed number of ops, never a duration: a
#: duration-bound server run changes its own job mix as speed changes.
WALK_COLD_PASSES = 1
REWALK_PASSES = 2
#: One resubmission of an earlier job per this many new ones (20%).
SERVE_NEW_PER_RESUBMIT = 4


def walk_key(kernel: str, board: str) -> str:
    return f"walk/{kernel}/{board}"


def sweep_key(kernel: str) -> str:
    return f"sweep/{kernel}/pipelined"


def serve_key(kernel: str, board: str, variant: str, tolerance: float) -> str:
    return f"serve/{kernel}/{board}/{variant}/{tolerance!r}"


def golden_keys() -> List[str]:
    """Every selection the golden file must hold: each walk and sweep op
    and each of the 540 possible server submissions."""
    keys = [walk_key(k, b) for k in KERNELS for b in BOARDS]
    keys += [sweep_key(k) for k in SWEEP_KERNELS]
    keys += [
        serve_key(k, b, v, t)
        for k in KERNELS for b in BOARDS
        for v in PIPELINE_VARIANTS for t in TOLERANCES
    ]
    return keys


def plan(workload: str, seed: int, quick: bool = False) -> List[Dict]:
    """The op sequence one trial of ``workload`` runs under ``seed``.

    ``quick`` shrinks a trial to a smoke-test size; a serve-mixed trial
    is small already and stays as it is.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("walk-cold", "rewalk-warm"):
        passes = 1 if quick else (
            WALK_COLD_PASSES if workload == "walk-cold" else REWALK_PASSES
        )
        pairs = [(k, b) for k in KERNELS for b in BOARDS]
        ops = []
        for _ in range(passes):
            rng.shuffle(pairs)
            ops += [
                {"key": walk_key(k, b), "kernel": k, "board": b}
                for k, b in pairs
            ]
        return ops
    if workload == "sweep-exhaustive":
        # A fixed order: the process's peak memory depends on it.
        return [
            {"key": sweep_key(k), "kernel": k, "board": "pipelined"}
            for k in (["mm"] if quick else SWEEP_KERNELS)
        ]
    if workload == "serve-mixed":
        return _serve_plan(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def serve_variant(kernel: str) -> str:
    """The pipeline variant a kernel's serve jobs use: the i-th kernel
    of ``KERNELS`` takes the (i mod 3)-th variant."""
    variants = list(PIPELINE_VARIANTS)
    return variants[KERNELS.index(kernel) % len(variants)]


def _serve_plan(rng: random.Random) -> List[Dict]:
    """Every (kernel, board) pair under its kernel's variant, at a drawn
    tolerance, plus resubmissions of earlier jobs at drawn places.

    The seed draws tolerances and resubmissions, never what a job
    costs.  The variant decides most of that (``noouter`` makes fir
    thirty times cheaper), so it is fixed per kernel.  So is the order
    of the new jobs: the server replays the shared memo journal at the
    start of every job, so a job's cost grows with the records the jobs
    before it wrote.  Both boards of a kernel share its variant and run
    back to back, so the second reuses the first one's legality and
    verify memo entries.
    """
    new = []
    for kernel in KERNELS:
        variant = serve_variant(kernel)
        for board in BOARDS:
            tolerance = rng.choice(TOLERANCES)
            new.append({
                "key": serve_key(kernel, board, variant, tolerance),
                "kernel": kernel, "board": board, "variant": variant,
                "tolerance": tolerance, "resubmit": False,
            })
    ops = list(new)
    for _ in range(len(new) // SERVE_NEW_PER_RESUBMIT):
        original = rng.randrange(len(new))
        first = ops.index(new[original])
        ops.insert(rng.randrange(first + 1, len(ops) + 1),
                   dict(new[original], resubmit=True))
    return ops


def submission(op: Dict) -> Dict:
    """The ``POST /jobs`` body for one serve op."""
    return {
        "program": f"kernel:{op['kernel']}",
        "board": op["board"],
        "pipeline": dict(PIPELINE_VARIANTS[op["variant"]]),
        "search": {"balance_tolerance": op["tolerance"]},
    }
