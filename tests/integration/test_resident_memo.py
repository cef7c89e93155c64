"""A worker's resident memo store answers exactly as a full replay.

One fixed job sequence runs through ``execute_job`` on one memo
directory twice: with the process's store resident between jobs, and
with it released before every job, so that each job replays the whole
journal.  The payloads must match in everything but wall time.  A job
whose memo flush fails evicts the store, and the next job replays from
disk and journals again what the failed flush lost.
"""

import json

import pytest

from repro import faults
from repro.incremental.journal import open_memo, release_memo
from repro.service.jobs import JobConfig, JobSpec
from repro.service.worker import execute_job

SEQUENCE = [
    (kernel, board, pipeline)
    for kernel in ("fir", "mm", "jac")
    for board in ("pipelined", "nonpipelined")
    for pipeline in ({}, {"run_licm": False})
]


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    faults.deactivate()
    yield
    faults.deactivate()


def payload(kernel, board, pipeline, memo_dir, fault_spec=None):
    spec = JobSpec.create(
        f"kernel:{kernel}", config=JobConfig(board=board, pipeline=pipeline),
    )
    runtime = {"memo_dir": str(memo_dir), "trace": False}
    if fault_spec is not None:
        runtime["fault_spec"] = fault_spec
    return dict(spec.to_payload(), runtime=runtime)


def comparable(result):
    """The payload minus what wall time and the replay mode may move."""
    memo = result["memo"]
    return {
        "selected_unroll": result["selected_unroll"],
        "cycles": result["cycles"],
        "space": result["space"],
        "baseline_cycles": result["baseline_cycles"],
        "speedup": result["speedup"],
        "trace": result["trace"],
        "cache_hits": result["cache_hits"],
        "cache_misses": result["cache_misses"],
        "memo": (memo["hits"], memo["misses"], memo["entries"]),
        "points_searched": result["points_searched"],
    }


def replays(result, mode):
    counters = result["obs"]["metrics"]["counters"]
    return counters.get(f"incremental.memo.replays{{mode={mode}}}", 0)


def run_sequence(memo_dir, resident):
    results = []
    try:
        for kernel, board, pipeline in SEQUENCE:
            if not resident:
                release_memo(memo_dir)
            results.append(execute_job(payload(kernel, board, pipeline,
                                               memo_dir)))
    finally:
        release_memo(memo_dir)
    return results


def test_resident_store_equals_a_replay(tmp_path):
    resident = run_sequence(tmp_path / "resident", resident=True)
    replayed = run_sequence(tmp_path / "replayed", resident=False)
    assert [comparable(r) for r in resident] == \
        [comparable(r) for r in replayed]
    assert all(replays(r, "full") == 1 for r in replayed)
    assert [replays(r, "catch_up") for r in resident] == \
        [0] + [1] * (len(SEQUENCE) - 1)
    assert open_memo(tmp_path / "resident").counts() == \
        open_memo(tmp_path / "replayed").counts()


def test_failed_flush_evicts_the_store(tmp_path):
    memo_dir = tmp_path / "memo"
    spec = tmp_path / "disk_full.json"
    spec.write_text(json.dumps({"faults": [{
        "site": "disk_full", "mode": "io_error", "jobs": ["memo"],
        "max_hits": 1,
    }]}))
    try:
        first = execute_job(payload("fir", "pipelined", {}, memo_dir))
        failed = execute_job(payload("mm", "pipelined", {}, memo_dir,
                                     fault_spec=str(spec)))
        assert replays(failed, "catch_up") == 1
        assert failed["memo"]["invalidations"] > 0
        assert open_memo(memo_dir).counts() == first["memo"]["entries"]

        again = execute_job(payload("mm", "pipelined", {}, memo_dir))
        assert (replays(again, "full"), replays(again, "catch_up")) == (1, 0)
        assert again["cache_misses"] == failed["cache_misses"] > 0
        assert open_memo(memo_dir).counts() == again["memo"]["entries"]

        warm = execute_job(payload("mm", "pipelined", {}, memo_dir))
        assert replays(warm, "catch_up") == 1
        assert warm["cache_misses"] == 0
    finally:
        release_memo(memo_dir)
