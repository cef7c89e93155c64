"""Chaos: the memo journal is corrupted mid-run; the walk must not care.

Satellite of the incremental-evaluation acceptance: with the
``journal_bitflip`` fault site firing on the ``memo`` prefix, records
land on disk damaged and fail their CRC on the next load.  The contract
under that damage:

* a warm walk over a partially-corrupt journal re-learns the lost
  entries from scratch and selects the **bit-identical** design the
  clean walk selected;
* a journal ruined end-to-end loads as an empty memo — a plain cold
  walk, same selection;
* every lost record is counted on ``incremental.memo.invalidations``
  (at write time via the damage callback, at load time via CRC), and
  nothing in the path raises.
"""

import json
import types

import pytest

from repro.dse import ExploreConfig, SearchOptions, explore
from repro import faults
from repro.incremental.journal import open_memo
from repro.obs import MetricsRegistry, use_registry
from repro.target import wildstar_pipelined

KERNEL_NAMES = ["fir", "mm", "jac"]


def bitflip_spec(tmp_path, max_hits):
    path = tmp_path / "bitflip.json"
    path.write_text(json.dumps({
        "seed": 11,
        "faults": [{
            "site": "journal_bitflip", "mode": "bitflip",
            "jobs": ["memo"], "max_hits": max_hits,
        }],
    }))
    return str(path)


def walk(kernel, memo_dir=None, incremental=True):
    return explore(
        kernel.program(), wildstar_pipelined(),
        config=ExploreConfig(
            search=SearchOptions(strategy="balance"),
            incremental=incremental,
            memo_dir=memo_dir,
        ),
    )


def fingerprint(result):
    return (
        tuple(result.selected.unroll), result.selected.estimate,
        tuple(result.baseline.unroll), result.baseline.estimate,
    )


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_bitflip_mid_run_degrades_to_from_scratch(name, tmp_path):
    from repro.kernels import kernel_by_name
    kernel = kernel_by_name(name)
    oracle = fingerprint(walk(kernel, incremental=False))

    # Cold walk with the bitflip active: a few flushed records land on
    # disk corrupt (counted at write time), the rest are fine.
    memo_dir = tmp_path / "memo"
    faults.activate(bitflip_spec(tmp_path, max_hits=3))
    registry = MetricsRegistry()
    with use_registry(registry):
        corrupted = walk(kernel, memo_dir=memo_dir)
    faults.deactivate()
    assert fingerprint(corrupted) == oracle
    assert corrupted.memo_stats["invalidations"] == 3

    # Warm walk over the damaged journal: CRC rejects the flipped
    # records, replay adopts the survivors, the lost points re-run from
    # scratch — and the selection is still the oracle's.
    registry = MetricsRegistry()
    with use_registry(registry):
        warm = walk(kernel, memo_dir=memo_dir)
    assert fingerprint(warm) == oracle
    assert warm.memo_stats["invalidations"] >= 1
    counters = str(registry.snapshot())
    assert "incremental.memo.invalidations" in counters


def test_journal_ruined_end_to_end_loads_empty(tmp_path):
    from repro.kernels import kernel_by_name
    kernel = kernel_by_name("fir")
    oracle = fingerprint(walk(kernel, incremental=False))

    memo_dir = tmp_path / "memo"
    faults.activate(bitflip_spec(tmp_path, max_hits=10_000))
    walk(kernel, memo_dir=memo_dir)
    faults.deactivate()

    # Every record on disk was mangled: replay rejects (almost) all of
    # them without raising.  A flip can demote a record to the tolerated
    # legacy (unframed) form, so "empty" is not guaranteed — "lost far
    # more than survived" is.
    probe = open_memo(memo_dir)
    assert probe.invalidations > len(probe)

    ruined = walk(kernel, memo_dir=memo_dir)
    assert fingerprint(ruined) == oracle
    assert ruined.memo_stats["invalidations"] >= 1


def test_fsck_repairs_a_bitflipped_memo_journal(tmp_path, monkeypatch):
    """``repro fsck`` covers the memo prefix: detect, repair, compact."""
    from repro.durable.fsck import inspect_path, repair_path
    from repro.incremental import journal as memo_journal
    from repro.kernels import kernel_by_name
    kernel = kernel_by_name("fir")
    # The flipped bit's position depends on the record bytes, which carry
    # a wall-clock ``ts``: pin the memo journal's clock so the damage
    # (and the count below) is the same on every run.
    monkeypatch.setattr(
        memo_journal, "time", types.SimpleNamespace(time=lambda: 1760000000.5)
    )

    memo_dir = tmp_path / "run" / "memo"
    faults.activate(bitflip_spec(tmp_path, max_hits=2))
    walk(kernel, memo_dir=memo_dir)
    faults.deactivate()

    # Pointed at the parent (run-dir convention), fsck finds memo/.
    reports = inspect_path(tmp_path / "run")
    (report,) = [r for r in reports if r.prefix == "memo"]
    assert not report.clean
    assert report.corrupt_records == 2

    repairs = repair_path(tmp_path / "run", compact=True)
    (repair,) = [r for r in repairs if r.prefix == "memo"]
    assert repair.quarantined == 2
    assert repair.compacted

    after = inspect_path(tmp_path / "run")
    (clean,) = [r for r in after if r.prefix == "memo"]
    assert clean.clean

    # The repaired journal replays with zero invalidations and still
    # warm-starts the walk.
    probe = open_memo(memo_dir)
    assert probe.invalidations == 0
    assert len(probe) > 0
    warm = walk(kernel, memo_dir=memo_dir)
    assert warm.memo_stats["hits"] >= 1
