"""Unit coverage for the incremental memo store and its journal.

The memo layer's contracts, pinned one at a time:

* four domains with hit/miss accounting and idempotent adoption;
* schedule and estimate values survive the JSON codecs bit-for-bit —
  infinite balances and provenance included, through a journal reload;
* the journal round-trips entries across processes (load = flush⁻¹),
  compacts into a snapshot segment, and degrades — never raises — on
  write failure, counting every loss as an invalidation;
* a catch-up reads only complete lines appended since the last read,
  and a changed segment chain forces a full replay;
* a resident store survives between jobs only while its journal holds
  everything it does;
* the ``/metrics`` counters exist at zero from construction.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.durable import journal as durable_journal
from repro.durable.fsck import repair_journal
from repro.durable.journal import frame_record
from repro.estimate import get_backend
from repro.frontend import compile_source
from repro.incremental.journal import (
    MEMO_EVENT, MEMO_PREFIX, MemoJournal, open_memo, release_memo,
    resident_memo,
)
from repro.incremental.memo import (
    MemoStore, current_memo, decode_estimate, decode_schedule,
    encode_estimate, encode_schedule, use_memo,
)
from repro.kernels import FIR
from repro.obs import MetricsRegistry, use_registry
from repro.synthesis.scheduling import RegionSchedule
from repro.target import wildstar_pipelined
from repro.transform import UnrollVector, compile_design


def sample_schedule():
    return RegionSchedule(
        length=7,
        start_times={0: 0, 1: 2, 5: 3},
        finish_times={0: 2, 1: 3, 5: 7},
        memory_only_length=4,
        compute_only_length=5,
        memory_bits=96,
        operator_demand={("mult", 16): 2, ("add", 24): 1},
        memory_traffic={0: 3, 2: 1},
    )


class TestDomains:
    def test_point_hit_and_miss_accounting(self):
        memo = MemoStore()
        assert memo.point_get("k") is None
        memo.point_put("k", {"cycles": 5})
        assert memo.point_get("k") == {"cycles": 5}
        assert (memo.hits, memo.misses) == (1, 1)
        assert (memo.point_hits, memo.point_misses) == (1, 1)

    def test_point_tallies_ignore_other_domains(self):
        memo = MemoStore()
        memo.legality_get("src")
        memo.verified("v")
        assert (memo.point_hits, memo.point_misses) == (0, 0)
        assert memo.misses == 2

    def test_legality_roundtrips_depth_tuple(self):
        memo = MemoStore()
        memo.legality_put("src", (0, 2))
        assert memo.legality_get("src") == (0, 2)

    def test_verify_is_sticky(self):
        memo = MemoStore()
        assert not memo.verified("stage:1:abc")
        memo.note_verified("stage:1:abc")
        assert memo.verified("stage:1:abc")

    def test_schedule_returns_decoded_object(self):
        memo = MemoStore()
        memo.schedule_put("r", sample_schedule())
        assert memo.schedule_get("r") == sample_schedule()

    def test_adoption_is_idempotent(self):
        memo = MemoStore()
        assert memo._adopt("point", "k", {"a": 1})
        assert not memo._adopt("point", "k", {"a": 2})
        assert memo._points["k"] == {"a": 1}

    def test_unknown_domain_counts_invalidation(self):
        memo = MemoStore()
        assert not memo._adopt("wat", "k", 1)
        assert memo.invalidations == 1

    def test_counts_per_domain(self):
        memo = MemoStore()
        memo.point_put("p", {})
        memo.legality_put("l", (1,))
        memo.note_verified("v")
        memo.schedule_put("s", sample_schedule())
        assert memo.counts() == {
            "point": 1, "legality": 1, "verify": 1, "schedule": 1,
        }
        assert len(memo) == 4


class TestProgramHash:
    def test_digest_is_the_printed_program_and_lives_on_it(self):
        from repro.incremental import hashing
        from repro.ir.printer import print_program
        program = FIR.program()
        digest = hashing.program_hash(program)
        assert digest == hashing.sha(print_program(program))
        assert program.digest is digest

    def test_hashing_keeps_no_program_alive(self):
        import gc
        import weakref
        from repro.incremental.hashing import program_hash
        program = FIR.program()
        program_hash(program)
        alive = weakref.ref(program)
        del program
        gc.collect()
        assert alive() is None

    def test_equal_programs_hash_equal_and_edits_rehash(self):
        from repro.incremental.hashing import program_hash
        program = FIR.program()
        assert program_hash(FIR.program()) == program_hash(program)
        renamed = replace(program, name="other")
        assert program_hash(renamed) == program_hash(program)
        trimmed = program.with_body(program.body[:0])
        assert program_hash(trimmed) != program_hash(program)


class TestScheduleCodec:
    def test_roundtrip_is_bit_identical(self):
        schedule = sample_schedule()
        assert decode_schedule(encode_schedule(schedule)) == schedule

    def test_encoded_form_survives_json(self):
        import json
        schedule = sample_schedule()
        wire = json.loads(json.dumps(encode_schedule(schedule)))
        assert decode_schedule(wire) == schedule


def sample_estimate(backend="analytic"):
    design = compile_design(FIR.program(), UnrollVector.of(2, 2), 4)
    board = wildstar_pipelined()
    return get_backend(backend).estimate(design.program, board, design.plan)


def reload_point(tmp_path, estimate):
    """Journal ``estimate`` under one key, reload the directory in a
    fresh store, and decode what comes back."""
    writer = open_memo(tmp_path)
    writer.point_put("p", encode_estimate(estimate))
    writer.close()
    return decode_estimate(open_memo(tmp_path).point_get("p"))


class TestEstimateCodec:
    def test_roundtrip_is_bit_identical(self):
        estimate = sample_estimate()
        decoded = decode_estimate(encode_estimate(estimate))
        assert decoded == estimate
        assert decoded.area.as_dict() == estimate.area.as_dict()
        assert decoded.operator_demand == estimate.operator_demand
        assert decoded.memory_traffic == estimate.memory_traffic

    @pytest.mark.parametrize("balance", [float("inf"), float("-inf")])
    def test_infinite_balance_survives_journal_reload(self, tmp_path,
                                                      balance):
        estimate = replace(sample_estimate(), balance=balance)
        assert reload_point(tmp_path, estimate).balance == balance

    def test_compute_only_kernel_balance_survives_journal_reload(
        self, tmp_path
    ):
        program = compile_source(
            "int A[1]; int x; A[0] = 1;\n"
            "for (i = 0; i < 8; i++) x = x + i * 3;"
        )
        estimate = get_backend("analytic").estimate(
            program, wildstar_pipelined()
        )
        assert estimate.balance == float("inf")
        assert reload_point(tmp_path, estimate).balance == float("inf")

    def test_provenance_survives_journal_reload(self, tmp_path):
        estimate = sample_estimate("placeroute")
        decoded = reload_point(tmp_path, estimate)
        assert decoded == estimate
        assert decoded.provenance == estimate.provenance
        assert decoded.provenance.backend == "placeroute"

    def test_malformed_entry_raises_for_the_caller_to_count(self):
        with pytest.raises(KeyError):
            decode_estimate({"not": "an estimate"})


class TestCounters:
    def test_registered_at_zero_on_construction(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            MemoStore()
        snapshot = registry.snapshot()
        names = {
            series["name"] for series in snapshot.get("counters", [])
        } if isinstance(snapshot.get("counters"), list) else set(
            snapshot.get("counters", {})
        )
        text = str(snapshot)
        for counter in (
            "incremental.memo.hits",
            "incremental.memo.misses",
            "incremental.memo.invalidations",
            "incremental.memo.replays",
            "incremental.delta.reused_regions",
        ):
            assert counter in text or counter in names

    def test_invalidate_counts_with_reason(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            memo = MemoStore()
            memo.invalidate(3, reason="corrupt")
        assert memo.invalidations == 3

    def test_invalidate_ignores_nonpositive(self):
        memo = MemoStore()
        memo.invalidate(0)
        memo.invalidate(-2)
        assert memo.invalidations == 0


class TestAmbient:
    def test_use_memo_installs_and_restores(self):
        assert current_memo() is None
        memo = MemoStore()
        with use_memo(memo):
            assert current_memo() is memo
        assert current_memo() is None

    def test_nested_scopes_restore_outer(self):
        outer, inner = MemoStore(), MemoStore()
        with use_memo(outer):
            with use_memo(inner):
                assert current_memo() is inner
            assert current_memo() is outer


class TestJournal:
    def test_flush_then_load_roundtrips(self, tmp_path):
        writer = open_memo(tmp_path)
        writer.point_put("p", {"cycles": 9})
        writer.legality_put("l", (0,))
        writer.note_verified("v")
        writer.schedule_put("s", sample_schedule())
        writer.close()
        assert (tmp_path / f"{MEMO_PREFIX}.jsonl").exists()

        reader = open_memo(tmp_path)
        assert reader.point_get("p") == {"cycles": 9}
        assert reader.legality_get("l") == (0,)
        assert reader.verified("v")
        assert reader.schedule_get("s") == sample_schedule()

    def test_replayed_entries_are_not_rewritten(self, tmp_path):
        writer = open_memo(tmp_path)
        writer.point_put("p", {"cycles": 9})
        writer.close()
        reader = open_memo(tmp_path)
        reader.point_put("p", {"cycles": 9})  # already adopted: no-op
        assert reader._journal.pending == 0
        reader.close()
        third = open_memo(tmp_path)
        assert third.point_get("p") == {"cycles": 9}

    def test_compact_folds_to_snapshot(self, tmp_path):
        store = open_memo(tmp_path)
        for index in range(5):
            store.point_put(f"p{index}", {"cycles": index})
        store.flush()
        assert store._journal.compact()
        reloaded = open_memo(tmp_path)
        assert reloaded.counts()["point"] == 5
        assert reloaded.invalidations == 0

    def test_write_failure_degrades_and_counts(self, tmp_path, monkeypatch):
        store = open_memo(tmp_path)
        store.point_put("p", {"cycles": 1})
        journal = store._journal

        def boom():
            raise OSError("disk on fire")

        monkeypatch.setattr(journal, "_open", boom)
        assert journal.flush() == 0
        assert journal.write_failures == 1
        assert store.invalidations == 1
        # The store keeps serving in memory.
        assert store.point_get("p") == {"cycles": 1}

    def test_corrupt_record_loads_as_invalidation(self, tmp_path):
        store = open_memo(tmp_path)
        store.point_put("p", {"cycles": 1})
        store.point_put("q", {"cycles": 2})
        store.close()
        path = tmp_path / f"{MEMO_PREFIX}.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"cycles":1', '"cycles":3')
        path.write_text("\n".join(lines) + "\n")

        reloaded = open_memo(tmp_path)
        assert reloaded.invalidations == 1
        assert reloaded.point_get("q") == {"cycles": 2}
        assert reloaded.point_get("p") is None

    def test_ruined_journal_loads_empty(self, tmp_path):
        path = tmp_path / f"{MEMO_PREFIX}.jsonl"
        path.write_text("not json at all\n{broken\n")
        store = open_memo(tmp_path)
        assert len(store) == 0
        assert store.invalidations >= 1

    def test_open_memo_without_directory_is_ephemeral(self):
        store = open_memo(None)
        assert store._journal is None
        store.flush()  # no-op, must not raise
        store.close()


def memo_line(key, cycles):
    return frame_record({
        "ts": 0.0, "schema_version": 1, "event": MEMO_EVENT,
        "domain": "point", "key": key, "value": {"cycles": cycles},
    })


def write_entries(memo_dir, *keys, **journal_kwargs):
    """A second writer: its own store, flushing ``keys`` as one batch."""
    store = MemoStore()
    store.attach_journal(MemoJournal(memo_dir, **journal_kwargs))
    for key in keys:
        store.point_put(key, {"cycles": len(key)})
    store.flush()


def replays(registry, mode):
    return registry.counter_value("incremental.memo.replays", mode=mode)


class TestCatchUp:
    def test_adopts_a_second_writers_records_only(self, tmp_path,
                                                  monkeypatch):
        write_entries(tmp_path, "a", "bb")
        reader = open_memo(tmp_path)
        write_entries(tmp_path, "ccc")
        verified = []
        real_verify = durable_journal.verify_line
        monkeypatch.setattr(durable_journal, "verify_line",
                            lambda line: verified.append(line)
                            or real_verify(line))
        assert reader._journal.catch_up(reader)
        assert reader.point_get("ccc") == {"cycles": 3}
        assert len(verified) == 1 and '"ccc"' in verified[0]
        assert reader.invalidations == 0

    @pytest.mark.parametrize("change", ["rotation", "compaction", "repair"])
    def test_changed_chain_forces_a_full_replay(self, tmp_path, change):
        memo_dir = tmp_path / "memo"
        write_entries(memo_dir, "a")
        try:
            with resident_memo(memo_dir) as store:
                assert store.point_get("a") == {"cycles": 1}
            if change == "rotation":
                write_entries(memo_dir, "bb", max_segment_bytes=1)
            elif change == "compaction":
                other = open_memo(memo_dir)
                other.point_put("bb", {"cycles": 2})
                other.flush()
                assert other._journal.compact()
            else:
                with open(memo_dir / f"{MEMO_PREFIX}.jsonl", "a") as stream:
                    stream.write(memo_line("bb", 2) + "\n")
                    stream.write("{damaged\n")
                repair_journal(memo_dir, MEMO_PREFIX)
            registry = MetricsRegistry()
            with use_registry(registry), resident_memo(memo_dir) as store:
                entries = dict(store._points)
            assert (replays(registry, "full"),
                    replays(registry, "catch_up")) == (1, 0)
            assert entries == open_memo(memo_dir)._points
            assert set(entries) == {"a", "bb"}
        finally:
            release_memo(memo_dir)

    def test_half_written_line_waits_for_its_newline(self, tmp_path):
        write_entries(tmp_path, "a")
        store = open_memo(tmp_path)
        line = memo_line("bb", 2)
        segment = tmp_path / f"{MEMO_PREFIX}.jsonl"
        with open(segment, "a") as stream:
            stream.write(line[:25])
        assert store._journal.catch_up(store)
        assert store.invalidations == 0 and store.counts()["point"] == 1
        with open(segment, "a") as stream:
            stream.write(line[25:] + "\n")
        assert store._journal.catch_up(store)
        assert store.invalidations == 0
        assert store.point_get("bb") == {"cycles": 2}

    def test_bitflipped_line_counts_one_invalidation_once(self, tmp_path):
        write_entries(tmp_path, "a")
        store = open_memo(tmp_path)
        flipped = memo_line("bb", 2).replace('"cycles":2', '"cycles":3')
        with open(tmp_path / f"{MEMO_PREFIX}.jsonl", "a") as stream:
            stream.write(flipped + "\n")
        write_entries(tmp_path, "ccc")
        assert store._journal.catch_up(store)
        assert store.invalidations == 1
        assert store._journal.catch_up(store)
        assert store.invalidations == 1
        assert store.point_get("ccc") == {"cycles": 3}
        assert store.point_get("bb") is None


class TestResidentMemo:
    def test_keeps_the_store_and_starts_fresh_tallies(self, tmp_path):
        memo_dir = tmp_path / "memo"
        try:
            with resident_memo(memo_dir) as first:
                first.point_get("a")
                first.point_put("a", {"cycles": 1})
                first.flush()
            registry = MetricsRegistry()
            with use_registry(registry), resident_memo(memo_dir) as second:
                assert second is first
                assert (second.hits, second.misses, second.point_misses,
                        second.invalidations) == (0, 0, 0, 0)
                assert second.point_get("a") == {"cycles": 1}
            assert (replays(registry, "full"),
                    replays(registry, "catch_up")) == (0, 1)
            assert "incremental.memo.hits" in registry.snapshot()["counters"]
        finally:
            release_memo(memo_dir)

    def test_unflushed_or_failed_store_is_evicted(self, tmp_path):
        memo_dir = tmp_path / "memo"
        try:
            with resident_memo(memo_dir) as store:
                store.point_put("a", {"cycles": 1})  # never flushed
            with resident_memo(memo_dir) as replayed:
                assert replayed is not store
                assert replayed.counts()["point"] == 0
        finally:
            release_memo(memo_dir)

    def test_release_makes_the_next_job_replay(self, tmp_path):
        memo_dir = tmp_path / "memo"
        with resident_memo(memo_dir) as store:
            pass
        release_memo(memo_dir)
        registry = MetricsRegistry()
        with use_registry(registry), resident_memo(memo_dir) as replayed:
            assert replayed is not store
        assert replays(registry, "full") == 1
        release_memo(memo_dir)

    def test_concurrent_jobs_never_share_a_store(self, tmp_path):
        memo_dir = tmp_path / "memo"
        in_use, clashes = set(), []
        guard = threading.Lock()

        def job(index):
            for round_ in range(5):
                with resident_memo(memo_dir) as store:
                    with guard:
                        if id(store) in in_use:
                            clashes.append(index)
                        in_use.add(id(store))
                    store.point_put(f"k{index}-{round_}", {"cycles": index})
                    store.flush()
                    with guard:
                        in_use.discard(id(store))

        threads = [threading.Thread(target=job, args=(index,))
                   for index in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
            release_memo(memo_dir)
        assert not any(thread.is_alive() for thread in threads)
        assert not clashes
        assert open_memo(memo_dir).counts()["point"] == 40

    def test_without_directory_every_job_is_ephemeral(self):
        with resident_memo(None) as first:
            first.point_put("a", {"cycles": 1})
        with resident_memo(None) as second:
            assert second is not first and len(second) == 0
