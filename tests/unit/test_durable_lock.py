"""Unit tests for the inter-process journal lock and its bounded waits."""

import pytest

from repro.durable import FileLock
from repro.errors import CacheLockTimeout, failure_kind
from repro.incremental.journal import MEMO_PREFIX, MemoJournal, open_memo
from repro.incremental.memo import MemoStore


class TestLockTimeout:
    def test_contended_lock_times_out_typed(self, tmp_path):
        lock_path = tmp_path / "memo.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        try:
            waiter = FileLock(lock_path, timeout_s=0.2)
            with pytest.raises(CacheLockTimeout) as caught:
                waiter.acquire()
            assert failure_kind(caught.value) == "cache_lock_timeout"
        finally:
            holder.release()

    def test_acquires_once_released(self, tmp_path):
        lock_path = tmp_path / "memo.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        holder.release()
        waiter = FileLock(lock_path, timeout_s=0.2)
        waiter.acquire()  # must not raise
        waiter.release()

    def test_memo_flush_against_held_lock_counts_write_failure(self, tmp_path):
        store = MemoStore()
        journal = MemoJournal(tmp_path, lock_timeout_s=0.2)
        store.attach_journal(journal)
        store.point_put("k", {"v": 1})
        blocker = FileLock(tmp_path / f"{MEMO_PREFIX}.lock")
        blocker.acquire()  # a hung peer holding the journal lock
        try:
            assert journal.flush() == 0  # degrades, never raises
        finally:
            blocker.release()
        assert journal.write_failures == 1
        assert store.invalidations == 1
        assert store.point_get("k") == {"v": 1}  # still served in memory
        store.point_put("j", {"v": 2})
        assert journal.flush() == 1  # recovers once the peer lets go
        assert open_memo(tmp_path).point_get("j") == {"v": 2}

    def test_mkdir_fallback_times_out(self, tmp_path, monkeypatch):
        lock_path = tmp_path / "memo.lock"
        holder = FileLock(lock_path)
        monkeypatch.setattr(holder, "_use_fcntl", False)
        holder.acquire()
        try:
            waiter = FileLock(lock_path, timeout_s=0.2, stale_s=60.0)
            monkeypatch.setattr(waiter, "_use_fcntl", False)
            with pytest.raises(CacheLockTimeout):
                waiter.acquire()
        finally:
            holder.release()
