"""The ``--strategy auto`` scoreboard survives server restarts.

Before this change the learned win-rate tallies lived only in worker
memory — every server boot started selection from zero.  Now the store
journals one ``strategy_outcome`` event per finished job and folds them
back on replay (and through snapshot compaction), so a restarted server
keeps the win rates it learned.  Pinned here:

* journal → replay: a fresh :class:`JobStore` over the same state dir
  reports the same tallies;
* compaction folds the scoreboard into the snapshot and replays it;
* the scheduler records outcomes from real payloads and ships the
  snapshot to workers in each job's runtime map;
* end to end: a live server is stopped with SIGTERM semantics and a
  second server over the same state dir still knows the win rates.
"""

import json

import pytest

from repro.server.store import JobStore
from tests.server.conftest import wait_until


class TestStoreReplay:
    def test_outcomes_replay_across_restart(self, tmp_path):
        store = JobStore(tmp_path)
        store.record_strategy_outcome("j1", "balance", True, speedup=2.0)
        store.record_strategy_outcome("j2", "balance", False, speedup=0.9)
        store.record_strategy_outcome("j3", "genetic", True, speedup=1.4)
        store.close()

        revived = JobStore(tmp_path)
        board = revived.scoreboard_snapshot()
        revived.close()
        assert board["balance"]["trials"] == 2
        assert board["balance"]["wins"] == 1
        assert board["genetic"] == {
            "trials": 1, "wins": 1, "win_rate": 1.0,
        }

    def test_scoreboard_survives_compaction(self, tmp_path):
        store = JobStore(tmp_path)
        for index in range(5):
            store.record_strategy_outcome(f"j{index}", "hill", True)
        store.compact()
        store.close()

        revived = JobStore(tmp_path)
        board = revived.scoreboard_snapshot()
        revived.close()
        assert board["hill"]["trials"] == 5
        assert board["hill"]["win_rate"] == 1.0

    def test_selected_events_are_informational(self, tmp_path):
        store = JobStore(tmp_path)
        store.record_strategy_selected("j1", "genetic", reason="learned")
        store.close()
        revived = JobStore(tmp_path)
        assert revived.scoreboard_snapshot() == {}
        revived.close()

    def test_journal_carries_running_tallies(self, tmp_path):
        store = JobStore(tmp_path)
        store.record_strategy_outcome("j1", "balance", True, speedup=2.0)
        store.close()
        events = [
            json.loads(line)
            for line in (tmp_path / "jobs.jsonl").read_text().splitlines()
        ]
        (outcome,) = [e for e in events if e["event"] == "strategy_outcome"]
        assert outcome["strategy"] == "balance"
        assert outcome["won"] is True
        assert outcome["trials"] == 1
        assert outcome["win_rate"] == 1.0


def _submit(live, program):
    from repro.server.http import Request
    response = live.server.handle(Request(
        "POST", "/jobs", body=json.dumps({"program": program}).encode()
    ))
    assert response.status in (200, 201), response.body
    return json.loads(response.body.decode())["job_id"]


def _report_status(live, job_id):
    from repro.server.http import Request
    return live.server.handle(
        Request("GET", f"/jobs/{job_id}/report")
    ).status


class TestLiveServer:
    def test_win_rates_survive_server_restart(self, live_server_factory):
        first = live_server_factory(state_name="state")
        job = _submit(first, "kernel:fir")
        assert wait_until(lambda: _report_status(first, job) == 200)
        # The stub worker reports speedup 2.0 under the default
        # strategy: one win on the scoreboard.
        assert wait_until(
            lambda: first.server.store.scoreboard_snapshot()
            .get("balance", {}).get("trials") == 1
        )
        first.stop()  # graceful drain — the SIGTERM path

        second = live_server_factory(state_name="state")
        board = second.server.store.scoreboard_snapshot()
        assert board["balance"]["trials"] == 1
        assert board["balance"]["wins"] == 1

        # And the revived tallies keep growing — they seed, not reset.
        job2 = _submit(second, "kernel:mm")
        assert wait_until(lambda: _report_status(second, job2) == 200)
        assert wait_until(
            lambda: second.server.store.scoreboard_snapshot()
            .get("balance", {}).get("trials") == 2
        )

    def test_scoreboard_ships_to_workers(self, live_server_factory):
        seen = {}

        def spy_worker(payload):
            seen.update(payload.get("runtime") or {})
            from tests.server.conftest import stub_worker
            return stub_worker(payload)

        live = live_server_factory(worker=spy_worker, state_name="spy")
        live.server.store.record_strategy_outcome(
            "seed-job", "genetic", True, speedup=1.5
        )
        job = _submit(live, "kernel:fir")
        assert wait_until(lambda: _report_status(live, job) == 200)
        assert seen.get("scoreboard", {}).get("genetic", {}).get("wins") == 1
