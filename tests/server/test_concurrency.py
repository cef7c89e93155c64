"""The shared memo journal under server-style concurrency.

The satellite invariant: N clients racing to submit the *same*
exploration cost exactly one execution (dedup), and the memo journal's
file locking at default settings never times out — neither under the
dedup race nor when genuinely distinct jobs flush into one journal.
"""

import threading

import pytest

from repro.incremental.journal import open_memo
from repro.server import client as http_client
from repro.service.worker import execute_job

from .conftest import wait_until

N_CLIENTS = 12


@pytest.mark.slow
def test_racing_identical_submissions_execute_once(live_server_factory,
                                                   tmp_path):
    executions = []
    execution_lock = threading.Lock()

    def counting_worker(payload):
        with execution_lock:
            executions.append(payload["id"])
        return execute_job(payload)

    live = live_server_factory(worker=counting_worker)
    url = live.base_url

    replies = []
    errors = []
    barrier = threading.Barrier(N_CLIENTS)

    def client():
        try:
            barrier.wait(10)
            replies.append(
                http_client.submit_job(url, {"program": "kernel:fir"})
            )
        except Exception as error:  # noqa: BLE001 - collected for assert
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not errors, errors
    assert len(replies) == N_CLIENTS

    # every racer got the same job id, and exactly one created it
    ids = {reply["job_id"] for reply in replies}
    assert len(ids) == 1
    job_id = ids.pop()
    assert sum(1 for reply in replies if reply["created"]) == 1

    assert wait_until(
        lambda: http_client.job_report(url, job_id)[0], timeout_s=120
    ), "job never finished"
    done, doc = http_client.job_report(url, job_id)
    assert doc["status"] == "ok"

    # the tentpole number: N submissions, ONE execution
    assert executions == [job_id]

    # zero lock timeouts at default settings: no memo write was lost
    result = doc["result"]
    assert result["memo"]["invalidations"] == 0
    assert result["estimator_retries"] == 0

    status = http_client.job_status(url, job_id)
    assert status["dedup_hits"] == N_CLIENTS - 1


@pytest.mark.slow
def test_distinct_jobs_share_one_cache_without_lock_timeouts(
    live_server_factory, tmp_path
):
    memo_dir = tmp_path / "memo"
    jobs = [
        {"program": "kernel:fir", "board": "pipelined"},
        {"program": "kernel:fir", "board": "nonpipelined"},
        {"program": "kernel:mm", "board": "pipelined"},
    ]

    live = live_server_factory(
        worker=execute_job, memo_dir=memo_dir, max_concurrency=3,
        state_name="state-a",
    )
    ids = [
        http_client.submit_job(live.base_url, job)["job_id"] for job in jobs
    ]
    assert wait_until(
        lambda: all(
            http_client.job_report(live.base_url, job_id)[0]
            for job_id in ids
        ),
        timeout_s=300,
    ), "jobs never finished"
    first_results = {}
    for job_id in ids:
        _, doc = http_client.job_report(live.base_url, job_id)
        assert doc["status"] == "ok", doc
        assert doc["result"]["memo"]["invalidations"] == 0
        first_results[job_id] = doc["result"]
    live.stop()
    assert open_memo(memo_dir).counts()["point"] > 0

    # a second server over the same memo journal answers from it: every
    # estimate was persisted, so the re-runs are pure point-memo hits
    rerun = live_server_factory(
        worker=execute_job, memo_dir=memo_dir, max_concurrency=3,
        state_name="state-b",
    )
    rerun_ids = [
        http_client.submit_job(rerun.base_url, job)["job_id"] for job in jobs
    ]
    assert rerun_ids == ids  # identity is content-derived, not per-server
    assert wait_until(
        lambda: all(
            http_client.job_report(rerun.base_url, job_id)[0]
            for job_id in rerun_ids
        ),
        timeout_s=300,
    )
    for job_id in rerun_ids:
        _, doc = http_client.job_report(rerun.base_url, job_id)
        result = doc["result"]
        assert result["cache_misses"] == 0, (job_id, result)
        assert result["cache_hits"] > 0
        # memoized estimates select the same design
        assert result["selected_unroll"] == (
            first_results[job_id]["selected_unroll"]
        )
        assert result["cycles"] == first_results[job_id]["cycles"]
