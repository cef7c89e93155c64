"""Fixtures for the exploration-server suite.

Most tests drive :class:`ExplorationServer` without a socket (its
``handle`` method takes synthetic requests), with ``workers=0`` so the
stub worker runs in-process where monkeypatching reaches it.  The
``live_server`` helper runs the whole thing — socket, scheduler, signal
semantics — on a background thread for the tests that need real HTTP.
"""

import asyncio
import threading
import time

import pytest

from repro.server import ExplorationServer


def stub_worker(payload):
    """A fast fake worker with the real payload contract."""
    return {
        "job_id": payload["id"],
        "program": payload["program"],
        "board": payload["board"],
        "selected_unroll": [1, 1],
        "cycles": 100,
        "space": 10,
        "speedup": 2.0,
        "points_searched": 3,
        "design_space_size": 8,
        "obs": {
            "spans": [],
            "metrics": {"counters": {"stub.jobs": 1}, "gauges": {},
                        "histograms": {}},
        },
    }


class LiveServer:
    """An :class:`ExplorationServer` running on a daemon thread."""

    def __init__(self, server: ExplorationServer):
        self.server = server
        self.loop = None
        self._ready = threading.Event()
        self._summary = None
        self.thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)

        def banner(_server):
            self._ready.set()

        try:
            self._summary = self.loop.run_until_complete(
                self.server.run_async(banner=banner)
            )
        finally:
            self._ready.set()
            self.loop.close()

    def start(self, timeout_s=10.0) -> str:
        self.thread.start()
        assert self._ready.wait(timeout_s), "server never started listening"
        assert self.server.bound_port, "server failed to bind"
        return self.base_url

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.bound_port}"

    def stop(self, timeout_s=30.0):
        if self.loop is not None and self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.begin_shutdown)
        self.thread.join(timeout_s)
        assert not self.thread.is_alive(), "server thread failed to drain"
        return self._summary


@pytest.fixture
def live_server_factory(tmp_path):
    """Build-and-start live servers; all are drained at teardown."""
    running = []

    def factory(worker=stub_worker, state_name="state", **kw):
        kw.setdefault("workers", 0)
        kw.setdefault("max_concurrency", 2)
        server = ExplorationServer(
            state_dir=tmp_path / state_name, worker=worker, **kw
        )
        live = LiveServer(server)
        running.append(live)
        live.start()
        return live

    yield factory
    for live in running:
        live.stop()


def wait_until(predicate, timeout_s=20.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False
