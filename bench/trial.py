"""Benchmark trials of one workload, run by ``bench/run.py`` in a fresh
process.

The process sets up its workload, prints ``READY`` (the parent times
set-up from spawn to that line), then runs trials for about
``--seconds``; with 0 it only sets up.  A trial replays the workload's
seeded op sequence once.  The last line of output is one JSON object holding every
trial's op latencies and selections.

``--traced`` runs one trial and records its span tree.  In-process
workloads install a :class:`repro.obs.Tracer` and the layer wrappers of
``layers.py`` around the ops; serve-mixed reads the spans the server
writes for its jobs and puts no wrapper into the server.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import layers
import workloads

#: How long one op, server start or server drain may take before the
#: trial gives up on it.
DEADLINE_S = 60.0
POLL_INTERVAL_S = 0.005


def peak_rss_mb(pid: str = "self") -> float:
    """A process's peak resident set size (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _selection(unroll, cycles, space) -> Dict:
    return {"unroll": list(unroll), "cycles": int(cycles), "space": int(space)}


def _failed(record: Dict, error: Exception, t0: float) -> None:
    record.setdefault("ms", (time.perf_counter() - t0) * 1000.0)
    record["error"] = f"{type(error).__name__}: {error}"


class InProcess:
    """walk-cold, rewalk-warm and sweep-exhaustive: ``explore()`` calls in
    this process."""

    def __init__(self, workload: str, ops: List[Dict], work: Path):
        self.workload = workload
        self.ops = ops
        self.work = work

    def setup(self) -> None:
        from repro.dse import ExploreConfig, SearchOptions, explore
        from repro.kernels import kernel_by_name
        from repro.target import wildstar_nonpipelined, wildstar_pipelined
        self.explore = explore
        self.ExploreConfig = ExploreConfig
        self.kernel_by_name = kernel_by_name
        self.boards = {"pipelined": wildstar_pipelined(),
                       "nonpipelined": wildstar_nonpipelined()}
        self.sweep = SearchOptions(strategy="exhaustive")
        # Let lazy imports and first-call set-up finish before timing.
        explore(kernel_by_name("jac").program(), self.boards["nonpipelined"],
                config=ExploreConfig(memo_dir=self.work / "warmup"))
        if self.workload == "rewalk-warm":
            for kernel in workloads.KERNELS:
                for board in workloads.BOARDS:
                    explore(kernel_by_name(kernel).program(),
                            self.boards[board],
                            config=self._config(kernel, board, self.work))

    def _config(self, kernel: str, board: str, memo: Path):
        if self.workload == "sweep-exhaustive":
            return self.ExploreConfig(search=self.sweep)
        return self.ExploreConfig(memo_dir=memo / f"memo-{kernel}-{board}")

    def trial(self, number: int, traced: bool) -> Dict:
        # walk-cold gives each walk a fresh, empty memo directory.
        scratch = self.work / f"trial-{number}"
        if not traced:
            out = self._run(lambda name: contextlib.nullcontext(), scratch)
            shutil.rmtree(scratch, ignore_errors=True)
            return out
        from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
        tracer, registry = Tracer(), MetricsRegistry()
        layers.install()
        with use_tracer(tracer), use_registry(registry):
            out = self._run(tracer.span, scratch)
        count = registry.counter_value
        out["memo_counts"] = {
            domain: (count("incremental.memo.hits", domain=domain),
                     count("incremental.memo.misses", domain=domain))
            for domain in layers.MEMO_DOMAINS
        }
        out["spans"] = tracer.to_dicts()
        return out

    def _run(self, span, scratch: Path) -> Dict:
        records = []
        started = time.perf_counter()
        with span("bench.trial"):
            for index, op in enumerate(self.ops):
                memo = scratch / str(index) if self.workload == "walk-cold" \
                    else self.work
                config = self._config(op["kernel"], op["board"], memo)
                record = {"key": op["key"]}
                with span("bench.op"):
                    t0 = time.perf_counter()
                    try:
                        program = self.kernel_by_name(op["kernel"]).program()
                        result = self.explore(
                            program, self.boards[op["board"]], config=config
                        )
                        record["ms"] = (time.perf_counter() - t0) * 1000.0
                    except Exception as error:  # noqa: BLE001 - a failed op
                        _failed(record, error, t0)
                    else:
                        record["points"] = result.points_searched
                        record["selected"] = _selection(
                            result.selected.unroll, result.selected.cycles,
                            result.selected.space,
                        )
                records.append(record)
        return {"ops": records, "wall_s": time.perf_counter() - started,
                "rss_mb": peak_rss_mb()}

    def close(self) -> None:
        pass


class Served:
    """serve-mixed: one closed-loop client against ``repro serve``, a
    fresh server and state directory per trial."""

    def __init__(self, ops: List[Dict], work: Path):
        self.ops = ops
        self.work = work
        self.proc = None
        self.log = None

    def setup(self) -> None:
        from repro.server import client
        self.client = client
        self._start(self.work / "trial-0")

    def _start(self, scratch: Path) -> None:
        self.state = scratch / "state"
        self.state.mkdir(parents=True)
        port_file = self.state / "port"
        self.log = open(scratch / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(self.state), "--port", "0",
             "--port-file", str(port_file), "--jobs", "0"],
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + DEADLINE_S
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start")
            time.sleep(0.01)
        self.url = f"http://127.0.0.1:{int(port_file.read_text())}"
        self.client.server_health(self.url)

    def _one(self, op: Dict, record: Dict, t0: float) -> None:
        doc = self.client.submit_job(self.url, workloads.submission(op))
        record["submit_ms"] = (time.perf_counter() - t0) * 1000.0
        record["job_id"] = doc["job_id"]
        if doc.get("created") == op["resubmit"]:
            raise RuntimeError(
                f"created={doc.get('created')} for "
                f"{'a resubmission' if op['resubmit'] else 'a new job'}"
            )
        polls = []
        while True:
            p0 = time.perf_counter()
            done, report = self.client.job_report(self.url, doc["job_id"])
            polls.append((time.perf_counter() - p0) * 1000.0)
            if done:
                break
            if time.perf_counter() - t0 > DEADLINE_S:
                raise TimeoutError(f"job {doc['job_id']} did not finish")
            time.sleep(POLL_INTERVAL_S)
        record["ms"] = (time.perf_counter() - t0) * 1000.0
        record["poll_ms"] = polls
        if report.get("status") != "ok":
            raise RuntimeError(f"job report: {report}")
        result = report["result"]
        record["points"] = 0 if op["resubmit"] else result["points_searched"]
        record["selected"] = _selection(
            result["selected_unroll"], result["cycles"], result["space"]
        )

    def trial(self, number: int, traced: bool) -> Dict:
        if self.proc is None:
            self._start(self.work / f"trial-{number}")
        records = []
        started = time.perf_counter()
        for op in self.ops:
            record = {"key": op["key"]}
            t0 = time.perf_counter()
            try:
                self._one(op, record, t0)
            except Exception as error:  # noqa: BLE001 - a failed op
                _failed(record, error, t0)
            records.append(record)
        out = {"ops": records, "wall_s": time.perf_counter() - started,
               "rss_mb": peak_rss_mb(str(self.proc.pid))}
        if traced:
            out["server"] = self._server_view(records)
        out["drain_exit"] = self._drain()
        if traced:
            from repro.obs import read_spans
            out["spans"] = [span.to_dict() for span in
                            read_spans(self.state / "spans.jsonl")]
        shutil.rmtree(self.state, ignore_errors=True)
        return out

    def _server_view(self, records: List[Dict]) -> Dict:
        """Queue wait and run time per new job from its status document,
        and the server's counters from ``/metrics``."""
        waits, runs = [], []
        for record, op in zip(records, self.ops):
            if op["resubmit"] or "job_id" not in record:
                continue
            status = self.client.job_status(self.url, record["job_id"])
            waits.append((status["started_ts"] - status["submitted_ts"])
                         * 1000.0)
            runs.append((status["finished_ts"] - status["started_ts"])
                        * 1000.0)
        return {"queue_wait_ms": waits, "run_ms": runs,
                "counters": parse_prometheus(
                    self.client.server_metrics(self.url))}

    def _drain(self) -> int:
        """Stop the server the way an operator does; its exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -1
        self.proc = None
        self.log.close()
        return code

    def close(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.log.close()


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{'name{labels}': value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run trials for about this long after set-up; "
                             "0 only sets up (default)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.plan(args.workload, args.seed, args.quick)
    if args.workload == "serve-mixed":
        runner = Served(ops, args.work_dir)
    else:
        runner = InProcess(args.workload, ops, args.work_dir)
    trials = []
    try:
        runner.setup()
        print("READY", flush=True)
        started = time.perf_counter()
        while args.seconds > 0 or args.traced:
            trials.append(runner.trial(len(trials), args.traced))
            elapsed = time.perf_counter() - started
            if args.traced or elapsed * (len(trials) + 1) / len(trials) \
                    > args.seconds:
                break
    finally:
        runner.close()
    print(json.dumps({"trials": trials, "wrapped": layers.installed()}),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
