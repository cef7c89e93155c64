#!/usr/bin/env python3
"""Benchmark the exploration system end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py --workload walk-cold --seed 1 --seconds 25 --trace 0

Five fresh processes (``bench/trial.py``) each set up the workload
once; three of them, or two for the sweep, share the measuring time,
repeating trials, each trial a fixed seeded op sequence, against the
public API: ``repro.dse.explore``, ``python -m repro serve`` and
``repro.server.client``.  Every selection is checked against
``bench/golden.json``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the time in one untraced process, then runs
one traced trial in another and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` every workload runs
and the metric names carry a ``<workload>/`` prefix.

``--write-golden`` recomputes ``bench/golden.json`` on the from-scratch
(``incremental=False``) reference path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

#: Trial processes of an untraced run; each one's set-up is timed, and
#: ``setup_s`` is their median.
PROCESSES = 5
#: How many of them, the first ones, share the measuring time; the rest
#: only set up.  A sweep trial takes about 11 s, so two fit 25 s.
MEASURING = dict.fromkeys(workloads.WORKLOADS, 3) | {"sweep-exhaustive": 2}
#: Trial processes still running this long after the run started are
#: killed and their ops fail.
RUN_LIMIT_S = 170.0
#: A trial process given this little time runs exactly one trial:
#: every process under ``--quick``, and any that finds the time spent.
ONE_TRIAL_SECONDS = 1e-3

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "points_per_s": "points/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: serve-mixed's client- and server-side layer metrics.
SERVER_UNITS = {
    "server.submit_ms_p50": "ms",
    "server.poll_ms_p50": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.run_ms_p50": "ms",
    "server.dedup_ratio": "ratio",
}

#: The fold of a traced trial must account for its wall time this well.
FOLD_TOLERANCE = 0.05


def per_layer_units() -> Dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in layers.SELF_TIME_LAYERS}
    units.update({f"{layer}.calls": "count"
                  for layer in layers.COUNTED_LAYERS})
    units["dse.point.max_s"] = "s"
    units.update({f"incremental.hit_ratio.{domain}": "ratio"
                  for domain in layers.MEMO_DOMAINS})
    units.update(SERVER_UNITS)
    units.update({
        "obs.traced_wall_s": "s",
        "obs.trace_overhead_ratio": "ratio",
        "host.calibration_per_s": "1/s",
    })
    return units


# -- host calibration ----------------------------------------------------------

_CALIBRATION_LINE = json.dumps(
    {"event": "job_started", "schema_version": 1, "job_id": "job-000000",
     "attempt": 1, "ts": 0.0, "crc32": 1234567890},
    sort_keys=True,
)


def calibrate(iterations: int = 50000) -> float:
    """Iterations per second of a frozen stdlib loop (JSON decode and a
    CRC, the shape of journal replay).  Its code never changes, so it
    measures the host, not the program."""
    payload = _CALIBRATION_LINE.encode()
    start = time.perf_counter()
    for _ in range(iterations):
        json.loads(_CALIBRATION_LINE)
        zlib.crc32(payload)
    return iterations / (time.perf_counter() - start)


# -- trials ----------------------------------------------------------------------

def run_process(workload: str, seed: int, work: Path, seconds: float,
                quick: bool, traced: bool, timeout_s: float) -> Dict:
    """Spawn one trial process; returns its trials plus ``setup_s``, or
    ``{"error": ...}`` when the process failed."""
    command = [sys.executable, str(BENCH / "trial.py"), workload,
               "--seed", str(seed), "--work-dir", str(work),
               "--seconds", str(seconds)]
    if quick:
        command.append("--quick")
    if traced:
        command.append("--traced")
    # One hash seed for every process keeps set iteration order, and with
    # it the work a trial does, the same from process to process.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    work.mkdir(parents=True)
    with open(work / "trial.err", "w+") as errors:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=errors, text=True, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
            watchdog.cancel()
        errors.seek(0)
        tail = errors.read()[-2000:]
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        return {"error": f"trial process exited {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def check_process(result: Dict, ops: List[Dict], golden: Dict,
                  wrappers: int) -> Tuple[int, List[str]]:
    """``(ops attempted, failures)`` of one trial process: failed ops,
    selections that differ from the golden file, and broken invariants."""
    if "error" in result:
        return len(ops), [result["error"]] * len(ops)
    problems = []
    if result["wrapped"] != wrappers:
        problems.append(f"{result['wrapped']} layer wrappers installed, "
                        f"expected {wrappers}")
    for trial in result["trials"]:
        for record in trial["ops"]:
            if "error" in record:
                problems.append(f"{record['key']}: {record['error']}")
            elif record["selected"] != golden.get(record["key"]):
                problems.append(
                    f"{record['key']}: selected {record['selected']}, "
                    f"golden {golden.get(record['key'])}")
        if [r["key"] for r in trial["ops"]] != [op["key"] for op in ops]:
            problems.append("ops ran out of the seeded order")
        if trial.get("drain_exit", 0) != 0:
            problems.append(f"server drain exited {trial['drain_exit']}")
    return len(ops) * len(result["trials"]), problems


def quantile(values: List[float], fraction: float) -> float:
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(processes: List[Dict]) -> Dict[str, float]:
    """Rates and latencies from each op's fastest time over all trials;
    set-up time and peak memory are medians over processes.

    Every trial replays the same ops, and load from other tenants of a
    shared machine only ever slows an op down, in bursts of seconds, so
    an op's fastest time is its cost on a quiet machine.  Across runs
    this is several times steadier than the median trial.
    """
    trials = [trial for process in processes for trial in process["trials"]]
    best_ms = [min(trial["ops"][index]["ms"] for trial in trials)
               for index in range(len(trials[0]["ops"]))]
    seconds = sum(best_ms) / 1000.0
    points = sum(record.get("points", 0) for record in trials[0]["ops"])
    return {
        "ops_per_s": len(best_ms) / seconds,
        "points_per_s": points / seconds,
        "op_p50_ms": quantile(best_ms, 0.5),
        "op_p90_ms": quantile(best_ms, 0.9),
        "setup_s": statistics.median(p["setup_s"] for p in processes),
        # After one trial: a process's peak only grows with more trials.
        "peak_rss_mb": statistics.median(
            p["trials"][0]["rss_mb"] for p in processes if p["trials"]),
    }


def per_layer(traced: Dict, untraced: List[Dict],
              calibrations: List[float]) -> Dict[str, float]:
    spans = traced["spans"]
    folded = layers.fold(spans)
    wall = traced["wall_s"]
    server = traced.get("server")
    if server is not None:
        # The server's job spans ran while this client waited; what no
        # job span covers (HTTP, journal, polling) is the client's own.
        folded.setdefault(layers.OTHER, {"self_s": 0.0, "calls": 0,
                                         "max_s": 0.0})
        folded[layers.OTHER]["self_s"] += wall - layers.root_seconds(spans)
        counters = server["counters"]
        memo_counts = {
            domain: tuple(counters.get(
                f'repro_incremental_memo_{kind}{{domain="{domain}"}}', 0.0)
                for kind in ("hits", "misses"))
            for domain in layers.MEMO_DOMAINS
        }
    else:
        memo_counts = {domain: tuple(pair) for domain, pair
                       in traced["memo_counts"].items()}
    metrics = layers.layer_metrics(folded, memo_counts)
    metrics.update(server_metrics(traced))
    metrics["obs.traced_wall_s"] = wall
    metrics["obs.trace_overhead_ratio"] = wall / statistics.median(
        trial["wall_s"] for process in untraced
        for trial in process["trials"])
    metrics["host.calibration_per_s"] = statistics.median(calibrations)
    return metrics


def server_metrics(traced: Dict) -> Dict[str, float]:
    """Client-side and status-document latencies of serve-mixed; zero on
    the workloads that run no server."""
    server = traced.get("server")
    if server is None:
        return dict.fromkeys(SERVER_UNITS, 0.0)
    ops = [r for r in traced["ops"] if "error" not in r]
    counters = server["counters"]
    submitted = counters.get("repro_server_jobs_submitted", 0.0)
    deduped = counters.get("repro_server_jobs_deduped", 0.0)
    return {
        "server.submit_ms_p50": quantile([r["submit_ms"] for r in ops], 0.5),
        "server.poll_ms_p50": quantile(
            [p for r in ops for p in r["poll_ms"]], 0.5),
        "server.queue_wait_ms_p50": quantile(server["queue_wait_ms"], 0.5),
        "server.run_ms_p50": quantile(server["run_ms"], 0.5),
        "server.dedup_ratio": layers.hit_ratio(deduped, submitted),
    }


def fold_problems(metrics: Dict[str, float]) -> List[str]:
    total = sum(metrics[f"{layer}.self_s"]
                for layer in layers.SELF_TIME_LAYERS)
    wall = metrics["obs.traced_wall_s"]
    if abs(total - wall) > FOLD_TOLERANCE * wall:
        return [f"layer self times sum to {total:.3f}s, traced wall time "
                f"is {wall:.3f}s"]
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, golden: Dict, work: Path) -> Dict:
    """All trial processes of one workload; returns the result object."""
    ops = workloads.plan(workload, seed, quick)
    started = time.perf_counter()
    count = 1 if (quick or trace) else PROCESSES
    measuring = min(count, MEASURING[workload])
    budget = seconds / 2 if trace else seconds
    processes, calibrations, problems = [], [], []
    attempted = 0

    def spawn(name: str, share: float, traced: bool, wrappers: int) -> Dict:
        nonlocal attempted, problems
        result = run_process(
            workload, seed, work / name, share, quick, traced,
            started + RUN_LIMIT_S - time.perf_counter(),
        )
        tried, failures = check_process(result, ops, golden, wrappers)
        attempted += tried
        problems += failures
        return result

    for number in range(count):
        # A measuring process gets an even share of what is left, and
        # runs at least one trial even when the time is spent, so every
        # op has a time from each measuring process in every run.
        left = budget - (time.perf_counter() - started)
        if number >= measuring:
            share = 0.0
        elif quick:
            share = ONE_TRIAL_SECONDS
        else:
            share = max(ONE_TRIAL_SECONDS, left / (measuring - number))
        calibrations.append(calibrate())
        processes.append(spawn(f"process-{number}", share, False, 0))
    good = [p for p in processes if "error" not in p]
    metrics = end_to_end(good) if any(p["trials"] for p in good) else {}
    if trace and good:
        # The server process never gets wrappers.
        wrappers = 0 if workload == "serve-mixed" else len(layers.REGISTRY)
        traced = spawn("traced", 0.0, True, wrappers)
        metrics = {}
        if "error" not in traced:
            metrics = per_layer(traced["trials"][0], good, calibrations)
            problems += fold_problems(metrics)
    units = per_layer_units() if trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "problems": problems,
        "trials": sum(len(p["trials"]) for p in good),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


# -- golden selections ---------------------------------------------------------

#: Selections published with the repository's verification recipe.
KNOWN_SELECTIONS = {
    workloads.walk_key("fir", "pipelined"):
        {"unroll": [8, 8], "cycles": 527, "space": 9653},
    workloads.walk_key("jac", "nonpipelined"):
        {"unroll": [4, 1], "cycles": 1776, "space": 631},
}


def golden_text(golden: Dict[str, Dict]) -> str:
    """The golden file's text: one selection per line, sorted by key."""
    lines = [f"  {json.dumps(key)}: {json.dumps(golden[key])}"
             for key in sorted(golden)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_golden() -> None:
    """Recompute every golden selection on the from-scratch path."""
    sys.path.insert(0, str(SRC))
    from repro.dse import ExploreConfig, SearchOptions, explore
    from repro.kernels import kernel_by_name
    from repro.target import wildstar_nonpipelined, wildstar_pipelined
    from repro.transform import PipelineOptions
    boards = {"pipelined": wildstar_pipelined(),
              "nonpipelined": wildstar_nonpipelined()}

    def select(kernel, board, **config):
        result = explore(kernel_by_name(kernel).program(), boards[board],
                         config=ExploreConfig(incremental=False, **config))
        selected = result.selected
        return {"unroll": list(selected.unroll), "cycles": selected.cycles,
                "space": selected.space}

    golden = {}
    for key in workloads.golden_keys():
        kind, kernel, board, *rest = key.split("/")
        if kind == "walk":
            golden[key] = select(kernel, board)
        elif kind == "sweep":
            golden[key] = select(
                kernel, board, search=SearchOptions(strategy="exhaustive"))
        else:
            variant, tolerance = rest
            golden[key] = select(
                kernel, board,
                search=SearchOptions(balance_tolerance=float(tolerance)),
                pipeline=PipelineOptions(
                    **workloads.PIPELINE_VARIANTS[variant]),
            )
    for key, expected in KNOWN_SELECTIONS.items():
        if golden[key] != expected:
            raise SystemExit(f"golden {key} is {golden[key]}, the known "
                             f"selection is {expected}")
    GOLDEN.write_text(golden_text(golden))
    print(f"wrote {len(golden)} selections to {GOLDEN}")


# -- command line ----------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one short trial per workload")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    golden = json.loads(GOLDEN.read_text())

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.quick,
                golden, work / name,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, result in results.items():
        print(f"{name}: {result['trials']} untraced trials, "
              f"{result['attempted']} ops, {result['failed']} failed")
        for problem in result["problems"][:20]:
            print(f"{name}: FAILED {problem}")
        for metric, entry in result["metrics"].items():
            print(f"{name:17s} {metric:36s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
    if args.workload:
        summary = results[args.workload]
        metrics = summary["metrics"]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{name}/{metric}": entry
                   for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
