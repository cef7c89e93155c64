#!/usr/bin/env python
"""Write one bench document, ``BENCH_<n>.json``, from ``bench/run.py``.

Times the one path the benchmark's workloads do not, append, replay,
fsck and compaction of a synthetic 10k-event durable journal, then runs
the four workloads untraced (``--trace 0``: the end-to-end metrics that
``BENCHMARK.json`` bounds) and traced (``--trace 1``: the per-layer
metrics, each workload's ``host.calibration_per_s`` among them).  The
journal goes first: right after minutes of workload processes, its
first replays in a process read about 40% slower than a second round
a few seconds later.  ``bench/run.py``
exits 0 even when a run is incorrect, so the driver exits 1, printing
the tail of the run's output, unless its last line says
``"correct": true`` and ``"failed": 0``.  From the repository root::

    python3 scripts/bench.py --output BENCH_<n>.json          # about 3 min
    python3 scripts/bench.py --seconds 1 --output bench-ci.json

The document records the seed, the seconds, the ``src_sha256`` of the
tree it measured, ``end_to_end``/``per_layer`` values by
``<workload>/<metric>`` name, and ``journal``; ``bench_compare.py``
gates it against the previous one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_compare import ROOT, src_sha256

SCHEMA_VERSION = 2
#: The workload seed of every document.
SEED = 1
BENCH_RUN = ROOT / "bench" / "run.py"
#: Records in the synthetic journal.
JOURNAL_EVENTS = 10_000
#: Best-of-N for the journal's read passes (replay and fsck): as many
#: passes as the documents before schema 2 took their best from.
JOURNAL_REPEATS = 9
#: Output lines shown when a run is not correct.
TAIL_LINES = 40


def run_bench(seconds: float, trace: int):
    """Metric values by name from one ``bench/run.py`` run over every
    workload, or ``None`` when the run was not correct."""
    command = [sys.executable, str(BENCH_RUN), "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    print(f"running bench/run.py --seed {SEED} --seconds {seconds}"
          f" --trace {trace} ...", flush=True)
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if (proc.returncode != 0 or result.get("correct") is not True
            or result.get("failed") != 0):
        print("\n".join(lines[-TAIL_LINES:]))
        print(f"bench/run.py --trace {trace} exited {proc.returncode}"
              f" without a correct run", file=sys.stderr)
        return None
    print(f"  {result['attempted']} ops, 0 failed, "
          f"{len(result['metrics'])} metrics")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def best_of(fn, repeats: int = 1):
    """(fastest wall seconds, last result) over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def bench_journal() -> dict:
    """Durable-journal costs on a synthetic journal.  Append and
    compaction write, so they are timed once (best-of-N would measure
    the page cache warming up); replay and fsck are read passes."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.durable.fsck import inspect_journal
    from repro.durable.journal import DurableJournal, scan_journal

    events = JOURNAL_EVENTS
    print(f"benchmarking journal ({events} events) ...", flush=True)
    with tempfile.TemporaryDirectory(prefix="bench-journal-") as name:
        directory = Path(name)
        journal = DurableJournal(directory, "jobs",
                                 max_segment_bytes=1024 * 1024)
        journal.open()

        def append_all():
            for index in range(events):
                journal.append({
                    "event": "job_started", "schema_version": 1,
                    "job_id": f"job-{index:06d}", "attempt": 1,
                    "ts": float(index),
                })

        append_s, _ = best_of(append_all)
        segments = journal.closed_segment_count() + 1

        replay_s, scan = best_of(
            lambda: scan_journal(directory, "jobs"), JOURNAL_REPEATS
        )
        assert scan.total_records == events and not scan.corrupt

        fsck_s, report = best_of(
            lambda: inspect_journal(directory, "jobs"), JOURNAL_REPEATS
        )
        assert report.clean

        compact_s, _ = best_of(lambda: journal.compact({"events": events}))
        journal.close()

    print(f"  append {events / append_s:.0f}/s,"
          f" replay {events / replay_s:.0f}/s,"
          f" fsck {fsck_s:.3f}s, compact {compact_s:.3f}s")
    return {
        "events": events,
        "segments": segments,
        "append_seconds": round(append_s, 6),
        "appends_per_second": round(events / append_s, 1),
        "replay_seconds": round(replay_s, 6),
        "replays_per_second": round(events / replay_s, 1),
        "fsck_inspect_seconds": round(fsck_s, 6),
        "compact_seconds": round(compact_s, 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True,
                        help="where to write the JSON document")
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="measuring time per workload and run (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    document = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "scripts/bench.py",
        "seed": SEED,
        "seconds": args.seconds,
        "src_sha256": src_sha256(),
        "journal": bench_journal(),
    }
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        metrics = run_bench(args.seconds, trace)
        if metrics is None:
            return 1
        document[section] = metrics

    output = Path(args.output)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
