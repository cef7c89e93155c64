#!/usr/bin/env python
"""Gate the newest bench document against the previous one.

``scripts/bench.py`` writes ``BENCH_<n>.json`` at the repo root.  The
gate exits 1 when a metric got worse than its bound:

* each ``<workload>/<metric>`` in both documents' ``end_to_end``, in the
  ``better`` direction and within the ``bound`` ``BENCHMARK.json`` gives;
* the journal's ``appends_per_second`` and ``replays_per_second``,
  judged as microseconds per event within 20%, so a rate that falls
  below 1/1.2 of the previous one fails.

Times and rates are first scaled by the ratio of the two hosts' speed
on a frozen calibration loop: the median ``host.calibration_per_s`` of
a document, or ``journal.calibration_per_second`` before schema 2.
Memory is compared raw.  Per-layer metrics have no bound, so their
changes are printed, never gated.  BENCH_6-10 have no ``end_to_end``:
against them only the journal is checked.  When the newest document's
``src_sha256`` is not the checkout's, the first output line starts with
``STALE:`` (the exit status does not change).  ``--experiments FILE``
also rebuilds FILE's bench-trend table from the schema-2 documents::

    python scripts/bench_compare.py
    python scripts/bench_compare.py --previous BENCH_<n>.json --current new.json
    python scripts/bench_compare.py --experiments EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

TREND_BEGIN = "<!-- bench-trend:begin -->"
TREND_END = "<!-- bench-trend:end -->"

#: Journal rates the gate checks, and their bound.
JOURNAL_RATES = ("appends_per_second", "replays_per_second")
JOURNAL_BOUND = 0.20


def src_sha256(root: Path = ROOT) -> str:
    """SHA-256 over the path and bytes of every ``src/repro/**/*.py``
    (``src/`` also holds an untracked egg-info, which is left out)."""
    digest = hashlib.sha256()
    for path in sorted(root.glob("src/repro/**/*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def bench_documents(root: Path) -> List[Tuple[int, Path]]:
    """Checked-in ``BENCH_<n>.json`` files, oldest first."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def host_rate(document: dict) -> Optional[float]:
    """The host's speed on the frozen calibration loop, per second."""
    rates = [value for name, value in document.get("per_layer", {}).items()
             if name.endswith("/host.calibration_per_s")]
    if rates:
        return statistics.median(rates)
    return document.get("journal", {}).get("calibration_per_second")


def on_previous_host(value: float, unit: str, speed: float) -> float:
    """``value`` as the previous host would have read it; ``speed`` is
    the current host's calibration rate over the previous one's."""
    if unit.endswith("/s"):
        return value / speed
    if unit in ("s", "ms", "us"):
        return value * speed
    return value


def worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a fraction of ``old``
    (negative when it is better)."""
    if better == "higher":
        return (old - new) / old
    return (new - old) / old


def compare(previous: dict, current: dict,
            spec: dict) -> Tuple[List[str], List[str]]:
    """``(report lines, regressions)``; no regressions = the gate passes."""
    lines: List[str] = []
    regressions: List[str] = []
    checked = 0
    old_host, new_host = host_rate(previous), host_rate(current)
    speed = new_host / old_host if old_host and new_host else None
    if speed is not None:
        lines.append(f"host calibration {old_host:.4g} -> {new_host:.4g}/s:"
                     f" times and rates scaled by {speed:.3f}")

    def judge(name, old, new, unit, better, bound):
        nonlocal checked
        checked += 1
        new = on_previous_host(new, unit, speed)
        worse = worsening(old, new, better)
        line = (f"{name:40s} {old:11.5g} -> {new:11.5g} {unit:8s}"
                f" {worse:+7.1%} worse (bound {bound:.0%})")
        if worse > bound:
            regressions.append(line)
        lines.append(("REGRESSION " if worse > bound else "ok ") + line)

    bounded = {entry["name"]: entry for entry in spec["end_to_end"]}
    if "end_to_end" in previous and "end_to_end" in current:
        old_values, new_values = previous["end_to_end"], current["end_to_end"]
        for name in sorted(set(old_values) & set(new_values)):
            entry = bounded[name.split("/", 1)[1]]
            judge(name, old_values[name], new_values[name], entry["unit"],
                  entry["better"], entry["bound"])
    else:
        lines.append("no end_to_end metrics in both documents (BENCH_6-10"
                     " have none): checking the journal only")

    if speed is None:
        lines.append("a document records no host calibration:"
                     " the journal is not checked")
    else:
        old_journal = previous.get("journal", {})
        new_journal = current.get("journal", {})
        for rate in JOURNAL_RATES:
            if old_journal.get(rate) and new_journal.get(rate):
                judge(f"journal/{rate} as us/event", 1e6 / old_journal[rate],
                      1e6 / new_journal[rate], "us", "lower", JOURNAL_BOUND)

    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    old_layers = previous.get("per_layer", {})
    new_layers = current.get("per_layer", {})
    shared = sorted(set(old_layers) & set(new_layers))
    if shared:
        lines.append("per-layer changes (not gated):")
    for name in shared:
        unit = units.get(name.split("/", 1)[1], "")
        old = old_layers[name]
        new = on_previous_host(new_layers[name], unit, speed)
        change = f"{(new - old) / old:+7.1%}" if old else ""
        lines.append(f"  {name:56s} {old:11.5g} -> {new:11.5g} {unit:6s}"
                     f" {change}")
    lines.append(f"{checked} gated metrics checked,"
                 f" {len(regressions)} regressed")
    return lines, regressions


def trend_table(documents: List[Tuple[int, Path]], workloads: List[str]) -> str:
    """Markdown: ``ops_per_s`` per workload and the host calibration,
    one row per schema-2 document."""
    lines = [
        "| Bench | " + " | ".join(workloads) + " | host calibration |",
        "|---" * (len(workloads) + 2) + "|",
    ]
    for number, path in documents:
        document = load(path)
        if "end_to_end" not in document:
            continue
        cells = [f"{document['end_to_end'][f'{w}/ops_per_s']:.4g}"
                 for w in workloads]
        cells.append(f"{host_rate(document) / 1000:.0f}k/s")
        lines.append(f"| PR {number} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def update_experiments(path: Path, table: str) -> None:
    """Replace the block between the trend markers."""
    head, begin, rest = path.read_text().partition(TREND_BEGIN)
    _, end, tail = rest.partition(TREND_END)
    if not (begin and end):
        raise SystemExit(f"{path}: missing {TREND_BEGIN}/{TREND_END} markers")
    path.write_text(
        f"{head}{TREND_BEGIN}\n"
        "End-to-end `ops_per_s` per workload (`bench/run.py --seed 1\n"
        "--trace 0`) and the median host calibration of each document;\n"
        "regenerate with\n"
        "`python scripts/bench_compare.py --experiments EXPERIMENTS.md`:\n\n"
        f"{table}\n{TREND_END}{tail}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", default=None,
        help="bench document to gate (default: newest BENCH_*.json)",
    )
    parser.add_argument(
        "--previous", default=None,
        help="baseline document (default: second-newest BENCH_*.json)",
    )
    parser.add_argument(
        "--experiments", default=None, metavar="FILE",
        help="also rewrite FILE's bench-trend table",
    )
    args = parser.parse_args(argv)

    documents = bench_documents(ROOT)
    if args.current:
        current_path = Path(args.current)
    elif documents:
        current_path = documents[-1][1]
    else:
        print("no BENCH_*.json documents found", file=sys.stderr)
        return 2
    if args.previous:
        previous_path: Optional[Path] = Path(args.previous)
    else:
        older = [path for _, path in documents
                 if path.resolve() != current_path.resolve()]
        previous_path = older[-1] if older else None

    current = load(current_path)
    checkout = src_sha256()
    if current.get("src_sha256") != checkout:
        print(f"STALE: {current_path.name} measured src/repro"
              f" {current.get('src_sha256', 'of unrecorded content')};"
              f" the checkout's hashes to {checkout}")

    spec = load(ROOT / "BENCHMARK.json")
    if args.experiments:
        workloads = [entry["name"] for entry in spec["workloads"]]
        update_experiments(Path(args.experiments),
                           trend_table(documents, workloads))
        print(f"updated {args.experiments}")

    if previous_path is None:
        print(f"{current_path.name}: nothing to compare against "
              f"(first bench document) — gate passes")
        return 0

    lines, regressions = compare(load(previous_path), current, spec)
    print(f"comparing {previous_path.name} -> {current_path.name}")
    for line in lines:
        print(f"  {line}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
