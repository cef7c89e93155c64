#!/usr/bin/env bash
# Observability smoke: run a seeded two-kernel batch with tracing into a
# run directory, then prove the recorded artifacts alone can answer
# "where did the time and the visits go" — render `repro trace`, assert
# the event streams validate against schema v1, and assert the report
# carries all three sections. Run from the repo root: bash scripts/obs_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

cat > "$workdir/manifest.json" <<'EOF'
{
  "defaults": {"timeout_s": 300},
  "jobs": [
    {"id": "fir", "program": "kernel:fir", "board": "pipelined"},
    {"id": "mm", "program": "kernel:mm", "board": "pipelined"}
  ]
}
EOF

echo "== traced batch (--run-dir) =="
python -m repro batch "$workdir/manifest.json" --jobs 2 \
    --run-dir "$workdir/run"

for artifact in trace.jsonl ledger.jsonl spans.jsonl metrics.json; do
  test -s "$workdir/run/$artifact" \
      || { echo "FAIL: missing or empty $artifact"; exit 1; }
done
echo "OK: run directory has trace.jsonl ledger.jsonl spans.jsonl metrics.json"

echo "== repro trace --validate (schema v1 audit, no re-execution) =="
python -m repro trace "$workdir/run" --validate \
    --metrics-json "$workdir/metrics-export.json" | tee "$workdir/report.txt"

grep -q "all events and spans conform to schema v1" "$workdir/report.txt" \
    || { echo "FAIL: validation line missing"; exit 1; }
for section in "per-stage time breakdown" "per-point visit timeline" \
               "fraction searched"; do
  grep -q "$section" "$workdir/report.txt" \
      || { echo "FAIL: report section missing: $section"; exit 1; }
done
grep -q "pipeline.unroll" "$workdir/report.txt" \
    || { echo "FAIL: no pipeline stage spans in breakdown"; exit 1; }
grep -qE "of [0-9]+ points" "$workdir/report.txt" \
    || { echo "FAIL: no fraction-searched lines"; exit 1; }

python - "$workdir" <<'EOF'
import json, sys
from pathlib import Path

workdir = Path(sys.argv[1])
exported = json.loads((workdir / "metrics-export.json").read_text())
assert exported["counters"].get("incremental.memo.misses", 0) > 0, \
    "merged worker metrics missing incremental.memo.misses"
assert exported["histograms"]["dse.point_seconds"]["count"] > 0, \
    "merged worker metrics missing point latency histogram"

from repro.obs import events
loaded = events.read_events(workdir / "run" / "trace.jsonl", strict=True)
assert loaded, "telemetry stream decoded to nothing"
for event in loaded:
    assert events.from_record(event.to_record(), strict=True) == event
print(f"OK: {len(loaded)} events round-trip strictly; "
      f"merged metrics carry worker counters")
EOF

echo "PASS: observability smoke"
