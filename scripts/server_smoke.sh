#!/usr/bin/env bash
# Exploration-server smoke: boot `repro serve`, submit two jobs (one a
# duplicate — must dedup to the same id), wait for completed reports,
# scrape /metrics for the merged worker counters, drain with SIGTERM,
# then restart on the same --state-dir and prove queued work resumes
# while completed work is adopted (one job_started per finished job).
# Run from the repo root: bash scripts/server_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

boot() {  # boot <logfile> [extra serve args...] -> sets server_pid + SRV
  local log="$1"; shift
  : > "$workdir/port.txt"
  python -m repro serve --state-dir "$workdir/state" \
      --port 0 --port-file "$workdir/port.txt" --jobs 2 "$@" \
      > "$log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$workdir/port.txt" ] && break
    kill -0 "$server_pid" 2>/dev/null \
        || { echo "FAIL: server died on boot"; cat "$log"; exit 1; }
    sleep 0.1
  done
  [ -s "$workdir/port.txt" ] || { echo "FAIL: no port file"; exit 1; }
  SRV="http://127.0.0.1:$(cat "$workdir/port.txt")"
}

drain() {  # SIGTERM and wait for a clean exit 0
  kill -TERM "$server_pid"
  local status=0
  wait "$server_pid" || status=$?
  server_pid=""
  [ "$status" -eq 0 ] || { echo "FAIL: drain exited $status"; exit 1; }
}

echo "== boot =="
boot "$workdir/serve1.log"
python -m repro status --server "$SRV" job-nope 2>/dev/null \
    && { echo "FAIL: unknown job id did not error"; exit 1; } || true
curl -fsS "$SRV/healthz" | grep -q '"status": "ok"' \
    || { echo "FAIL: healthz"; exit 1; }

echo "== submit two jobs + one duplicate =="
fir_id="$(python -m repro submit kernel:fir --server "$SRV" 2>/dev/null | head -1)"
mm_id="$(python -m repro submit kernel:mm --server "$SRV" 2>/dev/null | head -1)"
dup_id="$(python -m repro submit kernel:fir --server "$SRV" 2>/dev/null | head -1)"
[ "$fir_id" = "$dup_id" ] \
    || { echo "FAIL: duplicate POST got $dup_id, not $fir_id"; exit 1; }
[ "$fir_id" != "$mm_id" ] \
    || { echo "FAIL: distinct jobs collided"; exit 1; }
echo "OK: duplicate deduplicated to $fir_id"

echo "== wait for completed reports =="
python -m repro result "$fir_id" --server "$SRV" --wait \
    --wait-timeout 240 > "$workdir/fir.json"
python -m repro result "$mm_id" --server "$SRV" --wait \
    --wait-timeout 240 > "$workdir/mm.json"
grep -q '"status": "ok"' "$workdir/fir.json" \
    || { echo "FAIL: fir report not ok"; exit 1; }
grep -q '"speedup"' "$workdir/mm.json" \
    || { echo "FAIL: mm report carries no speedup"; exit 1; }
echo "OK: both reports completed"

echo "== /metrics scrape =="
curl -fsS "$SRV/metrics" > "$workdir/metrics.txt"
grep -q '^repro_server_jobs_submitted 2$' "$workdir/metrics.txt" \
    || { echo "FAIL: submitted counter"; exit 1; }
grep -q '^repro_server_jobs_deduped 1$' "$workdir/metrics.txt" \
    || { echo "FAIL: dedup counter"; exit 1; }
grep -q '^repro_server_jobs_completed 2$' "$workdir/metrics.txt" \
    || { echo "FAIL: completed counter"; exit 1; }
# merged *worker* counters prove the snapshot→merge path end to end
grep -qE '^repro_incremental_memo_misses\{domain="point"\} [1-9]' \
    "$workdir/metrics.txt" \
    || { echo "FAIL: no merged worker point-memo counters"; exit 1; }
grep -q '# TYPE repro_server_job_seconds histogram' "$workdir/metrics.txt" \
    || { echo "FAIL: job latency histogram missing"; exit 1; }
echo "OK: Prometheus exposition carries server + merged worker series"

echo "== SIGTERM drain =="
drain
grep -q "drained:" "$workdir/serve1.log" \
    || { echo "FAIL: no drain summary"; cat "$workdir/serve1.log"; exit 1; }
echo "OK: clean drain"

echo "== restart-resume on the same state dir =="
# queue a third job into the journal while no server is running? No —
# submissions need a live server; instead prove adoption + fresh work:
boot "$workdir/serve2.log"
grep -q "adopted 2 done" "$workdir/serve2.log" \
    || { echo "FAIL: restart did not adopt completed jobs"; exit 1; }
# completed jobs answer instantly from the journal, no re-execution
python -m repro result "$fir_id" --server "$SRV" > "$workdir/fir2.json"
cmp -s "$workdir/fir.json" "$workdir/fir2.json" \
    || { echo "FAIL: adopted report differs from original"; exit 1; }
jac_id="$(python -m repro submit kernel:jac --server "$SRV" 2>/dev/null | head -1)"
python -m repro result "$jac_id" --server "$SRV" --wait \
    --wait-timeout 240 > "$workdir/jac.json"
grep -q '"status": "ok"' "$workdir/jac.json" \
    || { echo "FAIL: post-restart job not ok"; exit 1; }
drain

# exactly one job_started per completed job across both lives
python - "$workdir" "$fir_id" "$mm_id" "$jac_id" <<'EOF'
import json, sys
from collections import Counter
from pathlib import Path
workdir, fir, mm, jac = sys.argv[1:5]
starts = Counter()
for line in (Path(workdir) / "state" / "jobs.jsonl").read_text().splitlines():
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        continue
    if record.get("event") == "job_started":
        starts[record["job_id"]] += 1
for job_id in (fir, mm, jac):
    assert starts[job_id] == 1, f"{job_id} started {starts[job_id]} times"
print("OK: every completed job executed exactly once across restarts")
EOF

echo "PASS: server smoke"
