#!/usr/bin/env bash
# Incremental-evaluation smoke: a cold Figure-2 walk persists its memo
# journal, a warm re-walk over the same journal must serve >= 50% of its
# lookups from the memo, a "restart" (fresh process, same memo dir)
# stays warm, and `--no-incremental` still prints no memo line.  Then
# the same through the server: /metrics exposes the
# incremental.memo.{hits,misses,invalidations} counters after a job,
# and a second job on the same pool process catches the resident memo
# store up instead of replaying the whole journal.
# Run from the repo root: bash scripts/incremental_smoke.sh
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

memo="$workdir/memo"

hit_rate() {
  # "incremental: H memo hits / L lookups (..%), I invalidations" -> H L
  grep '^incremental:' "$1" | sed -E 's/^incremental: ([0-9]+) memo hits \/ ([0-9]+) lookups.*/\1 \2/'
}

echo "== cold walk (journal starts empty) =="
python -m repro explore kernel:fir --memo-dir "$memo" > "$workdir/cold.txt"
grep -q '^incremental:' "$workdir/cold.txt" \
    || { echo "FAIL: no incremental summary line"; exit 1; }
[ -s "$memo/memo.jsonl" ] \
    || { echo "FAIL: cold walk persisted no memo journal"; exit 1; }
echo "OK: cold walk journaled $(wc -l < "$memo/memo.jsonl") memo records"

echo "== warm re-walk (same journal, same process family) =="
python -m repro explore kernel:fir --memo-dir "$memo" > "$workdir/warm.txt"
read -r hits lookups <<< "$(hit_rate "$workdir/warm.txt")"
[ "$lookups" -gt 0 ] || { echo "FAIL: warm walk did no memo lookups"; exit 1; }
if [ $((hits * 2)) -lt "$lookups" ]; then
  echo "FAIL: warm hit rate below 50% ($hits/$lookups)"
  exit 1
fi
echo "OK: warm walk hit $hits/$lookups lookups"

echo "== selections identical across cold and warm =="
cold_sel="$(grep 'selected' "$workdir/cold.txt" | head -1)"
warm_sel="$(grep 'selected' "$workdir/warm.txt" | head -1)"
[ "$cold_sel" = "$warm_sel" ] \
    || { echo "FAIL: selection drifted: '$cold_sel' vs '$warm_sel'"; exit 1; }
echo "OK: $warm_sel"

echo "== restart: fresh interpreter, same memo dir, still warm =="
python -m repro explore kernel:fir --memo-dir "$memo" > "$workdir/restart.txt"
read -r hits lookups <<< "$(hit_rate "$workdir/restart.txt")"
if [ $((hits * 2)) -lt "$lookups" ]; then
  echo "FAIL: post-restart hit rate below 50% ($hits/$lookups)"
  exit 1
fi
restart_sel="$(grep 'selected' "$workdir/restart.txt" | head -1)"
[ "$cold_sel" = "$restart_sel" ] \
    || { echo "FAIL: restart selection drifted"; exit 1; }
echo "OK: restart stayed warm ($hits/$lookups lookups)"

echo "== --no-incremental prints no memo line =="
python -m repro explore kernel:fir --no-incremental > "$workdir/off.txt"
grep -q '^incremental:' "$workdir/off.txt" \
    && { echo "FAIL: --no-incremental still reports memo stats"; exit 1; }
off_sel="$(grep 'selected' "$workdir/off.txt" | head -1)"
[ "$cold_sel" = "$off_sel" ] \
    || { echo "FAIL: incremental changed the selection"; exit 1; }
echo "OK: off-mode selection identical"

echo "== server: memo counters scrapeable via /metrics =="
: > "$workdir/port.txt"
python -m repro serve --state-dir "$workdir/state" \
    --port 0 --port-file "$workdir/port.txt" --jobs 1 \
    > "$workdir/serve.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  [ -s "$workdir/port.txt" ] && break
  kill -0 "$server_pid" 2>/dev/null \
      || { echo "FAIL: server died on boot"; cat "$workdir/serve.log"; exit 1; }
  sleep 0.1
done
SRV="http://127.0.0.1:$(cat "$workdir/port.txt")"

job_id="$(python -m repro submit kernel:fir --server "$SRV" 2>/dev/null | head -1)"
python -m repro result "$job_id" --server "$SRV" --wait \
    --wait-timeout 240 > "$workdir/result.json"
grep -q '"memo"' "$workdir/result.json" \
    || { echo "FAIL: result payload carries no memo stats"; exit 1; }
curl -fsS "$SRV/metrics" > "$workdir/metrics.txt"
for counter in repro_incremental_memo_hits repro_incremental_memo_misses \
               repro_incremental_memo_invalidations; do
  grep -q "^$counter" "$workdir/metrics.txt" \
      || { echo "FAIL: $counter not scrapeable"; exit 1; }
done
[ -d "$workdir/state/memo" ] \
    || { echo "FAIL: server grew no <state-dir>/memo journal"; exit 1; }
echo "OK: memo stats in payload, counters in /metrics, journal on disk"

echo "== server: a second job catches the resident memo up =="
second_id="$(python -m repro submit kernel:jac --server "$SRV" 2>/dev/null | head -1)"
python -m repro result "$second_id" --server "$SRV" --wait \
    --wait-timeout 240 > /dev/null
curl -fsS "$SRV/metrics" > "$workdir/metrics.txt"
catch_ups="$(awk '/^repro_incremental_memo_replays\{mode="catch_up"\}/ {print $2}' \
    "$workdir/metrics.txt")"
awk -v n="${catch_ups:-0}" 'BEGIN { exit !(n >= 1) }' \
    || { echo "FAIL: no catch-up replay (got '${catch_ups}')"; exit 1; }
echo "OK: $catch_ups catch-up replay(s), the pool process stayed resident"

kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: drain failed"; exit 1; }
server_pid=""

echo "PASS: incremental smoke"
