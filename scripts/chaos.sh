#!/usr/bin/env bash
# Kill-resume smoke for the crash-safe batch engine: start a journaled
# batch whose last job hangs (fault injection), SIGKILL the process once
# the ledger shows the first jobs done, resume the run directory, and
# check the resumed selections are bit-identical to an uninterrupted
# run while the completed jobs were adopted, not re-executed.
# Run from the repo root: bash scripts/chaos.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

cat > "$workdir/manifest.json" <<'EOF'
{
  "jobs": [
    {"id": "fir", "program": "kernel:fir", "board": "pipelined"},
    {"id": "pat", "program": "kernel:pat", "board": "pipelined"},
    {"id": "slow", "program": "kernel:jac", "board": "pipelined"}
  ]
}
EOF

cat > "$workdir/faults.json" <<'EOF'
{
  "faults": [
    {"site": "worker", "mode": "hang", "seconds": 120.0, "jobs": ["slow"]}
  ]
}
EOF

echo "== journaled batch that will be killed =="
python -m repro batch "$workdir/manifest.json" --jobs 1 \
    --run-dir "$workdir/crashed" \
    --fault-spec "$workdir/faults.json" &
victim=$!

# wait until the ledger records two completed jobs, then kill -9
for _ in $(seq 1 600); do
    done_count=$(grep -cE '"event": *"job_done"' \
        "$workdir/crashed/ledger.jsonl" 2>/dev/null || true)
    [ "${done_count:-0}" -ge 2 ] && break
    if ! kill -0 "$victim" 2>/dev/null; then
        echo "chaos: batch exited before it could be killed" >&2
        exit 1
    fi
    sleep 0.2
done
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
echo "killed batch pid $victim after 2 completed jobs"

echo "== resume the crashed run =="
python -m repro batch --resume "$workdir/crashed" --jobs 1 \
    --json "$workdir/resumed.json"

echo "== uninterrupted reference run =="
python -m repro batch "$workdir/manifest.json" --jobs 1 \
    --run-dir "$workdir/clean" \
    --json "$workdir/clean.json"

python - "$workdir" <<'EOF'
import json, sys
from pathlib import Path

workdir = Path(sys.argv[1])
resumed = {j["id"]: j
           for j in json.loads((workdir / "resumed.json").read_text())["jobs"]}
clean = {j["id"]: j
         for j in json.loads((workdir / "clean.json").read_text())["jobs"]}

# Bit-identical selections despite the crash.
assert set(resumed) == set(clean), (set(resumed), set(clean))
for job_id, expected in clean.items():
    actual = resumed[job_id]
    assert actual["status"] == "ok" == expected["status"], job_id
    for key in ("selected_unroll", "cycles", "space", "points_searched"):
        assert actual[key] == expected[key], (job_id, key)
print("kill-resume: resumed selections identical to the uninterrupted run")

# Completed jobs were adopted, not re-executed: one attempt each.
attempts = {}
for line in (workdir / "crashed" / "ledger.jsonl").read_text().splitlines():
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        continue
    if record.get("event") == "job_attempt":
        attempts[record["job_id"]] = attempts.get(record["job_id"], 0) + 1
assert attempts["fir"] == 1 and attempts["pat"] == 1, attempts
assert attempts["slow"] >= 2, attempts
print(f"ledger: attempts per job {attempts} "
      "(completed jobs never re-ran; the killed one did)")
EOF

echo "chaos: OK"
