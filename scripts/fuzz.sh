#!/usr/bin/env bash
# Differential-fuzz smoke: run the seeded fuzz battery (round trip,
# verifier contract, interpreter-equivalence of unroll/peel/tiling and
# of the whole pipeline) and leave crash artifacts behind for upload
# when anything is found.
# Run from the repo root: bash scripts/fuzz.sh [iterations] [seed]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

iterations="${1:-500}"
seed="${2:-0}"
artifact_dir="${FUZZ_ARTIFACT_DIR:-fuzz-artifacts}"

echo "== fuzz: $iterations iterations, seed $seed =="
python -m repro fuzz \
  --iterations "$iterations" \
  --seed "$seed" \
  --artifact-dir "$artifact_dir"

echo "fuzz: clean"
