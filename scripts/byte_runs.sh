#!/usr/bin/env bash
# The command-line runs whose outputs CI compares byte for byte: one tree pinned to one core
# against the same tree on every core, and a change's tree against its base commit's.
#
# Usage: PYTHONPATH=<tree>/src [taskset -c 0] bash scripts/byte_runs.sh OUT_DIR
#
# Every command runs as `python3 -m andkit.cli`, so the caller's PYTHONPATH picks the tree
# under test. BLAS keeps one thread, since at N = 2500 its thread count moves the batch loss's
# score bits. The datasets are generated into OUT_DIR, and the runs write there:
#   OUT_DIR/         the README walkthrough's train, eval --probe, inspect and curve (N = 400),
#                    and heldout.json: its checkpoint's kNN without leave-one-out and a probe
#                    fitted on blobs.ands, both scored on odd.ands (eval --bank-data)
#   OUT_DIR/replan/  a copy of the walkthrough checkpoint with no plans.andp beside it, whose
#                    inspect re-plans round 2 on the final bank
#   OUT_DIR/wide/    one round at N = 5000 and k = 10: 79 row blocks a pass, and rows that the
#                    top-k bound cuts into 227 groups of 22 columns and a 6-column tail
#   OUT_DIR/odd/     two rounds at N = 2500, a bank whose row count is not a multiple of 8,
#                    where OpenBLAS rounds a product differently by block height
#   OUT_DIR/cold/    two rounds at tau = 0.003, planned on cold rows: about half of each row's
#                    exp(s) lies below 1e-16 of its maximum, too small to move the row sum
#   OUT_DIR/colder/  two rounds at tau = 0.001, where most of a row's softmax mass underflows
#                    to 0, so only a loss taken in log space stays finite
#   OUT_DIR/span/    two rounds at N = 1500 and layers 100-33-7, so that the monitor's and
#                    eval's encodes each take two 750-row spans
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bash scripts/byte_runs.sh OUT_DIR" >&2
  exit 2
fi
out="$1"
mkdir -p "$out"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1

andkit() { python3 -m andkit.cli "$@"; }

andkit generate --classes 4 --per-class 100 --dim 32 --seed 7 --out "$out/blobs.ands"
andkit generate --classes 4 --per-class 1250 --dim 32 --seed 7 --out "$out/wide.ands"
andkit generate --classes 4 --per-class 625 --dim 32 --seed 7 --out "$out/odd.ands"
andkit generate --classes 4 --per-class 375 --dim 100 --seed 7 --out "$out/span.ands"

andkit train --data "$out/blobs.ands" --rounds 4 --epochs 20 --seed 1 --layers 64,16 \
  --lr 3.84 --out "$out/"
andkit eval --checkpoint "$out/checkpoint.andc" --data "$out/blobs.ands" --probe \
  --out "$out/eval.json"
andkit inspect --checkpoint "$out/checkpoint.andc" --data "$out/blobs.ands" --round 2 \
  --out "$out/inspect.csv"
andkit curve --metrics "$out/metrics.jsonl" --out "$out/curve.csv"
andkit eval --checkpoint "$out/checkpoint.andc" --data "$out/odd.ands" --bank-data "$out/blobs.ands" \
  --probe --out "$out/heldout.json"
mkdir -p "$out/replan"
cp "$out/checkpoint.andc" "$out/replan/"
andkit inspect --checkpoint "$out/replan/checkpoint.andc" --data "$out/blobs.ands" --round 2 \
  --out "$out/replan/inspect.csv"

andkit train --data "$out/wide.ands" --rounds 1 --epochs 1 --init-epochs 1 --k 10 --seed 1 \
  --layers 64,16 --out "$out/wide/"
andkit eval --checkpoint "$out/wide/checkpoint.andc" --data "$out/wide.ands" --probe \
  --out "$out/wide/eval.json"
andkit inspect --checkpoint "$out/wide/checkpoint.andc" --data "$out/wide.ands" --round 1 \
  --out "$out/wide/inspect.csv"

andkit train --data "$out/odd.ands" --rounds 2 --epochs 1 --init-epochs 1 --k 10 --seed 1 \
  --layers 64,16 --out "$out/odd/"
andkit eval --checkpoint "$out/odd/checkpoint.andc" --data "$out/odd.ands" --probe \
  --out "$out/odd/eval.json"
andkit inspect --checkpoint "$out/odd/checkpoint.andc" --data "$out/odd.ands" --round 2 \
  --out "$out/odd/inspect.csv"

andkit train --data "$out/blobs.ands" --rounds 2 --epochs 1 --init-epochs 1 --k 5 \
  --tau 0.003 --seed 1 --layers 64,16 --out "$out/cold/"
andkit inspect --checkpoint "$out/cold/checkpoint.andc" --data "$out/blobs.ands" --round 2 \
  --out "$out/cold/inspect.csv"

andkit train --data "$out/blobs.ands" --rounds 2 --epochs 1 --init-epochs 1 --k 5 \
  --tau 0.001 --seed 1 --layers 64,16 --out "$out/colder/"

andkit train --data "$out/span.ands" --rounds 2 --epochs 1 --init-epochs 1 --k 5 --seed 1 \
  --layers 33,7 --out "$out/span/"
andkit eval --checkpoint "$out/span/checkpoint.andc" --data "$out/span.ands" --probe \
  --out "$out/span/eval.json"
