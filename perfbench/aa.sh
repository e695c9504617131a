#!/usr/bin/env bash
# A/A check: two alternating sets (A, B) of runs of the SAME build, then
# `perfbench --compare A B`. Every row should read "within bound" and
# final_loss "bitwise equal"; a row that reads "unresolved" means the host
# is too noisy for that metric's bound right now.
#
# usage: perfbench/aa.sh [RUNS_PER_SET (default 5, at least 2)] [SECONDS (default 25)]
# Run i of both sets uses seed 100+i, so the sets see the same inputs.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
seconds=${2:-25}
target=${CARGO_TARGET_DIR:-perfbench/target}
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin=$target/release/perfbench
out=$target/aa
mkdir -p "$out"
: >"$out/A.jsonl"
: >"$out/B.jsonl"

workloads=$("$bin" --list | cut -d' ' -f1)
for i in $(seq 1 "$runs"); do
  # A then B on odd i, B then A on even i, so drift favours neither.
  if ((i % 2)); then order="A B"; else order="B A"; fi
  for set in $order; do
    for w in $workloads; do
      line=$("$bin" --workload "$w" --seed $((100 + i)) --seconds "$seconds" --trace 0 | tail -n 1)
      echo "{\"workload\": \"$w\", \"result\": $line}" >>"$out/$set.jsonl"
      echo "run $i set $set $w: $line" >&2
    done
  done
done
"$bin" --compare "$out/A.jsonl" "$out/B.jsonl"
