#!/usr/bin/env bash
# Re-records bench/serial_budgets.txt: times each bench it already lists
# serially (SIMTY_JOBS=1), rounds up and applies a floor so CI has headroom
# for runner startup noise. The deterministic benches are pinned by
# bench/table_digests.txt and are not timed.
# Usage: tools/record_bench_budgets.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="$repo_root/bench/serial_budgets.txt"
floor_s=3

[ -d "$repo_root/$build_dir/bench" ] || {
  echo "error: $build_dir/bench not found — build first" >&2
  exit 1
}

{
  sed -n '/^#/p' "$out"
  for name in $(sed -n 's/^\(bench_[^ ]*\) .*/\1/p' "$out"); do
    b="$repo_root/$build_dir/bench/$name"
    [ -x "$b" ] || {
      echo "error: $b not built" >&2
      exit 1
    }
    start=$(date +%s%N)
    SIMTY_JOBS=1 "$b" > /dev/null
    end=$(date +%s%N)
    ms=$(( (end - start) / 1000000 ))
    budget=$(( (ms + 999) / 1000 + 1 ))
    [ "$budget" -lt "$floor_s" ] && budget=$floor_s
    echo "$name $budget"
  done
} > "$out.tmp"
mv "$out.tmp" "$out"
echo "recorded $(grep -c '^bench_' "$out") budgets into $out"
