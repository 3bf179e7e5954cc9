#!/usr/bin/env bash
# Diffs a fresh bench --json output against its checked-in baseline.
#
#   tools/check_bench_baseline.sh bench/BENCH_core_micro.json fresh.json
#
# Two gates:
#   1. The record-name sets must match exactly — dropping or renaming a
#      workload requires a deliberate baseline update.
#   2. No `speedup/...` record may collapse: each fresh ratio must stay at
#      or above 40% of the baseline ratio (CI machines are noisy; a real
#      complexity regression shows up as an order of magnitude, not 2.5x).
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <baseline.json> <fresh.json>" >&2
  exit 2
fi
base="$1"
fresh="$2"

names() { sed -n 's|.*"name": "\([^"]*\)".*|\1|p' "$1" | sort; }

if ! diff <(names "$base") <(names "$fresh") >/dev/null; then
  echo "bench baseline mismatch: record names differ from $base" >&2
  diff <(names "$base") <(names "$fresh") >&2 || true
  exit 1
fi

rate() { sed -n "s|.*\"name\": \"$2\".*\"events_per_sec\": \([0-9.]*\).*|\1|p" "$1"; }

status=0
while read -r name; do
  b=$(rate "$base" "$name")
  f=$(rate "$fresh" "$name")
  # Name the failing metric in every mode: an unparseable rate must fail
  # loudly (empty awk vars would otherwise compare 0 >= 0 and pass).
  if [ -z "$b" ] || [ -z "$f" ]; then
    echo "FAIL: metric '$name' has no parseable ratio (baseline='${b}' fresh='${f}')" >&2
    status=1
  elif [ "$(awk -v b="$b" -v f="$f" 'BEGIN { print (f >= 0.4 * b) ? 1 : 0 }')" != 1 ]; then
    echo "FAIL: metric '$name' fell below the 40% floor: baseline=${b}x fresh=${f}x (floor $(awk -v b="$b" 'BEGIN { printf "%.3f", 0.4 * b }')x)" >&2
    status=1
  else
    echo "ok: $name baseline=${b}x fresh=${f}x"
  fi
done < <(names "$base" | grep '^speedup/')
exit $status
