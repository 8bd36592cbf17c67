#!/usr/bin/env bash
# Regenerates the paper-claim CSVs committed under bench/results/.
#
# Usage: scripts/claim_csvs.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR is a CMake build tree of this repository; use a Release build
# (all claims run in ~1 s there).  Every test labelled `claims` in it runs
# once, from its own empty working directory, with RRS_BENCH_CSV_DIR set
# to OUT_DIR, so OUT_DIR ends up holding each claim's CSV tables and
# nothing else.  OUT_DIR must be new or empty, so that no stale file
# survives.  The committed files are generated; to refresh them, run
#   rm -rf bench/results && scripts/claim_csvs.sh build bench/results
# Exits 1 naming every claim binary that failed, 2 on a usage error.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out_dir=$(cd "$2" && pwd)
if [[ -n "$(ls -A "$out_dir")" ]]; then
  echo "$out_dir is not empty" >&2
  exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

binaries=$(cd "$build" && ctest --show-only=json-v1 -L claims |
  python3 -c '
import json, sys
for test in json.load(sys.stdin)["tests"]:
    print(test["command"][0])
')
if [[ -z "$binaries" ]]; then
  echo "no tests labelled claims in $build" >&2
  exit 2
fi

failed=0
while IFS= read -r binary; do
  name=$(basename "$binary")
  mkdir "$work/$name"
  if ! (cd "$work/$name" && RRS_BENCH_CSV_DIR="$out_dir" "$binary" \
          > stdout 2> stderr); then
    echo "failed: $name (output in its run below)" >&2
    cat "$work/$name/stdout" "$work/$name/stderr" >&2
    failed=$((failed + 1))
  fi
done <<< "$binaries"

if [[ $failed -gt 0 ]]; then
  echo "$failed claim binaries failed" >&2
  exit 1
fi
echo "wrote $(ls "$out_dir" | wc -l) CSVs to $out_dir"
