#!/usr/bin/env bash
# Writes every claim binary's outputs: the files committed under
# bench/results/.
#
# Usage: scripts/claim_outputs.sh [--claims-only] BUILD_DIR OUT_DIR
#
# BUILD_DIR is a CMake build tree of this repository; the Release and the
# default RelWithDebInfo builds both reproduce the committed bytes.  Every
# claim test in it (the ctest names starting `claim_`) runs once, then
# bench_e15_certified,
# each from an empty working directory with RRS_BENCH_CSV_DIR set to
# OUT_DIR.  A binary's stdout goes to OUT_DIR/<name>.stdout, beside the
# CSVs it writes, where <name> is its file name without `bench_`.  A
# binary that exits nonzero or writes to stderr fails the script.  OUT_DIR
# must be new or empty, so that no stale file survives.  The claims take
# ~1 s in Release and E15's searches ~2.5 min; --claims-only skips E15.
#
# The outputs are checked one way: regenerate them into an empty directory
# and `diff -r` it against bench/results/ (scripts/check_claim_outputs.sh
# does so for all but E15).  To refresh the committed files, run
#   rm -rf bench/results && scripts/claim_outputs.sh build bench/results
#   scripts/update_experiments.py
# Exits 1 naming every binary that failed, 2 on a usage error.
set -euo pipefail

claims_only=0
if [[ ${1-} == --claims-only ]]; then
  claims_only=1
  shift
fi
if [[ $# -ne 2 ]]; then
  echo "usage: $0 [--claims-only] BUILD_DIR OUT_DIR" >&2
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

# By name, not by the `claims` label: ctest's -L takes a regex, which
# would also match labels that merely contain the word.
binaries=$(cd "$build" && ctest --show-only=json-v1 -R '^claim_' |
  python3 -c '
import json, sys
for test in json.load(sys.stdin)["tests"]:
    print(test["command"][0])
')
if [[ -z "$binaries" ]]; then
  echo "no claim_ tests in $build" >&2
  exit 2
fi
if [[ $claims_only -eq 0 ]]; then
  binaries+=$'\n'"$build/bench/bench_e15_certified"
fi

failed=0
while IFS= read -r binary; do
  name=$(basename "$binary")
  name=${name#bench_}
  mkdir "$work/$name"
  status=0
  (cd "$work/$name" && RRS_BENCH_CSV_DIR="$out_dir" "$binary" \
     > "$out_dir/$name.stdout" 2> stderr) || status=$?
  if [[ $status -ne 0 || -s "$work/$name/stderr" ]]; then
    echo "failed: $name (exit $status); its stderr:" >&2
    cat "$work/$name/stderr" >&2
    failed=$((failed + 1))
  fi
done <<< "$binaries"

if [[ $failed -gt 0 ]]; then
  echo "$failed claim binaries failed" >&2
  exit 1
fi
echo "wrote $(ls "$out_dir" | wc -l) files to $out_dir"
