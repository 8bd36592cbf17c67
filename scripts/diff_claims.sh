#!/usr/bin/env bash
# Checks that a change leaves the paper-claim outputs byte-identical.
#
# Usage: scripts/diff_claims.sh PARENT_BUILD NEW_BUILD
#
# Both arguments are CMake build trees of this repository, say the parent
# commit's and the change's (Release builds run all claims in ~1 s each).
# The claim binaries are the tests labelled `claims` in NEW_BUILD, read
# from `ctest --show-only=json-v1 -L claims`.  Each binary runs from both
# trees, each run in its own empty output directory, which then holds its
# stdout, its stderr, any file it wrote and, on failure, its exit status.
# Exits 1 naming every binary whose output differs, 0 when all are
# identical, 2 on a usage error.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD NEW_BUILD" >&2
  exit 2
fi
parent_build=$(cd "$1" && pwd)
new_build=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# The claim binaries as paths relative to the build tree, one per line.
binaries=$(cd "$new_build" && ctest --show-only=json-v1 -L claims |
  python3 -c '
import json, os, sys
for test in json.load(sys.stdin)["tests"]:
    print(os.path.relpath(test["command"][0], sys.argv[1]))
' "$new_build")
if [[ -z "$binaries" ]]; then
  echo "no tests labelled claims in $new_build" >&2
  exit 2
fi

# Runs build tree $1's binary $2 in the empty directory $3.
run_claim() {
  mkdir -p "$3"
  if [[ ! -x "$1/$2" ]]; then
    echo "missing" > "$3/status"
    return
  fi
  (cd "$3" && "$1/$2" > stdout 2> stderr) || echo "exit $?" > "$3/status"
}

count=0
differ=0
while IFS= read -r binary; do
  name=$(basename "$binary")
  run_claim "$parent_build" "$binary" "$out/parent/$name"
  run_claim "$new_build" "$binary" "$out/new/$name"
  count=$((count + 1))
  if ! diff -r "$out/parent/$name" "$out/new/$name" > /dev/null; then
    echo "differs: $name"
    differ=$((differ + 1))
  fi
done <<< "$binaries"

if [[ $differ -gt 0 ]]; then
  echo "$differ of $count claim outputs differ"
  exit 1
fi
echo "all $count claim outputs are byte-identical"
