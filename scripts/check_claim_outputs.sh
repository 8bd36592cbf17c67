#!/usr/bin/env bash
# Regenerates every claim output except E15's into a temporary directory
# with claim_outputs.sh and diffs it against the committed bench/results/:
# a change that moves a claim's numbers fails until it commits the
# regenerated files.  tier-1 runs it as the ctest `committed_claim_outputs`
# (label `outputs`).
#
# Usage: scripts/check_claim_outputs.sh BUILD_DIR
set -euo pipefail
if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$repo/scripts/claim_outputs.sh" --claims-only "$1" "$out" > /dev/null
diff -r -x 'e15_certified.*' "$repo/bench/results" "$out"
