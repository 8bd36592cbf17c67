#!/usr/bin/env python3
"""Rewrites EXPERIMENTS.md's generated blocks from bench/results/.

Usage: scripts/update_experiments.py

A block is the text between a line `<!-- output: NAME -->` and the next
`<!-- end output -->` line.  It becomes the committed file
bench/results/NAME in a fenced code block.  Run it after regenerating
bench/results/ with scripts/claim_outputs.sh; CI fails when it changes
EXPERIMENTS.md.  Exits 1 when a block names a missing file, or when a
.stdout file under bench/results/ has no block.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
BLOCK = re.compile(
    r"^(<!-- output: (\S+) -->\n).*?^(<!-- end output -->)$", re.M | re.S
)


def main() -> int:
    doc = ROOT / "EXPERIMENTS.md"
    text = doc.read_text(encoding="utf-8")
    cited: set[str] = set()

    def fill(match: re.Match[str]) -> str:
        name = match.group(2)
        path = RESULTS / name
        if not path.is_file():
            raise SystemExit(f"error: EXPERIMENTS.md cites missing {path}")
        cited.add(name)
        body = path.read_text(encoding="utf-8")
        return f"{match.group(1)}```text\n{body}```\n{match.group(3)}"

    new = BLOCK.sub(fill, text)
    uncited = sorted(p.name for p in RESULTS.glob("*.stdout")
                     if p.name not in cited)
    if uncited:
        print("error: no EXPERIMENTS.md block for " + ", ".join(uncited),
              file=sys.stderr)
        return 1
    if new != text:
        doc.write_text(new, encoding="utf-8")
    print(f"{len(cited)} blocks in {doc.name} "
          f"{'rewritten' if new != text else 'unchanged'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
