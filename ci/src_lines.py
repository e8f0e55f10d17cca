#!/usr/bin/env python3
"""Line budget of the library sources.

Prints two numbers, one per line, for every ``crates/*/src/**/*.rs``
file under the workspace root:

* ``total``: all lines;
* ``non-test``: the lines above each file's first ``#[cfg(test)]``
  line (the whole file when it has none).

The ROADMAP's line budget is stated in these two numbers, so a change
can report its exact delta by running this before and after.

Usage::

    src_lines.py [--root DIR]

``--root`` defaults to the repository root (the parent of ``ci/``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

TEST_MARKER = "#[cfg(test)]"


def count_file(text: str) -> tuple[int, int]:
    """Returns ``(total, non_test)`` line counts of one source file."""
    lines = text.splitlines()
    non_test = len(lines)
    for index, line in enumerate(lines):
        if line.strip() == TEST_MARKER:
            non_test = index
            break
    return len(lines), non_test


def count_tree(root: Path) -> tuple[int, int]:
    """Sums :func:`count_file` over ``root/crates/*/src/**/*.rs``."""
    total = non_test = 0
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        t, n = count_file(path.read_text(encoding="utf-8"))
        total += t
        non_test += n
    return total, non_test


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = Path(os.path.dirname(os.path.abspath(__file__))).parent
    parser.add_argument("--root", type=Path, default=default_root)
    args = parser.parse_args(argv)
    if not (args.root / "crates").is_dir():
        print(f"error: no crates/ directory under {args.root}", file=sys.stderr)
        return 2
    total, non_test = count_tree(args.root)
    print(f"total {total}")
    print(f"non-test {non_test}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
