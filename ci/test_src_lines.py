#!/usr/bin/env python3
"""Unit tests for the line-budget counter (``ci/src_lines.py``).

Run with ``python3 ci/test_src_lines.py`` (CI does, next to the bench
gate's own tests).
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from src_lines import count_file, count_tree, main  # noqa: E402


class CountFileTests(unittest.TestCase):
    def test_lines_above_the_first_test_module_are_non_test(self):
        text = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n}\n"
        self.assertEqual(count_file(text), (5, 2))

    def test_file_without_tests_is_all_non_test(self):
        self.assertEqual(count_file("fn a() {}\nfn b() {}\n"), (2, 2))

    def test_only_the_first_marker_counts_and_indentation_is_ignored(self):
        text = "fn a() {}\n    #[cfg(test)]\nmod t {}\n#[cfg(test)]\nmod u {}\n"
        self.assertEqual(count_file(text), (5, 1))

    def test_marker_inside_a_longer_attribute_does_not_count(self):
        text = "#[cfg(all(test, unix))]\nmod t {}\n"
        self.assertEqual(count_file(text), (2, 2))

    def test_empty_file(self):
        self.assertEqual(count_file(""), (0, 0))


class CountTreeTests(unittest.TestCase):
    def write(self, root, rel, text):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def test_sums_nested_sources_of_every_crate_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            self.write(root, "crates/a/src/lib.rs", "a\nb\n#[cfg(test)]\nc\n")
            self.write(root, "crates/b/src/x/y.rs", "a\n")
            # Outside the budget: integration tests, benches, non-Rust files.
            self.write(root, "crates/a/tests/t.rs", "a\nb\nc\n")
            self.write(root, "crates/a/benches/b.rs", "a\n")
            self.write(root, "crates/a/src/notes.md", "a\n")
            self.assertEqual(count_tree(root), (5, 3))

    def test_main_prints_both_numbers(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            self.write(root, "crates/a/src/lib.rs", "a\n#[cfg(test)]\nb\n")
            out = io.StringIO()
            with redirect_stdout(out):
                self.assertEqual(main(["--root", tmp]), 0)
            self.assertEqual(out.getvalue(), "total 3\nnon-test 1\n")

    def test_main_rejects_a_root_without_crates(self):
        with tempfile.TemporaryDirectory() as tmp:
            with redirect_stderr(io.StringIO()):
                self.assertEqual(main(["--root", tmp]), 2)


if __name__ == "__main__":
    unittest.main()
