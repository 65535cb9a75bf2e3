#!/usr/bin/env python3
"""Unit tests for scripts/base_worktree.py, the helper that exports a base
revision for compare_outputs.py and ab_bench.py.

    python3 scripts/test_base_worktree.py

Checks that the export holds exactly REV's files, that it registers no git
worktree, that its temporary directory is gone afterwards, and that an
unknown revision exits with status 2.
"""
import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from base_worktree import base_worktree, git  # noqa: E402


def exported_files(source):
    files = []
    for dirpath, dirnames, filenames in os.walk(source):
        linked_dirs = [d for d in dirnames
                       if os.path.islink(os.path.join(dirpath, d))]
        for name in filenames + linked_dirs:
            path = os.path.join(dirpath, name)
            files.append(os.path.relpath(path, source).replace(os.sep, "/"))
    return sorted(files)


class BaseWorktreeTest(unittest.TestCase):
    def test_export_holds_exactly_the_revisions_files(self):
        worktrees_before = git("worktree", "list", "--porcelain")
        with base_worktree("HEAD") as (tmp, source, sha):
            self.assertEqual(sha, git("rev-parse", "HEAD"))
            self.assertTrue(source.startswith(tmp))
            self.assertFalse(os.path.exists(os.path.join(source, ".git")))
            expected = sorted(
                git("ls-tree", "-r", "--name-only", sha).splitlines())
            self.assertEqual(exported_files(source), expected)
        self.assertFalse(os.path.exists(tmp))
        self.assertEqual(git("worktree", "list", "--porcelain"),
                         worktrees_before)

    def test_unknown_revision_exits_with_status_2(self):
        stderr = io.StringIO()
        with self.assertRaises(SystemExit) as raised, \
                contextlib.redirect_stderr(stderr):
            with base_worktree("no-such-revision-0123"):
                self.fail("an unknown revision yielded an export")
        self.assertEqual(raised.exception.code, 2)
        self.assertIn("unknown revision", stderr.getvalue())


if __name__ == "__main__":
    unittest.main()
