"""What the scripts that compare a base revision with the working tree share.

    from base_worktree import ROOT, base_worktree, fail

`base_worktree(rev)` checks REV out with `git worktree` under a fresh
temporary directory and removes both on exit; `fail` reports an error under
the running script's name and exits 2.
"""
import contextlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tool_name():
    return os.path.splitext(os.path.basename(sys.argv[0]))[0]


def fail(message):
    print(f"{tool_name()}: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def base_worktree(rev):
    """Yields (temporary directory, REV's checkout in it, REV's full SHA)."""
    try:
        sha = git("rev-parse", "--verify", rev + "^{commit}")
    except subprocess.CalledProcessError:
        fail(f"unknown revision {rev!r}")
    tmp = tempfile.mkdtemp(prefix=tool_name() + "-")
    source = os.path.join(tmp, "base-src")
    try:
        git("worktree", "add", "--detach", source, sha)
        yield tmp, source, sha
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        source], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
