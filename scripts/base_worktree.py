"""What the scripts that compare a base revision with the working tree share.

    from base_worktree import ROOT, base_worktree, fail

`base_worktree(rev)` exports REV's files with `git archive REV | tar -x`
into a fresh temporary directory and removes it on exit. The export has no
`.git`: nothing is written under the repository's own `.git`, and a killed
run leaves no worktree registered. `fail` reports an error under the
running script's name and exits 2.
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
    """Yields (temporary directory, REV's files exported in it, REV's full
    SHA)."""
    try:
        sha = git("rev-parse", "--verify", rev + "^{commit}")
    except subprocess.CalledProcessError:
        fail(f"unknown revision {rev!r}")
    tmp = tempfile.mkdtemp(prefix=tool_name() + "-")
    source = os.path.join(tmp, "base-src")
    try:
        os.mkdir(source)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        extract = subprocess.run(["tar", "-x", "-C", source],
                                 stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or extract.returncode != 0:
            fail(f"cannot export {rev!r}")
        yield tmp, source, sha
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
