"""Diff the record and report matrices of this checkout against a git revision.

    python3 tools/compare_checkouts.py [REV] [--coarse-only]

Extracts ``REV`` (default ``HEAD``) into a temporary directory with
``git archive``, so no worktree or other git metadata is written, and runs
each checkout's own ``tools/record_matrix.py`` and ``tools/report_matrix.py``
(``--coarse-only`` is passed to ``record_matrix.py``).  Prints a unified diff
of each pair of outputs, ``REV`` first, and exits 1 if any pair differs or a
script fails, else 0.  The uncommitted changes of this checkout are part of
the comparison; the revision is taken as committed.
"""
from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def output(checkout: Path, script: str, options: list[str]) -> list[str] | None:
    """The lines ``script`` of ``checkout`` prints, or None if it fails."""
    proc = subprocess.run([sys.executable, str(checkout / "tools" / script), *options],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout / 'tools' / script} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return proc.stdout.splitlines(keepends=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    p.add_argument("--coarse-only", action="store_true",
                   help="pass --coarse-only to record_matrix.py")
    args = p.parse_args(argv)
    scripts = {"record_matrix.py": ["--coarse-only"] if args.coarse_only else [],
               "report_matrix.py": []}
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        extract(args.rev, other)
        for script, options in scripts.items():
            old, new = output(other, script, options), output(ROOT, script, options)
            if old is None or new is None:
                differ = True
                continue
            diff = list(difflib.unified_diff(old, new, f"{args.rev}/tools/{script}",
                                             f"checkout/tools/{script}"))
            sys.stdout.writelines(diff)
            print(f"{script}: {len(new)} lines, {'different' if diff else 'identical'}")
            differ |= bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
