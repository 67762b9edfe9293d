"""Diff the record and report matrices and the ``--help`` texts of this checkout
against a git revision.

    python3 tools/compare_checkouts.py [REV] [--coarse-only]

Extracts ``REV`` (default ``HEAD``) into a temporary directory with
``git archive``, so no worktree or other git metadata is written, and runs
each checkout's own ``tools/record_matrix.py`` and ``tools/report_matrix.py``
(``--coarse-only`` is passed to ``record_matrix.py``) and
``python -m liesegang [COMMAND] --help`` for the program and each of its
subcommands, with the checkout's ``src`` on ``PYTHONPATH`` and ``COLUMNS=80``.
Prints a unified diff of each pair of outputs, ``REV`` first, and exits 1 if
any pair differs or a command fails, else 0.  It also prints the line count of
``src/liesegang`` in both trees, and of each of its modules that differs
between them, for information.  The uncommitted changes of
this checkout are part of the comparison; the revision is taken as committed.
"""
from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The program ("") and its subcommands, whose --help texts are compared.
COMMANDS = ("", "constants", "simulate", "analyze", "diagnose", "toy", "compare", "sweep")


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def output(checkout: Path, argv: list[str], env: dict | None = None) -> list[str] | None:
    """The lines ``argv``, run in ``checkout``, prints, or None if it fails."""
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return proc.stdout.splitlines(keepends=True)


def help_text(checkout: Path, options: list[str]) -> list[str] | None:
    """What ``liesegang OPTIONS`` of ``checkout`` prints, 80 columns wide."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    return output(checkout, [sys.executable, "-m", "liesegang", *options], env)


def differs(old: list[str], new: list[str], name: str, rev: str) -> bool:
    """Print the unified diff of ``rev``'s and this checkout's ``name``; True if any."""
    diff = list(difflib.unified_diff(old, new, f"{rev}/{name}", f"checkout/{name}"))
    sys.stdout.writelines(diff)
    return bool(diff)


def sources(checkout: Path) -> dict[str, bytes]:
    """The package's modules, by file name."""
    return {path.name: path.read_bytes()
            for path in (checkout / "src" / "liesegang").glob("*.py")}


def lines(source: bytes) -> int:
    """Lines of ``source``, as ``wc -l`` counts them."""
    return source.count(b"\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    p.add_argument("--coarse-only", action="store_true",
                   help="pass --coarse-only to record_matrix.py")
    args = p.parse_args(argv)
    scripts = {"record_matrix.py": ["--coarse-only"] if args.coarse_only else [],
               "report_matrix.py": []}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        extract(args.rev, other)
        for script, options in scripts.items():
            old, new = (output(tree, [sys.executable, str(tree / "tools" / script), *options])
                        for tree in (other, ROOT))
            if old is None or new is None:
                failed = True
                continue
            changed = differs(old, new, f"tools/{script}", args.rev)
            print(f"{script}: {len(new)} lines, {'different' if changed else 'identical'}")
            failed |= changed
        helps_differ = False
        for command in COMMANDS:
            options = [*command.split(), "--help"]
            old, new = help_text(other, options), help_text(ROOT, options)
            if old is None or new is None:
                helps_differ = True
                continue
            helps_differ |= differs(old, new, " ".join(["liesegang", *options]), args.rev)
        print(f"help: {len(COMMANDS)} commands, {'different' if helps_differ else 'identical'}")
        failed |= helps_differ
        before, after = sources(other), sources(ROOT)
        print(f"src/liesegang: {sum(map(lines, before.values()))} lines at {args.rev}, "
              f"{sum(map(lines, after.values()))} lines in this checkout")
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                print(f"  {name}: {lines(before.get(name, b''))} -> "
                      f"{lines(after.get(name, b''))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
