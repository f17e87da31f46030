#!/usr/bin/env python3
"""Run every ``lrm`` line of the README command block and print what it did.

Each command runs as ``python -m lrm`` on the ``src`` tree of this checkout,
all of them in one fresh temporary directory, so the ``gray --out`` file is
there for the ``validate --file`` after it.  For each command the script
prints the command line, its exit code and its stdout.  The recorded
output lives in ``tests/readme_stdout.txt``, which the test suite compares
byte for byte; regenerate it after a deliberate change:

    python3 scripts/readme_commands.py > tests/readme_stdout.txt
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(readme: Path = ROOT / "README.md") -> list[list[str]]:
    """Arguments of each ``lrm`` line in the README's command-line block."""
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("lrm ")]


def run_commands(commands: list[list[str]]) -> list[tuple[list[str], int, str]]:
    """(arguments, exit code, stdout) of each command, run in one temporary directory."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "lrm", *argv], cwd=tmp, env=env, capture_output=True, text=True
            )
            results.append((argv, done.returncode, done.stdout))
    return results


def main() -> None:
    for argv, code, stdout in run_commands(readme_commands()):
        print("$ " + shlex.join(["lrm", *argv]))
        print(f"exit {code}")
        print(stdout, end="")


if __name__ == "__main__":
    main()
