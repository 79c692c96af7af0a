"""The README's command lines and the demos run and exit 0.

The CLI section of README.md holds two shell blocks: independent `bobw`
commands, and a `solve -o` / `python3 -c` / `verify` sequence that writes
files, which runs in a temporary directory.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bobw.cli import main

ROOT = Path(__file__).resolve().parents[1]
PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
ENV = {**os.environ, "PYTHONPATH": PYTHONPATH}


def _cli_blocks() -> list[list[list[str]]]:
    """Each sh block of the README's CLI section as a list of argv lists."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [
        [argv for line in block.replace("\\\n", "").splitlines() if (argv := shlex.split(line, comments=True))]
        for block in blocks
    ]


COMMANDS, SEQUENCE = _cli_blocks()


def _run(argv: list[str], cwd: Path) -> int:
    if argv[0] == "bobw":
        return main(argv[1:])
    assert argv[0] == "python3", argv
    return subprocess.run([sys.executable, *argv[1:]], cwd=cwd, env=ENV, timeout=300).returncode


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_readme_cli_command_exits_zero(argv):
    assert argv[0] == "bobw"
    assert _run(argv, ROOT) == 0


def test_readme_verify_sequence_exits_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in SEQUENCE:
        assert _run(argv, tmp_path) == 0, shlex.join(argv)
    assert (tmp_path / "dist.json").exists()


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=ENV, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
