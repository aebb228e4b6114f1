"""The README's examples run and print what the README says they print."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from quasishuffle.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def documented_outputs(block: str) -> list:
    """(print number, value) for each print the block follows with a
    `# <python literal>` comment, which may run over several lines."""
    lines = block.splitlines()
    out = []
    prints = 0
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        comment = []
        for follow in lines[i + 1 :]:
            if not follow.startswith("# "):
                break
            comment.append(follow[2:])
        if comment:
            out.append((prints, ast.literal_eval(" ".join(comment))))
        prints += 1
    return out


def test_quickstart_prints_the_documented_values():
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    documented = documented_outputs(block)
    assert len(printed) == block.count("\nprint(")
    assert [value for _, value in documented] == [
        {
            "n": 3,
            "probs": {"123": "1/2", "132": "1/8", "213": "1/8", "231": "1/8", "312": "1/8"},
        },
        ["23/24", "1/2", "9/32", "37/256", "149/2048"],
    ]
    for index, value in documented:
        assert ast.literal_eval(printed[index]) == value


def test_mixing_command_prints_the_documented_table(capsys):
    match = re.search(r"`(mixing [^`]+)` prints\n\n```\n(.*?)```", README, re.S)
    command, table = match.groups()
    assert command == "mixing --measure gsr --type two --n 4 --steps 6"
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == table
