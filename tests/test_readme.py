"""Every fenced ``python`` block of README.md runs as written, and every
``bilgamma`` line of its ``sh`` blocks parses."""

import argparse
import re
from pathlib import Path

import pytest

from bilgamma.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M)


def _expand(line: str) -> list:
    """The argvs a README command line stands for: one for each choice of
    an alternative in every ``[a | b | c]`` group."""
    group = re.search(r"\[([^\]]*\|[^\]]*)\]", line)
    if group is None:
        return [line.split()]
    return [argv for choice in group[1].split("|")
            for argv in _expand(line[:group.start()] + choice + line[group.end():])]


CLI_ARGVS = [argv[1:] for block in SH_BLOCKS for line in block.splitlines()
             if line.startswith("bilgamma ") for argv in _expand(line)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    # the quick start stopped at bound_d3_bg with KappaUndefinedError
    exec(compile(block, "README.md", "exec"), {})


def test_readme_shows_every_command():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert sorted({argv[0] for argv in CLI_ARGVS}) == sorted(commands.choices)


@pytest.mark.parametrize("argv", CLI_ARGVS,
                         ids=[f"{argv[0]}{i}" for i, argv in enumerate(CLI_ARGVS)])
def test_cli_line_parses(argv):
    # a usage error exits 2 through SystemExit
    build_parser().parse_args(argv)
