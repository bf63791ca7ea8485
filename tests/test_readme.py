"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    # the quick start stopped at bound_d3_bg with KappaUndefinedError
    exec(compile(block, "README.md", "exec"), {})
