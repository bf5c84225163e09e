"""The fenced ``python`` blocks of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def python_blocks():
    """The source of each block by its first README line, shifted down to
    that line so tracebacks give README line numbers."""
    text = README.read_text(encoding="utf-8")
    blocks = {}
    for match in FENCE.finditer(text):
        skipped = text.count("\n", 0, match.start(1))
        blocks[skipped + 1] = "\n" * skipped + match.group(1)
    return blocks


BLOCKS = python_blocks()


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("line", sorted(BLOCKS))
def test_python_block_runs(line):
    exec(compile(BLOCKS[line], str(README), "exec"), {"__name__": "__readme__"})
