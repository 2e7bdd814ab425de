"""Every ```python block of README.md runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first code line, code), so a traceback names README lines
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line-{line}" for line, _ in BLOCKS])
def test_python_block_runs(line, code):
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
