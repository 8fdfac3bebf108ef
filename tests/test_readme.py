"""Every Python example in the README runs against the package as it is."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line number, source) of each ```python block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.S | re.M)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_example_runs(line, source):
    # Pad with blank lines so a traceback points at the README line.
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme_example"})
