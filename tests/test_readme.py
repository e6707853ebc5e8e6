"""The README's library example runs as written."""

import re
from pathlib import Path

from helpers import warns_exactly
from zng.construct import PartSplitAdvisory

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # whatever a block writes stays in the temp directory
    with warns_exactly(PartSplitAdvisory, 1):  # m = 10 where capacity 104 allows more
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
