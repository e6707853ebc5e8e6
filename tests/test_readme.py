"""The README's library example runs as written."""

import re
from pathlib import Path


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # whatever a block writes stays in the temp directory
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
