"""The Python examples of README.md's Library section run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_examples_run(monkeypatch):
    # The blocks continue one another, so they share one namespace; paths
    # in them are relative to the repository root.
    monkeypatch.chdir(ROOT)
    blocks = library_blocks()
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
