"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text()
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", body, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one python block under {section!r}"
    return blocks[0]


def test_library_quick_start_runs():
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(_python_block("Library quick start"), str(README), "exec"), namespace)
    assert namespace["samples"].shape == (10_000, 2)
    assert namespace["y"].shape == namespace["c"].shape == (10_000, 1)
    assert namespace["report"].passed
