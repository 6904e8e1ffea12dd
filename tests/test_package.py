"""The package surface: exported names and the README example."""

import re
from pathlib import Path

import cumulants

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in cumulants.__all__ if not hasattr(cumulants, name)]
    assert missing == []
    assert len(set(cumulants.__all__)) == len(cumulants.__all__)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
