"""The package surface: exported names and the README example."""

import re
from pathlib import Path

import swsc
from swsc.corpus import generate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in swsc.__all__ if not hasattr(swsc, name)]
    assert missing == []


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    symbols = generate("zipf", sigma=4096, n=2000, seed=5).tolist()
    exec(compile(blocks[0], str(README), "exec"), {"symbols": symbols})
