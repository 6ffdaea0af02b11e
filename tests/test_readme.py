"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading):
    """The first ```python block after the ``## heading`` line."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example():
    exec(compile(python_block("Library use"), str(README), "exec"), {})
