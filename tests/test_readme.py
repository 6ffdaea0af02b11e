"""The README's code examples run as written."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

from proficert.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ proficert "


def python_block(heading):
    """The first ```python block after the ``## heading`` line."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def tour_commands():
    """(argv, file stdout goes to or None, output shown or None) for each
    ``$ proficert`` line of the README's ```sh blocks, in order.  A line's
    output is what follows it up to a blank line or the next prompt."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith(PROMPT):
                continue
            argv = shlex.split(line[len(PROMPT):], comments=True)
            save = None
            if ">" in argv:
                argv, (_, save) = argv[:argv.index(">")], argv[argv.index(">"):]
            shown = list(takewhile(lambda s: s and not s.startswith("$ "), lines[i + 1:]))
            yield argv, save, "".join(s + "\n" for s in shown) if shown else None


def test_library_use_example():
    exec(compile(python_block("Library use"), str(README), "exec"), {})


def test_command_line_tour(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = list(tour_commands())
    assert sum(shown is not None for _, _, shown in commands) >= 9
    for argv, save, shown in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if save is not None:
            Path(save).write_text(out)
        if shown is not None:
            assert out == shown, argv
