"""The README's examples print what the README says they print.

The quick-start block's outputs are its `print(...)  # output` comments, up
to a two-space gap or an `==` annotation.  A `$ hirzebruch ...` example is
checked when the README shows its output in full: one with no output lines,
or with `...` among them, is skipped.
"""

import contextlib
import io
import os
import re
import shlex

import pytest

from hirzebruch.cli import CACHE_ENV_VAR, main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(language: str) -> list[list[str]]:
    """The lines of each fenced block of the README opened with ```language."""
    blocks, opened, current = [], None, []
    with open(README, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if opened is None:
                if line.startswith("```"):
                    opened, current = line[3:], []
            elif line == "```":
                if opened == language:
                    blocks.append(current)
                opened = None
            else:
                current.append(line)
    return blocks


def _command_examples() -> list[tuple[str, str]]:
    """(command line, full output) of each shown `$ hirzebruch` example."""
    examples = []
    for block in _blocks(""):
        command, output = None, []
        for line in block + ["$"]:
            if line.startswith("$"):
                if command and output and "..." not in output:
                    examples.append((command, "\n".join(output) + "\n"))
                command, output = line[1:].split("#")[0].strip(), []
            elif line:
                output.append(line)
    return examples


def test_quick_start_prints_its_comments():
    [block] = _blocks("python")
    expected = [
        re.split(r"\s{2,}| == ", line.split("# ", 1)[1])[0]
        for line in block
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(block), {})
    assert out.getvalue().splitlines() == expected


EXAMPLES = _command_examples()


def test_command_examples_are_found():
    commands = [command.split()[1] for command, _ in EXAMPLES]
    assert {"poincare", "fixed-points", "check", "series", "sweep"} <= set(commands)


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_example_prints_its_output(capsys, monkeypatch, command, output):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    program, *argv = shlex.split(command)
    assert program == "hirzebruch"
    assert main(argv) == 0
    assert capsys.readouterr().out == output
