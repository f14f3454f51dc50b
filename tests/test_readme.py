"""README.md stays in step with the code: the Python examples of its
Library section run as written, and its Command line section names
exactly the flags the parser accepts."""

import argparse
import re
from pathlib import Path

from affdyn.cli import build_parser

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


def command_line_flags() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## Resolution datum files\n", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


def parser_flags() -> set[str]:
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def test_command_line_section_names_every_flag():
    # Each flag the README names is accepted, and each accepted flag named.
    assert command_line_flags() == parser_flags()
