"""The README's "Command line" section stays in step with the CLI parser."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from stochvi.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_line_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    return text[start:text.index("\n## ", start)]


def _examples():
    """argv of every `stochvi ...` line, continuation lines joined."""
    lines = _command_line_section().replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("stochvi ")]


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def _option_strings(parser):
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
    for action in _subparsers(parser):
        for sub in action.choices.values():
            found |= _option_strings(sub)
    return found


def test_readme_flags_exist_in_parser():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _command_line_section()))
    assert "--seed" in named
    assert named - _option_strings(build_parser()) == set()


def test_readme_shows_every_subcommand():
    # keeps the parse test below from passing on an empty or misread list
    parser = build_parser()
    shown = {parser.parse_args(argv).command for argv in _examples()}
    assert shown == set(_subparsers(parser)[0].choices)


@pytest.mark.parametrize(
    "argv", _examples(), ids=[f"example{i}" for i in range(len(_examples()))]
)
def test_readme_example_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example does not parse: stochvi {' '.join(argv)}")
