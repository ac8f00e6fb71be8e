"""The README's "Command line" section stays in step with the CLI parser, and
its examples and its "Library example" run as written."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from stochvi.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start)
    return text[start:] if end < 0 else text[start:end]


def _examples():
    """argv of every `stochvi ...` line, continuation lines joined."""
    lines = _section("Command line").replace("\\\n", " ").splitlines()
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
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _section("Command line")))
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


def test_readme_examples_run_in_order(tmp_path, monkeypatch, capsys):
    # each later example reads the files the earlier ones write
    monkeypatch.chdir(tmp_path)
    examples = _examples()
    assert len(examples) == 8
    for argv in examples:
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), f"stochvi {' '.join(argv)}"


def test_readme_library_example_runs(capsys):
    section = _section("Library example")
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    distance, plateau = capsys.readouterr().out.split(" vs plateau ")
    assert 0.0 < float(distance) < float(plateau)
