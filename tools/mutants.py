"""One-token mutation survey of a line range, outside the test suite.

Each mutant changes one token of FILE between lines START and END
(inclusive): it swaps an operator, ``<`` and ``<=``, ``>`` and ``>=``, ``==``
and ``!=``, ``+`` and ``-``, unary signs included, or rewrites a number
literal ``t`` to ``(t + 1)``, so a wrong constant or factor gets a mutant
too.  A negated literal ``-t`` becomes ``(-t + 1)``: ``-(t + 1)`` would turn
``reshape(-1)`` into ``reshape(-2)``, which numpy reads the same way.  Every
mutant runs the given pytest selection in one temporary copy of the
repository, with ``-x``; a mutant is killed when the selection fails or
runs past TIMEOUT_S and survives when it passes.  Whether a survivor is
equivalent (no input can tell it apart) is for the reader to decide: the
survey lists each survivor's line to look at.

    python tools/mutants.py src/stochvi/verify.py 100 140 -- tests/test_verify.py

The selection defaults to the whole suite (``tests``).  The unmutated
selection must pass first.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import keyword
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+"}
# A mutant that makes the selection run this long (a loop that no longer
# ends, say) counts as killed.
TIMEOUT_S = 600.0
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_work")


def replacement(tok) -> str | None:
    """The mutant of one token: its operator swap, ``(t + 1)`` for a number
    literal t, else None."""
    if tok.type == tokenize.NUMBER:
        return f"({tok.string} + 1)"
    return SWAPS.get(tok.string) if tok.type == tokenize.OP else None


def _ends_operand(tok) -> bool:
    """Whether a ``-`` after ``tok`` subtracts rather than negates."""
    return (tok.type in (tokenize.NUMBER, tokenize.STRING)
            or tok.type == tokenize.NAME and not keyword.iskeyword(tok.string)
            or tok.string in (")", "]", "}"))


def sites(source: str, start: int, end: int):
    """(line, column, text, replacement) for each token that has a mutant; a
    number literal after a unary minus on its line is mutated with its sign."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = source.splitlines()
    found = []
    for k, tok in enumerate(tokens):
        if not start <= tok.start[0] <= end or (new := replacement(tok)) is None:
            continue
        sign = tokens[k - 1] if k else tok
        if (tok.type == tokenize.NUMBER and sign.string == "-" and sign.start[0] == tok.start[0]
                and not (k > 1 and _ends_operand(tokens[k - 2]))):
            text = lines[tok.start[0] - 1][sign.start[1]:tok.end[1]]
            found.append((tok.start[0], sign.start[1], text, f"(-{tok.string} + 1)"))
        else:
            found.append((tok.start[0], tok.start[1], tok.string, new))
    return found


def mutate(source: str, line: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def run_tests(repo: Path, selection) -> str:
    """'passed', 'failed' or 'timeout' for the selection in ``repo``."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    try:
        done = subprocess.run(cmd, cwd=repo, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 5:
        raise SystemExit("the selection collects no tests")
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", help="path relative to the repository root")
    parser.add_argument("start", type=int)
    parser.add_argument("end", type=int)
    parser.add_argument("selection", nargs="*", default=["tests"],
                        help="pytest arguments, after --")
    args = parser.parse_args(argv)

    source = (ROOT / args.file).read_text(encoding="utf-8")
    found = sites(source, args.start, args.end)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=IGNORE)
        target = repo / args.file
        if run_tests(repo, args.selection) != "passed":
            raise SystemExit("the unmutated selection does not pass")
        counts = {"killed": 0, "survived": 0}
        for line, col, old, new in found:
            target.write_text(mutate(source, line, col, old, new), encoding="utf-8")
            outcome = run_tests(repo, args.selection)
            verdict = "survived" if outcome == "passed" else "killed"
            counts[verdict] += 1
            print(f"{verdict:8} {args.file}:{line}:{col + 1} {old!r} -> {new!r}"
                  + (" (timeout)" if outcome == "timeout" else ""), flush=True)
    print(f"{len(found)} mutants: {counts['killed']} killed, {counts['survived']} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
