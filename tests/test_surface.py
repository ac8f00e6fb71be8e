"""Dead-code guard: every module-level function and class of the package is
named somewhere in src/ or tests/ outside its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_top_level_definition_is_named_elsewhere():
    texts = {p: p.read_text(encoding="utf-8")
             for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "stochvi").glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # The definition itself, docstring and body included, does not count.
            rest = lines[: node.lineno - 1] + lines[node.end_lineno:]
            others = [t for p, t in texts.items() if p != path] + ["\n".join(rest)]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "named nowhere outside their definition: " + ", ".join(unused)
