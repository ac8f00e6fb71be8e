"""Dead-code guard: every module-level function and class of the package is
named somewhere in the package outside its own definition, and every error
type is raised or caught by some other module of the package.  A name that
only tests use, such as a test oracle, belongs in tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_top_level_definition_is_named_elsewhere():
    texts = {p: p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "src").rglob("*.py"))}
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


def _name(node):
    """The name an expression such as ``ConfigError`` or
    ``errors.NumericalError`` ends in, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raised_or_caught(tree):
    """Names a module raises or catches."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(_name(node.exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(map(_name, types))
    return names


def test_every_error_type_is_raised_or_caught_elsewhere():
    package = ROOT / "src" / "stochvi"
    errors = package / "errors.py"
    used = set()
    for path in sorted(package.glob("*.py")):
        if path != errors:
            used |= _raised_or_caught(ast.parse(path.read_text(encoding="utf-8")))
    defined = [node.name for node in ast.parse(errors.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    dead = [name for name in defined if name not in used]
    assert not dead, "error types no other module raises or catches: " + ", ".join(dead)
