"""Dead-code guard: every module-level function and class of the package,
and every method of those classes bar the dunders, is named somewhere in the
package outside its own definition, and every error type is raised or caught
by some other module of the package.  A name that only tests use, such as a
test oracle, belongs in tests/.  A further guard holds QuadraticGame to the
method names the benchmark's tracer looks up in its class body, another
holds the benchmark's per-layer function names to the package, another
keeps command-line flag names in cli.py, another fails on an import that
its module never uses, another on an ``__all__`` entry the package lacks,
and the last two keep dataclasses out of the package and hold every record
to the fields its class body annotates."""

import ast
import inspect
import re
from pathlib import Path

import stochvi
from stochvi import experiments, verify
from stochvi.operators import QuadraticGame
from stochvi.records import Record

ROOT = Path(__file__).resolve().parents[1]


def _top_level(tree):
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _methods(tree):
    """Methods of the module-level classes, dunders excepted."""
    return [node for cls in _top_level(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _named_nowhere_else(definitions):
    """The package definitions ``definitions(tree)`` picks out whose name no
    text of the package holds outside that definition.  Another ``def`` of
    the same name does not count, so a method and its override cannot keep
    each other alive."""
    texts = {p: p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "src").rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "stochvi").glob("*.py")):
        lines = texts[path].splitlines()
        for node in definitions(ast.parse(texts[path])):
            # The definition itself, docstring and body included, does not count.
            rest = lines[: node.lineno - 1] + lines[node.end_lineno:]
            others = [t for p, t in texts.items() if p != path] + ["\n".join(rest)]
            word = re.compile(rf"(?<!def )\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_top_level_definition_is_named_elsewhere():
    unused = _named_nowhere_else(_top_level)
    assert not unused, "named nowhere outside their definition: " + ", ".join(unused)


def test_every_method_is_named_elsewhere():
    # a method kept only under an old name, say, that nothing calls
    unused = _named_nowhere_else(_methods)
    assert not unused, "methods named nowhere outside their definition: " + ", ".join(unused)


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


def test_only_the_cli_names_command_line_flags():
    # The library is called with arguments, not flags: a message that names
    # a flag is wrong for every caller but the CLI, which owns the flags.
    flag = re.compile(r"--[A-Za-z]")
    named = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "stochvi").glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and flag.search(node.value)]
    assert not named, "string literals outside cli.py that name a flag: " + ", ".join(named)


def test_every_import_is_used():
    # a deletion can leave behind an import that nothing reads; a name
    # __init__.py lists in __all__ counts as read
    unused = []
    for path in sorted((ROOT / "src" / "stochvi").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                                 for t in node.targets] == ["__all__"]:
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, "imported names the module never uses: " + ", ".join(unused)


def test_every_export_is_an_attribute_of_the_package():
    # test_every_import_is_used counts an __all__ entry as read, so a name
    # left listed after its definition is gone would pass there and make
    # ``from stochvi import *`` raise AttributeError
    stale = [name for name in stochvi.__all__ if not hasattr(stochvi, name)]
    assert not stale, "__all__ names the package lacks: " + ", ".join(stale)


def test_traced_game_methods_are_in_the_class_body():
    # perfbench/tracer.py wraps each GAME_METHODS name with the function it
    # finds in QuadraticGame.__dict__, so a method the class only inherits
    # fails every traced run.  The tracer is parsed, not imported.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    names = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["GAME_METHODS"]]
    assert len(names) == 1 and names[0], "tracer.py defines no GAME_METHODS tuple"
    missing = [name for name in names[0] if name not in QuadraticGame.__dict__]
    assert not missing, "GAME_METHODS not in QuadraticGame's class body: " + ", ".join(missing)


def test_traced_layer_functions_exist():
    # perfbench/run.py reads each per-layer metric of its EXPERIMENTS and
    # VERIFY maps from the traced spans of a function it names, so a renamed
    # or deleted function would read 0 without failing.  NUMERICS is left
    # out: it still names random_orthogonal and symmetric_eigenvalues, which
    # numerics no longer has, and those metrics read 0 today.  run.py is
    # parsed, not imported.
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    maps = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in ("EXPERIMENTS", "VERIFY")}
    assert sorted(maps) == ["EXPERIMENTS", "VERIFY"], "run.py lacks EXPERIMENTS or VERIFY"
    missing = [f"{module.__name__}.{name}"
               for key, module in (("EXPERIMENTS", experiments), ("VERIFY", verify))
               for name in maps[key].values()
               if not inspect.isfunction(getattr(module, name, None))]
    assert not missing, "traced functions the package lacks: " + ", ".join(missing)


def _trees():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "stochvi").glob("*.py"))}


def test_no_module_uses_dataclasses():
    # dataclasses compiles each record's methods with exec at import, on
    # every CLI start; records derive from records.Record instead
    used = [f"{path.name}:{node.lineno}"
            for path, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "dataclasses" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            or isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and any(_name(d) == "dataclass" for d in node.decorator_list)]
    assert not used, "dataclasses imported or applied at: " + ", ".join(used)


def _record_fields(trees):
    """{record class name: the names its class body, or a record base's,
    annotates}, for every class of ``trees`` that derives from Record."""
    classes = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    fields = {"Record": []}
    while True:
        found = {name: node for name, node in classes.items() if name not in fields
                 and any(_name(base) in fields for base in node.bases)}
        if not found:
            break
        for name, node in found.items():
            inherited = [f for base in node.bases for f in fields.get(_name(base), [])]
            fields[name] = inherited + [stmt.target.id for stmt in node.body
                                        if isinstance(stmt, ast.AnnAssign)]
    del fields["Record"]
    return classes, fields


def test_records_name_only_annotated_fields():
    # a default whose annotation was dropped is a class constant, not a
    # field, and a keyword that no annotation names is a TypeError at run
    # time only
    trees = _trees()
    classes, fields = _record_fields(trees)
    wrong = [f"{name}.{target.id}" for name in fields for stmt in classes[name].body
             if isinstance(stmt, ast.Assign) for target in stmt.targets
             if isinstance(target, ast.Name)]
    wrong += [f"{path.name}:{node.lineno} {_name(node)}({kw.arg}=...)"
              for path, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _name(node) in fields
              for kw in node.keywords if kw.arg is not None and kw.arg not in fields[_name(node)]]
    modules = [module for module in vars(stochvi).values() if inspect.ismodule(module)]
    # the records with fields, as the source and the imported package see them
    live = {name for module in modules for name, value in vars(module).items()
            if inspect.isclass(value) and issubclass(value, Record) and value._fields
            and value.__module__ == module.__name__}
    assert {name for name, names in fields.items() if names} == live
    runtime = {name: list(getattr(module, name)._fields) for module in modules
               for name in fields if inspect.isclass(getattr(module, name, None))}
    wrong += [f"{name}._fields" for name in fields if runtime.get(name) != fields[name]]
    assert not wrong, "record fields that no class body annotates: " + ", ".join(wrong)
