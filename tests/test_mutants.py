"""tools/mutants.py: which mutants a line of source gets."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def mutated(source):
    return [mutants.mutate(source, *site) for site in mutants.sites(source, 1, 1)]


def test_a_negated_literal_is_mutated_with_its_sign():
    # reshape(-(1 + 1)) is reshape(-1) to numpy: a mutant no test can kill
    assert mutated("a.reshape(-1)\n") == ["a.reshape(+1)\n", "a.reshape((-1 + 1))\n"]
    assert mutated("return - 2.5\n") == ["return + 2.5\n", "return (-2.5 + 1)\n"]


def test_a_literal_after_a_binary_minus_keeps_its_own_mutant():
    assert mutated("x - 1\n") == ["x + 1\n", "x - (1 + 1)\n"]
    assert mutated("f(x)[0] -1\n") == ["f(x)[(0 + 1)] -1\n", "f(x)[0] +1\n", "f(x)[0] -(1 + 1)\n"]
    assert mutated("2\n") == ["(2 + 1)\n"]
