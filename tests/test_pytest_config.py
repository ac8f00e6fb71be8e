"""The repository's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_other_deprecation_fails():
    warnings.warn("some deprecation", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report imports a module that emits a deprecation
    # warning; under filterwarnings = error that must not end the session,
    # while any other warning still fails the test that raised it.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out
    assert "test_property_fails" in out and "test_other_deprecation_fails" in out
