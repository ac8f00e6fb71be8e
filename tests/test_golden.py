"""Every CLI output of ``record_golden.CASES`` keeps its recorded bytes.

The cases cover the benchmark's three workloads (game, CSV, SVG,
``verify.json`` and stdout), the constants of three schemes, a d1 = 1 game,
a switching run with its iterate dump, both sweep modes and a diverging run.
About 1.5 s on a 2-vCPU host.
"""

import json

import pytest

from record_golden import GOLDEN, digests, environment


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    key = environment()
    if key not in recorded:
        pytest.fail(f"no golden digests for {key!r}; record them with "
                    f"PYTHONPATH=src python tests/record_golden.py")
    got = digests(tmp_path)
    moved = [name for name in recorded[key] if got.get(name) != recorded[key][name]]
    assert not moved, "outputs whose bytes moved: " + ", ".join(moved)
    assert got.keys() == recorded[key].keys()
