"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
(about a minute: every workload runs once untraced and once traced).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Not in reference.json, so this seed exercises the reference-free checks.
FRESH_SEED = 1009


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    """One short untraced and one short traced run of every workload."""
    return {trace: parse(bench("--workload", "all", "--seed", "0", "--seconds", "1",
                               "--trace", str(trace)))
            for trace in (0, 1)}


def test_benchmark_json_names_and_spec_agree():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert WORKLOADS == list(SPEC["workloads"])
    mapped = [m for group in SPEC["per_layer"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def test_smoke_runs_every_workload_correctly(smoke):
    for trace in (0, 1):
        lines, result = smoke[trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        for w in WORKLOADS:
            assert any(ln.startswith(f"{w}: failed_fraction: 0 ratio") for ln in lines)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit(smoke, trace, key):
    lines, result = smoke[trace]
    for w in WORKLOADS:
        for m in BENCHMARK[key]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            assert any(ln.startswith(f"{w}: {m['name']}: ") and f" {m['unit']}" in ln
                       and " median " in ln for ln in lines)


def test_end_to_end_metrics_are_positive(smoke):
    _, result = smoke[0]
    for w in WORKLOADS:
        for m in BENCHMARK["end_to_end"]:
            assert result["metrics"][f"{w}.{m['name']}"]["value"] > 0


def test_single_workload_output_has_plain_metric_names():
    lines, result = parse(bench("--workload", "batch_estimators", "--seed", "2",
                                "--seconds", "1", "--trace", "0"))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    env = json.loads(next(ln for ln in lines if ln.startswith("env: "))[5:])
    assert {"commit", "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed",
            "src_lines"} <= set(env)
    assert env["seed"] == 2 and env["blas_threads"] == "1"


def test_fresh_seed_runs_cleanly():
    assert str(FRESH_SEED) not in run.load_json(BENCH_DIR / "reference.json")["seeds"]
    _, result = parse(bench("--workload", "all", "--seed", str(FRESH_SEED), "--seconds", "1",
                            "--trace", "0"))
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_mismatch_counts_as_failure():
    checks = run.Checks()
    found = {"methods": {"sgda": {"final": 1.0, "iters_to_tol": 5, "rows": 11, "iters": 10}},
             "margins": {"ec": 0.25}}
    ref = {"final_mean_rel_dist": {"sgda": 1.0 + 1e-3}, "iters_to_tol": {"sgda": 5},
           "worst_margin": {"ec": 0.25}}
    run.check_reference(checks, found, ref, "t")
    assert checks.failed == 1 and "final mean_rel_dist" in checks.failures[0]
    truncated = {"methods": {"sgda": {"final": 1.0, "iters_to_tol": 5, "rows": 7, "iters": 10}},
                 "margins": {}}
    checks = run.Checks()
    run.check_reference(checks, truncated, None, "t")
    assert checks.failed == 1 and "ran 6 of 10" in checks.failures[0]


def test_iters_to_tol_and_tail_percentile():
    assert run.iters_to_tol([1.0, 0.5, 0.2, 0.11, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]) == 3
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(i) for i in range(20)], "higher") == (50, 10.0)


def test_self_time_excludes_children():
    t = tracer.Tracer(rep=0)
    with t.timed("outer"):
        with t.timed("inner"):
            sum(range(20000))
        with t.timed("inner"):
            sum(range(20000))
    s = t.summary()
    assert s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["s"] - s["inner"]["s"])
    assert s["inner"]["self_s"] == pytest.approx(s["inner"]["s"])


def test_host_speed_scales_by_the_kernel_time_and_leaves_it_out():
    speed = worker.HostSpeed()
    speed.start("python", worker.python_kernel)
    start = time.perf_counter()
    while time.perf_counter() - start < 0.1:
        sum(range(1000))
    section = speed.stop(time.perf_counter() - start)
    assert section["samples"] >= 5
    assert section["measured_s"] < time.perf_counter() - start
    assert section["s"] == pytest.approx(
        section["measured_s"] * worker.REFERENCE_S["python"] / section["kernel_s"])
