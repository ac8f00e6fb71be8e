"""End-to-end benchmark of the stochvi command line, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload figure_single --seed 0 --seconds 20 --trace 0

``--workload`` is one of the workloads in perfbench/spec.json, or ``all``.
Each repetition runs the workload's CLI calls through ``stochvi.cli.main`` in
one fresh interpreter (perfbench/worker.py), with BLAS pinned to one thread.
Repetitions continue until ``--seconds`` have passed.  The end-to-end times
and rates are stated at a reference processor speed, measured in each
repetition by worker.HostSpeed (see README.md).  Every metric reports the
median over the repetitions, with a tail percentile and the sample count
printed beside it.  With ``--trace 1`` untraced and traced repetitions
alternate, and the per-layer metrics of BENCHMARK.json come from the traced
ones.  Every CLI exit code, every verify check line and every output file is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Hard ceiling on one invocation, below the 180 s a run may take.
DEADLINE_S = 170.0

# Reference values must match within these tolerances.
REF_RTOL = 1e-6
REF_ATOL = 1e-12

# iters_to_tol: first iteration within ITERS_TOL_REL * tail mean + ITERS_TOL_ABS
# of the tail mean (the mean over the last TAIL_FRACTION of the curve).
ITERS_TOL_REL = 0.1
ITERS_TOL_ABS = 1e-6
TAIL_FRACTION = 0.1

CSV_HEADER = "method,iteration,mean_rel_dist,ci_low,ci_high,seeds"

# Imports what a repetition imports (worker.py and tracer.py are found in the
# directory given as the first argument).
WARM_UP = "import sys; sys.path.insert(0, sys.argv[1]); import stochvi.cli, worker, tracer"

CHECK_NAMES = {"expected_cocoercivity": "ec", "monotonicity_class": "class",
               "unbiasedness": "unbiased"}

SCHEMES = ("single", "minibatch", "full")
METHODS = ("sgda", "sco", "shgd", "gda", "co")
SUBCOMMANDS = ("generate", "constants", "run", "verify", "plot")
NUMERICS = ("random_orthogonal", "symmetric_eigenvalues", "singular_values",
            "solve_linear", "make_rng")
EXPERIMENTS = {"profile_s": "profile", "run_experiment_s": "run_experiment",
               "aggregate_s": "aggregate_traces", "emit_csv_s": "emit_csv",
               "emit_svg_s": "emit_svg", "read_csv_s": "read_csv",
               "generate_game_s": "generate_game", "write_game_s": "write_game",
               "read_game_s": "read_game"}
VERIFY = {"ec": "check_ec", "class": "check_monotonicity_class",
          "unbiased": "check_unbiasedness", "envelope": "check_bound_envelope"}


def load_json(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# workload expansion
# ---------------------------------------------------------------------------


def game_flags(params: dict) -> list[str]:
    return [arg for key, value in params.items()
            for arg in (f"--{key.replace('_', '-')}", str(value))]


def expand(argv: list[str], tokens: dict[str, str], flags: list[str]) -> list[str]:
    out = []
    for arg in argv:
        if arg == "{game_flags}":
            out.extend(flags)
            continue
        for key, value in tokens.items():
            arg = arg.replace(key, value)
        out.append(arg)
    return out


def flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def subcommand(argv: list[str]) -> str:
    i = 0
    while argv[i] in ("--seed", "--out-dir", "--threads"):
        i += 2
    return argv[i]


# ---------------------------------------------------------------------------
# output analysis
# ---------------------------------------------------------------------------


def iters_to_tol(curve: list[float]) -> int:
    """First iteration within the tolerance band around the curve's tail mean."""
    tail = curve[-max(1, int(len(curve) * TAIL_FRACTION)):]
    level = sum(tail) / len(tail)
    band = ITERS_TOL_REL * abs(level) + ITERS_TOL_ABS
    return next(k for k, v in enumerate(curve) if abs(v - level) <= band)


def read_aggregate(path: Path) -> dict:
    """Per method: the mean_rel_dist curve and the seed count."""
    methods: dict = {}
    with open(path, newline="") as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ValueError(f"{path.name} is not an aggregate CSV")
        for row in csv.DictReader(fh, fieldnames=CSV_HEADER.split(",")):
            entry = methods.setdefault(row["method"], {"curve": [], "seeds": int(row["seeds"])})
            entry["curve"].append(float(row["mean_rel_dist"]))
    return methods


def analyze(rep_dir: Path, steps: list[list[str]]) -> dict:
    """Everything the checks and metrics need from one repetition's outputs."""
    methods, margins, solver_steps, csv_bytes, iters_of = {}, {}, 0, 0, {}
    for argv in steps:
        if subcommand(argv) == "run":
            for m in flag(argv, "--method").split(","):
                iters_of[m] = int(flag(argv, "--iters"))
    for path in sorted(rep_dir.glob("*.csv")):
        csv_bytes += path.stat().st_size
        for m, entry in read_aggregate(path).items():
            curve = entry["curve"]
            methods[m] = {"final": curve[-1], "iters_to_tol": iters_to_tol(curve),
                          "rows": len(curve), "iters": iters_of.get(m)}
            solver_steps += (len(curve) - 1) * entry["seeds"]
    for argv in steps:
        if subcommand(argv) == "verify" and flag(argv, "--out"):
            for report in load_json(Path(flag(argv, "--out"))):
                name = CHECK_NAMES.get(report["name"], "envelope")
                margins[name] = report["worst_margin"]
                if name == "envelope":
                    solver_steps += (report["points"] - 1) * int(flag(argv, "--envelope-seeds", 30))
    return {"methods": methods, "margins": margins, "steps": solver_steps,
            "csv_bytes": csv_bytes}


def output_files(rep_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(rep_dir.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checks:
    """Operations attempted and failed: CLI calls, checks, output validations."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_calls(checks: Checks, result: dict, label: str) -> None:
    for call in result["calls"]:
        sub = subcommand(call["argv"])
        checks.expect(call["code"] == 0,
                      f"{label}: {sub} exited {call['code']}: {call['stderr'].strip()[-300:]}")
        if sub == "verify":
            lines = call["stdout"].splitlines()
            wanted = flag(call["argv"], "--checks", "ec,class,unbiased").split(",")
            passed = [ln for ln in lines if ln.startswith("[PASS]")]
            for ln in lines:
                if ln.startswith("[FAIL]"):
                    checks.expect(False, f"{label}: {ln}")
            for i, name in enumerate(wanted):
                checks.expect(i < len(passed), f"{label}: verify check {name} did not print [PASS]")


def check_reference(checks: Checks, found: dict, ref: dict | None, label: str) -> None:
    """Compare with values recorded at the seed commit; without a record for
    this seed, check that no run diverged and every value is finite."""
    for m, got in sorted(found["methods"].items()):
        checks.expect(math.isfinite(got["final"]), f"{label}: {m} final value not finite")
        checks.expect(got["rows"] == got["iters"] + 1,
                      f"{label}: {m} ran {got['rows'] - 1} of {got['iters']} iterations")
    for name, margin in sorted(found["margins"].items()):
        checks.expect(math.isfinite(margin), f"{label}: {name} margin not finite")
    if ref is None:
        return
    for m, want in sorted(ref.get("final_mean_rel_dist", {}).items()):
        got = found["methods"].get(m, {}).get("final", math.nan)
        checks.expect(math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL),
                      f"{label}: {m} final mean_rel_dist {got!r} != reference {want!r}")
    for m, want in sorted(ref.get("iters_to_tol", {}).items()):
        got = found["methods"].get(m, {}).get("iters_to_tol")
        checks.expect(got == want, f"{label}: {m} iters_to_tol {got} != reference {want}")
    for name, want in sorted(ref.get("worst_margin", {}).items()):
        got = found["margins"].get(name, math.nan)
        checks.expect(math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL),
                      f"{label}: {name} worst margin {got!r} != reference {want!r}")


def reference_of(found: dict) -> dict:
    """The values check_reference compares, as recorded in reference.json."""
    ref = {}
    if found["methods"]:
        ref["final_mean_rel_dist"] = {m: v["final"] for m, v in sorted(found["methods"].items())}
        ref["iters_to_tol"] = {m: v["iters_to_tol"] for m, v in sorted(found["methods"].items())}
    if found["margins"]:
        ref["worst_margin"] = dict(sorted(found["margins"].items()))
    return ref


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(result: dict, found: dict) -> dict[str, float]:
    spans, counters = result["spans"], result["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_call_us(name, key="s"):
        calls = span(name, "calls")
        return span(name, key) / calls * 1e6 if calls else 0.0

    out = {"cli.import_s": result["setup_s"], "cli.import_scipy_s": result["import_scipy_s"]}
    for sub in SUBCOMMANDS:
        out[f"cli.main_s.{sub}"] = span(f"cli.main[{sub}]", "s")
    for metric, fn in EXPERIMENTS.items():
        out[f"experiments.{metric}"] = span(f"experiments.{fn}", "s")
    out["experiments.csv_bytes"] = found["csv_bytes"]

    steps = 0
    for m in METHODS:
        step = f"solvers.solver_step[{m}]"
        n_steps = span(step, "calls")
        steps += n_steps
        out[f"solvers.run_calls.{m}"] = span(f"solvers.run[{m}]", "calls")
        out[f"solvers.us_per_step.{m}"] = (
            span(f"solvers.run[{m}]", "s") / n_steps * 1e6 if n_steps else 0.0)
        out[f"solvers.solver_step_us.{m}"] = per_call_us(step, "self_s")
        out[f"solvers.iters_to_tol.{m}"] = found["methods"].get(m, {}).get("iters_to_tol", 0)
    out["solvers.steps"] = steps
    out["solvers.diverged_runs"] = counters["runs_diverged"]
    requested = counters["steps_requested"]
    out["solvers.steps_completed_ratio"] = counters["steps_done"] / requested if requested else 0.0

    for s in SCHEMES:
        out[f"sampling.draw_calls.{s}"] = span(f"sampling.draw[{s}]", "calls")
        out[f"sampling.draw_us.{s}"] = per_call_us(f"sampling.draw[{s}]")
    out["sampling.enumerate_support_s"] = span("sampling.enumerate_support", "s")
    out["sampling.support_size"] = counters["support_size"]

    out["operators.component_value_calls"] = span("operators.component_value", "calls")
    out["operators.component_jacobian_calls"] = span("operators.component_jacobian", "calls")
    in_step = (span("operators.component_value", "in_step")
               + span("operators.component_jacobian", "in_step"))
    out["operators.evals_per_step"] = in_step / steps if steps else 0.0
    out["operators.mean_value_calls"] = span("operators.mean_value", "calls")
    out["operators.mean_value_us"] = per_call_us("operators.mean_value")

    for fn in ("game_constants", "ec_constants", "hamiltonian_constants"):
        out[f"constants.{fn}_s"] = span(f"constants.{fn}", "s")
    out["constants.matrix_cocoercivity_calls"] = span("constants.matrix_cocoercivity", "calls")
    out["constants.theoretical_bound_calls"] = span("constants.theoretical_bound", "calls")

    for fn in NUMERICS:
        out[f"numerics.calls.{fn}"] = span(f"numerics.{fn}", "calls")
        out[f"numerics.s.{fn}"] = span(f"numerics.{fn}", "s")

    for check, fn in VERIFY.items():
        out[f"verify.check_s.{check}"] = span(f"verify.{fn}", "s")
        out[f"verify.worst_margin.{check}"] = found["margins"].get(check, 0.0)
    out["verify.unbiased_pair_terms"] = counters["unbiased_pair_terms"]
    return out


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float], better: str = "lower"):
    """Highest whole percentile, on the worse side, with at least ten samples
    beyond it; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values, reverse=better == "higher")
    return p, ordered[math.ceil(p / 100 * n) - 1]


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env(pycache: Path) -> dict:
    """One BLAS thread, and all bytecode read from and written to ``pycache``
    (never the checkout's or site-packages' own __pycache__ directories), so
    that every timed import does the same work whatever caches the checkout
    holds and nothing is written outside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class Runner:
    """Runs repetitions of one workload for one seed and checks them."""

    def __init__(self, name: str, spec: dict, seed: int, deadline: float):
        self.name, self.spec, self.seed, self.deadline = name, spec, seed, deadline
        self.dir = WORK / name
        self.env = child_env(self.dir / "pycache")
        self.checks = Checks()
        self.reference_files: dict[str, bytes] | None = None
        self.found: dict | None = None
        self.game = self.dir / "game.json"

    def _subprocess(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            return subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            return subprocess.CompletedProcess(argv, -9, exc.stdout or "", "timed out")

    def setup(self) -> bool:
        """Empty the workload's directory and bytecode cache, refill the cache
        with one warm-up import of everything a repetition imports (which also
        brings those files into the file cache), and write the game file when
        the workload reads a prepared one."""
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "spans").mkdir(parents=True)
        cmds = [[sys.executable, "-c", WARM_UP, str(HERE)]]
        if self.spec["setup_game"]:
            flags = game_flags(self.spec["game"])
            argv = ["--seed", str(self.seed), "generate", *flags, "--out", str(self.game)]
            cmds.append([sys.executable, "-m", "stochvi.cli", *argv])
        for cmd in cmds:
            proc = self._subprocess(cmd)
            if proc.returncode != 0:
                print(f"setup failed ({' '.join(cmd[1:])}): {proc.stderr.strip()}", file=sys.stderr)
                return False
        return True

    def steps(self, rep_dir: Path) -> list[list[str]]:
        game = self.game if self.spec["setup_game"] else rep_dir / "game.json"
        tokens = {"{seed}": str(self.seed), "{out}": str(rep_dir), "{game}": str(game)}
        flags = game_flags(self.spec["game"])
        return [expand(argv, tokens, flags) for argv in self.spec["steps"]]

    def repetition(self, rep: int, trace: bool, ref: dict | None) -> dict | None:
        rep_dir = self.dir / f"rep{rep}"
        rep_dir.mkdir()
        steps = self.steps(rep_dir)
        job = {"rep": rep, "trace": trace, "steps": steps,
               "subcommands": [subcommand(argv) for argv in steps],
               "result_path": str(self.dir / f"result{rep}.json"),
               "spans_path": str(self.dir / "spans" / f"rep{rep}.npz")}
        job_path = self.dir / f"job{rep}.json"
        job_path.write_text(json.dumps(job))
        label = f"{self.name} seed {self.seed} rep {rep}{' traced' if trace else ''}"
        proc = self._subprocess([sys.executable, str(HERE / "worker.py"), str(job_path)])
        if not self.checks.expect(proc.returncode == 0,
                                  f"{label}: worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"):
            return None
        result = load_json(Path(job["result_path"]))
        check_calls(self.checks, result, label)
        files = output_files(rep_dir)
        if self.found is None:
            try:
                found = analyze(rep_dir, steps)
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                self.checks.expect(False, f"{label}: unreadable outputs: {exc!r}")
                return None
            check_reference(self.checks, found, ref, label)
            self.found, self.reference_files = found, files
        else:
            self.checks.expect(files.keys() == self.reference_files.keys(),
                               f"{label}: output files {sorted(files)} differ from the first repetition's")
            for fname, data in files.items():
                self.checks.expect(self.reference_files.get(fname) == data,
                                   f"{label}: {fname} is not byte-identical to the first repetition's")
        result["solver_steps"] = self.found["steps"]
        if trace:
            result["layer"] = layer_metrics(result, self.found)
        return result


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 ref: dict | None, deadline: float):
    """Repeat one workload for ``seconds``; returns (runner, untraced, traced)
    results, or None when set-up failed."""
    runner = Runner(name, spec, seed, deadline)
    if not runner.setup():
        return None
    untraced, traced = [], []
    start = time.monotonic()
    rep = 0
    while True:
        do_trace = trace and rep % 2 == 1
        result = runner.repetition(rep, do_trace, ref)
        rep += 1
        if result is not None:
            (traced if do_trace else untraced).append(result)
        enough = time.monotonic() - start >= seconds and (traced or not trace) and untraced
        if enough or time.monotonic() > deadline - 30.0 or rep >= 1000:
            break
        if result is None and not untraced and not traced:
            break
    return runner, untraced, traced


def end_to_end(untraced: list[dict]) -> dict[str, list[float]]:
    """The end-to-end metrics at the reference speed, and beside them, for
    the summary only, the times as measured and the host slowdown (the
    calibration kernel's mean time over its reference time)."""
    return {
        "setup_s": [r["setup"]["s"] for r in untraced],
        "wall_s": [r["wall"]["s"] for r in untraced],
        "steps_per_s": [r["solver_steps"] / r["wall"]["s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "measured_setup_s": [r["setup"]["measured_s"] for r in untraced],
        "measured_wall_s": [r["wall"]["measured_s"] for r in untraced],
        "host_slowdown": [r["wall"]["measured_s"] / r["wall"]["s"] for r in untraced],
    }


def per_layer(checks: Checks, untraced: list[dict], traced: list[dict], units: dict,
              label: str) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for r in traced:
        for key, value in r["layer"].items():
            samples.setdefault(key, []).append(value)
    for key, values in samples.items():
        if units.get(key) in ("count", "bytes"):
            checks.expect(len(set(values)) == 1, f"{label}: count {key} differs across repetitions: {values}")
    walls = [r["wall_s"] for r in traced]
    samples["trace_overhead"] = ([statistics.median(walls)
                                  / statistics.median(r["wall_s"] for r in untraced)]
                                 if walls else [])
    return samples


def report(label: str, samples: dict[str, list[float]], declared: list[dict]) -> dict:
    """Print each metric's median, tail percentile and sample count, and
    return the medians."""
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        values = samples.get(name, [])
        if not values:
            continue
        median = statistics.median(values)
        line = f"{label} {name}: median {median:.6g} {unit}"
        tail = tail_percentile(values, m["better"])
        if tail:
            line += f", p{tail[0]} {tail[1]:.6g}"
        print(f"{line} (n={len(values)})")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "stochvi" / "cli.py").is_file() or not bench_path.is_file():
        print(f"no stochvi sources under {SRC} or no {bench_path.name}", file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    spec = load_json(HERE / "spec.json")
    names = list(spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    reference = load_json(HERE / "reference.json")["seeds"].get(str(args.seed), {})
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    selected = names if args.workload == "all" else [args.workload]
    share = args.seconds / len(selected)
    env = {"commit": git_commit(), "nproc": os.cpu_count(), "seed": args.seed,
           "src_lines": source_lines()}

    checks = Checks()
    combined = {}
    for name in selected:
        ran = run_workload(name, spec["workloads"][name], args.seed, share, bool(args.trace),
                           reference.get(name), deadline)
        if ran is None:
            return 1
        runner, untraced, traced = ran
        if not untraced:
            print("\n".join(runner.checks.failures), file=sys.stderr)
            return 1
        env.update(untraced[0]["env"])
        label = f"{name}:"
        samples = end_to_end(untraced)
        if args.trace:
            metrics = report(label, per_layer(runner.checks, untraced, traced, layer_units, name),
                             bench["per_layer"])
        else:
            metrics = report(label, samples, bench["end_to_end"])
            print(f"{label} as measured: setup {statistics.median(samples['measured_setup_s']):.6g} s, "
                  f"wall {statistics.median(samples['measured_wall_s']):.6g} s, at "
                  f"{statistics.median(samples['host_slowdown']):.4g} x the reference time")
        c = runner.checks
        print(f"{label} failed_fraction: {c.failed / c.attempted:.6g} ratio "
              f"({c.failed} of {c.attempted} operations failed)")
        for failure in c.failures:
            print(f"{label} FAILED {failure}")
        checks.attempted += c.attempted
        checks.failures += c.failures
        summary = {"workload": name, "env": env, "trace": args.trace, "samples": samples,
                   "metrics": metrics, "attempted": c.attempted, "failed": c.failed}
        (WORK / name / "summary.json").write_text(json.dumps(summary, indent=1))
        combined.update({(f"{name}.{k}" if len(selected) > 1 else k): v
                         for k, v in metrics.items()})
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
