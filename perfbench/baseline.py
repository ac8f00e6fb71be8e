"""Run the benchmark over several seeds and record medians, quartiles and spreads.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload it makes one untraced run per seed, then one traced run
on the first seed.  For each end-to-end metric it records the per-seed
values, their median and quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the quartile distance as a share of the median.  It also
keeps every repetition's values.  The output stands in for the seed-commit
``BENCH_0``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env: "))[5:])
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range FIRST-LAST")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        repetitions = {}
        correct = True
        for seed in seeds:
            result, env = run_once(name, seed, 0, bench["run_seconds"])
            correct = correct and result["correct"]
            summary = json.loads((ROOT / ".perfbench_work" / name / "summary.json").read_text())
            repetitions[seed] = summary["samples"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)
        e2e = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            e2e[m["name"]] = {"unit": m["unit"], "values": vals,
                              "median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median}
        traced, _ = run_once(name, seeds[0], 1, bench["run_seconds"])
        doc["env"] = env
        doc["workloads"][name] = {
            "correct": correct and traced["correct"],
            "end_to_end": e2e,
            "repetitions": repetitions,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for key, stats in e2e.items():
            print(f"{name} {key}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {stats['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
