"""Record the reference output values that perfbench/run.py checks against.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 perfbench/record_reference.py --seeds 0-31

For each seed and workload it runs one untraced repetition and stores the
final per-method mean_rel_dist, iters_to_tol and each verify worst margin in
perfbench/reference.json, with the commit they came from.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = run.load_json(run.HERE / "spec.json")
    seeds = {}
    for seed in range(first, last + 1):
        entry = {}
        for name, workload in spec["workloads"].items():
            deadline = time.monotonic() + run.DEADLINE_S
            ran = run.run_workload(name, workload, seed, 0.0, False, None, deadline)
            if ran is None or ran[0].checks.failed or not ran[1]:
                failures = ran[0].checks.failures if ran else ["set-up failed"]
                print(f"seed {seed} {name}: " + "; ".join(failures), file=sys.stderr)
                return 1
            entry[name] = run.reference_of(ran[0].found)
        seeds[str(seed)] = entry
        print(f"seed {seed} recorded", flush=True)
    doc = {
        "commit": run.git_commit(),
        "tolerance": {"rel": run.REF_RTOL, "abs": run.REF_ATOL,
                      "iters_to_tol": "exact"},
        "seeds": seeds,
    }
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
