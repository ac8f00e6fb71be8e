"""Golden outputs: the sha256 of every byte the CLI writes for a fixed set of
commands at seed 0, run in-process through ``cli.main``.

The bytes depend on numpy's and LAPACK's floating-point results, so the
digests are recorded per environment, keyed by the numpy version and the
BLAS name and version.  ``tests/test_golden.py`` compares a fresh run with
the entry for the running environment.

To record the running environment's entry into ``tests/golden.json``::

    PYTHONPATH=src python tests/record_golden.py

Re-recording an existing entry means some output's bytes moved; say which
and why in CHANGES.md.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from stochvi import cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _game(n):
    """Generator flags of the benchmark's games (n=20: figure, n=100: certify)."""
    return ["--n", str(n), "--d1", "20", "--d2", "20", "--mu-a", "1.0", "--l-a", "1.6",
            "--mu-b", "1.2", "--l-b", "2.4", "--mu-c", "1.0", "--l-c", "1.6"]


# (name, argv, files the command writes), run in this order in one directory:
# later commands read the games and CSV that earlier ones write.
CASES = [
    ("generate_n100", ["generate", *_game(100), "--out", "n100.json"], ["n100.json"]),
    ("generate_n20", ["generate", *_game(20), "--out", "n20.json"], ["n20.json"]),
    ("generate_d1_1", ["generate", "--n", "5", "--d1", "1", "--d2", "3", "--out", "d1.json"],
     ["d1.json"]),
    ("constants_single", ["constants", "n20.json", "--scheme", "single"], []),
    ("constants_full", ["constants", "n20.json", "--scheme", "full"], []),
    ("constants_minibatch", ["constants", "n20.json", "--scheme", "minibatch", "--b", "4",
                             "--epsilon", "0.1"], []),
    ("certify_constants", ["constants", "n100.json", "--scheme", "single"], []),
    ("certify_verify", ["verify", "n100.json", "--scheme", "single",
                        "--checks", "ec,class,unbiased,envelope", "--points", "10",
                        "--envelope-seeds", "30", "--envelope-iters", "500",
                        "--out", "verify.json"], ["verify.json"]),
    ("figure_single", ["run", "--game", "n20.json", "--method", "sgda,sco,shgd",
                       "--scheme", "single", "--schedule", "theory", "--iters", "1000",
                       "--seeds", "20", "--out", "figure.csv", "--svg", "figure.svg"],
     ["figure.csv", "figure.svg"]),
    ("plot", ["plot", "--csv", "figure.csv", "--svg", "plot.svg"], ["plot.svg"]),
    ("batch_minibatch", ["run", "--game", "n20.json", "--method", "sgda",
                         "--scheme", "minibatch", "--b", "5", "--schedule", "theory",
                         "--iters", "1000", "--seeds", "10",
                         "--out", "minibatch.csv", "--svg", "minibatch.svg"],
     ["minibatch.csv", "minibatch.svg"]),
    ("batch_full", ["run", "--game", "n20.json", "--method", "gda,co", "--scheme", "full",
                    "--schedule", "theory", "--iters", "300", "--seeds", "4",
                    "--out", "full.csv", "--svg", "full.svg"], ["full.csv", "full.svg"]),
    ("verify_minibatch", ["verify", "n20.json", "--scheme", "minibatch", "--b", "2",
                          "--checks", "ec,class,unbiased"], []),
    ("run_switching_dump", ["run", "--game", "n20.json", "--method", "sgda,sco",
                            "--schedule", "switching", "--iters", "200", "--seeds", "3",
                            "--out", "switching.csv", "--dump-iterates", "iterates.csv"],
     ["switching.csv", "iterates.csv"]),
    ("sweep_game", ["sweep", "--game", "n20.json", "--methods", "sgda,sco,shgd",
                    "--multipliers", "0.5,1,2", "--iters", "200", "--seeds", "3",
                    "--out", "sweep.csv"], ["sweep.csv"]),
    ("sweep_target_kappa", ["sweep", "--target-kappa", "5", "--out", "kappa.json"],
     ["kappa.json"]),
    ("run_diverging", ["run", "--game", "n20.json", "--method", "sgda",
                       "--schedule", "constant", "--alpha", "1e200", "--iters", "50",
                       "--seeds", "2", "--out", "diverged.csv"], ["diverged.csv"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> str:
    """The key the digests are recorded under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy < 1.26: show_config takes no mode
        blas = "unknown BLAS"
    return f"numpy {np.__version__}, {blas}"


def digests(workdir) -> dict:
    """Run every case in ``workdir``; per case its exit code and the digests
    of its stdout, its stderr and each file it writes."""
    out = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, files in CASES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            out[name] = {"exit": code,
                         "stdout": _sha(stdout.getvalue().encode()),
                         "stderr": _sha(stderr.getvalue().encode()),
                         "files": {f: _sha(Path(f).read_bytes()) for f in files}}
    finally:
        os.chdir(here)
    return out


def main() -> int:
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        recorded[environment()] = digests(tmp)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases for {environment()} in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
