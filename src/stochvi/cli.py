"""Command-line interface.

Subcommands: generate, constants, run, verify, sweep, plot.  Exit codes:
0 success, 1 check failure, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import constants as consts
from . import experiments as exps
from . import numerics, verify
from .errors import ConfigError, NumericalError, UnsupportedSchemeError
from .sampling import SamplingScheme
from .solvers import METHODS, ConstantSchedule, run_batch

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _count(low: int):
    """argparse type: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _write(args, path_str: str, write, note: str = "") -> None:
    """Call ``write`` on ``path_str``, placed under --out-dir (made if need
    be) when relative, and print ``wrote <path><note>``."""
    path = Path(path_str)
    if not path.is_absolute() and args.out_dir is not None:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        path = Path(args.out_dir) / path
    write(path)
    print(f"wrote {path}{note}")


def _check_paths(args) -> None:
    """Reject a path that holds a NUL character, and an output that names the
    file of an input (read as given) or of another output (written under
    --out-dir when relative)."""
    seen = {}
    for name in ("out_dir", "game", "csv", "out", "svg", "dump_iterates"):
        given = getattr(args, name, None)
        if given is None:
            continue
        positional = name == "game" and args.command in ("constants", "verify")
        flag = "game" if positional else f"--{name}".replace("_", "-")
        if "\0" in given:
            raise ConfigError(f"{flag} holds a NUL character")
        if name == "out_dir":
            continue
        out_dir = args.out_dir if name in ("out", "svg", "dump_iterates") else None
        path = os.path.realpath(os.path.join(out_dir or "", given))
        if path in seen:
            raise ConfigError(f"{seen[path]} and {flag} name the same file {path!r}")
        seen[path] = flag


def _scheme(args, n: int) -> SamplingScheme:
    """The scheme that --scheme and --b name, over n components."""
    name, b = args.scheme, args.b
    if b is not None and name != "minibatch":
        raise ConfigError(f"--b applies only to the minibatch scheme, not {name!r}")
    if name in ("single", "single_element", "single_element_uniform"):
        return SamplingScheme.single_element(n)
    if name in ("full", "full_batch"):
        return SamplingScheme.full_batch(n)
    if name == "minibatch":
        if b is None:
            raise ConfigError("minibatch scheme needs --b")
        return SamplingScheme.minibatch(n, b)
    raise ConfigError(f"unknown scheme {name!r}")


def _write_table(args, rows: list[exps.MethodAggregate]) -> None:
    """The CSV at --out, the SVG at --svg if given, and one stderr line per
    row whose runs the divergence guard cut short."""
    _write(args, args.out, lambda path: exps.emit_csv(rows, path))
    if args.svg:
        _write(args, args.svg, lambda path: exps.emit_svg(rows, path))
    for row in rows:
        if row.diverged:
            stops = ", ".join(f"seed {seed} at iteration {k}" for seed, k in row.diverged)
            print(f"warning: {row.method} diverged: {stops}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = exps.GameGenConfig(**{name: getattr(args, name) for name in exps.GameGenConfig._fields})
    game = exps.generate_game(cfg)
    _write(args, args.out, lambda path: exps.write_game(path, game, cfg),
           f" (n={cfg.n}, d1={cfg.d1}, d2={cfg.d2}, seed={cfg.seed})")
    return EXIT_OK


def cmd_constants(args) -> int:
    game = exps.read_game(args.game)[0]
    scheme = _scheme(args, game.n)
    prof = exps.profile(game, scheme)
    pairs = prof.game_constants._asdict()
    ell_i = pairs.pop("ell_i")
    pairs.update(scheme=scheme.label(), **prof.ec._asdict(), kappa_g=prof.kappa_g)
    pairs.update((f"ell_{i}", value) for i, value in enumerate(ell_i))
    try:
        pairs.update(prof.hamiltonian._asdict())
    except UnsupportedSchemeError:
        pass
    if args.epsilon is not None:
        pairs.update(consts.optimal_minibatch(prof.game_constants, args.epsilon)._asdict())
    for key, value in pairs.items():
        print(f"{key}: {value}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.schedule == "constant":
        if args.alpha is None and args.gamma is None:
            raise ConfigError("constant schedule needs --alpha and/or --gamma")
        schedule = ConstantSchedule(alpha=args.alpha or 0.0, gamma=args.gamma or 0.0)
    elif args.alpha is not None or args.gamma is not None:
        raise ConfigError(f"--alpha and --gamma apply only to the constant schedule, "
                          f"not {args.schedule!r}")
    else:
        schedule = args.schedule
    game = exps.read_game(args.game)[0]
    scheme = _scheme(args, game.n)
    methods = tuple(args.method.split(","))
    rows, traces = exps.run_experiment(game, scheme, methods, args.iters, args.seeds, schedule,
                                       args.seed, record_traces=args.dump_iterates is not None)
    _write_table(args, rows)
    if args.dump_iterates is not None:
        # One CSV of iterate coordinates for the first seed of each method.
        lines = ["method,iteration," + ",".join(f"x{i}" for i in range(game.dim))]
        for method in methods:
            for k, xk in enumerate(traces[method][0].iterates):
                lines.append(f"{method},{k}," + ",".join(repr(float(v)) for v in xk))
        text = "\n".join(lines) + "\n"
        _write(args, args.dump_iterates,
               lambda path: path.write_text(text, encoding="utf-8", newline="\n"))
    return EXIT_OK


def cmd_verify(args) -> int:
    game = exps.read_game(args.game)[0]
    scheme = _scheme(args, game.n)
    rng = numerics.make_rng(args.seed)
    prof = exps.profile(game, scheme)

    def envelope():
        method, own, schedule, params, slack = exps.bound_plan(consts.SGDA_CONSTANT, prof)
        traces = run_batch(game, own, method, args.envelope_iters, args.envelope_seeds,
                           schedule, args.seed)
        return verify.check_bound_envelope(traces, consts.SGDA_CONSTANT, params, slack)

    checks = {
        "ec": lambda: verify.check_ec(game, scheme, prof.ec.ell_xi, args.points, args.radius, rng),
        "class": lambda: verify.check_monotonicity_class(
            game, prof.game_constants.mu, prof.game_constants.ell, args.points, args.radius, rng
        ),
        "unbiased": lambda: verify.check_unbiasedness(game, scheme),
        "envelope": envelope,
    }
    names = args.checks.split(",")
    for name in names:
        if name not in checks:
            raise ConfigError(f"unknown check {name!r}; known: {', '.join(checks)}")
    exps._reject_repeats("check", names)
    _fill_flags(args, "--checks", _VERIFY_FLAGS, names)
    # In argv order: the probe checks share one generator.
    reports = [checks[name]() for name in names]
    failed = [r for r in reports if not r.passed]
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(
            f"[{state}] {r.name}: worst margin {r.worst_margin:.3e} "
            f"(tolerance {r.tolerance:.1e}, {r.points} points)"
        )
    if args.out:
        doc = [
            {
                "name": r.name,
                "passed": r.passed,
                "worst_margin": r.worst_margin,
                "tolerance": r.tolerance,
                "points": r.points,
                "witness": None
                if r.witness is None
                else np.asarray(r.witness, dtype=float).reshape(-1).tolist(),
            }
            for r in reports
        ]
        text = json.dumps(doc, indent=1) + "\n"
        _write(args, args.out, lambda path: path.write_text(text, encoding="utf-8", newline="\n"))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# The flags that only some verify checks or one sweep mode read, with their
# defaults, by the checks or mode that read them.  The parser leaves them
# None, so a flag that nothing given reads is seen and rejected.
_VERIFY_FLAGS = {
    ("ec", "class"): {"points": 200, "radius": verify.DEFAULT_RADIUS},
    ("envelope",): {"envelope_seeds": 30, "envelope_iters": 500},
}
_SWEEP_FLAGS = {
    ("--game",): {"methods": "sgda,sco,shgd", "multipliers": "0.25,0.5,1,2",
                  "iters": 1000, "seeds": 5, "svg": None},
    ("--target-kappa",): {"n": 20, "d1": 20, "d2": 20},
}


def _fill_flags(args, what: str, table: dict, given) -> None:
    """Default each flag of ``table`` left None; reject one nothing given reads."""
    for readers, flags in table.items():
        for name, default in flags.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif not set(readers) & set(given):
                raise ConfigError(f"--{name.replace('_', '-')} applies only to "
                                  f"{what} {'/'.join(readers)}")


def cmd_sweep(args) -> int:
    _fill_flags(args, "sweep", _SWEEP_FLAGS,
                ["--game" if args.target_kappa is None else "--target-kappa"])
    if args.target_kappa is not None:
        cfg, kappa = exps.find_generator_for_kappa(
            args.target_kappa, args.n, args.d1, args.d2, _scheme(args, args.n), args.seed,
        )
        game = exps.generate_game(cfg)
        _write(args, args.out, lambda path: exps.write_game(path, game, cfg),
               f" (kappa_g={kappa:.3f}, l_a={cfg.l_a!r})")
        return EXIT_OK
    try:
        multipliers = tuple(float(m) for m in args.multipliers.split(","))
    except ValueError:
        raise ConfigError(f"--multipliers must be comma-separated numbers, "
                          f"got {args.multipliers!r}") from None
    game = exps.read_game(args.game)[0]
    scheme = _scheme(args, game.n)
    methods = tuple(args.methods.split(","))
    rows = exps.sweep_step_sizes(game, scheme, methods, multipliers, args.iters, args.seeds,
                                 base_seed=args.seed)
    _write_table(args, rows)
    return EXIT_OK


def cmd_plot(args) -> int:
    rows = exps.read_csv(args.csv)
    _write(args, args.svg, lambda path: exps.emit_svg(rows, path))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochvi",
        description="Finite-sum variational-inequality solvers and verification oracles",
    )
    parser.add_argument("--seed", type=_count(0), default=0, help="base seed (default 0)")
    parser.add_argument("--out-dir", default=None, help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--scheme", default="single_element_uniform",
                          help="single (default), full or minibatch")
    sampling.add_argument("--b", type=int, default=None, help="minibatch size")

    g = sub.add_parser("generate", help="generate a random quadratic game file")
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--d1", type=int, default=20)
    g.add_argument("--d2", type=int, default=20)
    g.add_argument("--mu-a", type=_finite, default=1.0)
    g.add_argument("--l-a", type=_finite, default=4.0)
    g.add_argument("--mu-b", type=_finite, default=0.0)
    g.add_argument("--l-b", type=_finite, default=1.0)
    g.add_argument("--mu-c", type=_finite, default=1.0)
    g.add_argument("--l-c", type=_finite, default=4.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("constants", parents=[sampling],
                       help="print all constants for a game and scheme")
    c.add_argument("game")
    c.add_argument("--epsilon", type=_finite, default=None,
                   help="accuracy for the optimal minibatch size")
    c.set_defaults(func=cmd_constants)

    r = sub.add_parser("run", parents=[sampling],
                       help="run methods on a game and emit aggregates")
    r.add_argument("--game", required=True)
    r.add_argument("--method", required=True, help="comma-separated subset of "
                   + ",".join(METHODS))
    r.add_argument("--schedule", default="theory",
                   choices=("theory", "constant", "switching"))
    r.add_argument("--alpha", type=_finite, default=None)
    r.add_argument("--gamma", type=_finite, default=None)
    r.add_argument("--iters", type=_count(0), required=True)
    r.add_argument("--seeds", type=_count(1), default=5)
    r.add_argument("--out", required=True)
    r.add_argument("--svg", default=None)
    r.add_argument("--dump-iterates", default=None,
                   help="also write per-iteration coordinates for the first seed (--seed)")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", parents=[sampling],
                       help="run assumption/envelope checks on a game")
    v.add_argument("game")
    v.add_argument("--checks", default="ec,class,unbiased")
    v.add_argument("--points", type=_count(1))
    v.add_argument("--radius", type=_nonnegative)
    v.add_argument("--envelope-seeds", type=_count(1))
    v.add_argument("--envelope-iters", type=_count(0))
    v.add_argument("--out", default=None, help="machine-readable JSON report path")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", parents=[sampling],
                       help="step-size grid, or search for a target kappa")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--game", default=None, help="sweep step sizes on this game")
    mode.add_argument("--target-kappa", type=_finite, default=None,
                      help="write a generated game of this kappa_g to --out")
    step_sweep, kappa_search = _SWEEP_FLAGS.values()
    s.add_argument("--methods", help=f"--game only (default {step_sweep['methods']})")
    s.add_argument("--multipliers", help=f"--game only (default {step_sweep['multipliers']})")
    s.add_argument("--iters", type=_count(0), help=f"--game only (default {step_sweep['iters']})")
    s.add_argument("--seeds", type=_count(1), help=f"--game only (default {step_sweep['seeds']})")
    s.add_argument("--out", required=True)
    s.add_argument("--svg", help="--game only")
    for dim in ("n", "d1", "d2"):
        s.add_argument(f"--{dim}", type=int,
                       help=f"--target-kappa only (default {kappa_search[dim]})")
    s.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="re-render an aggregate CSV as SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  A NumericalError or a LAPACK failure exits 3 and
    a ConfigError, an unusable path or an allocation that fails exits 2,
    each with one stderr line.
    numpy's floating-point warnings are silenced: a non-finite result is
    reported instead (a diverged seed, an overflowing game or constant, a
    NaN margin) or drawn as written."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        with np.errstate(all="ignore"):
            return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # OSError: a missing input, a directory as output; MemoryError: sizes too large
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"configuration error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
