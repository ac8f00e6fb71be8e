"""Desk-scale experiment protocol: seeded quadratic-game generation,
multi-method multi-seed comparison runs, whose named step rules resolve
through constants.STEP_RULES, aggregation with confidence bands, and
deterministic CSV/SVG emission.

Game files are a single self-describing JSON document (format_version 1)
with integer header fields, the generator parameters when the game came from
the generator, and one row-major array per named matrix or vector.  Floats
are serialized as the shortest decimal that round-trips the underlying
64-bit value, so write-then-read reproduces a game bit-exactly.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from . import constants as consts
from . import numerics
from .errors import ConfigError
from .operators import QuadraticGame
from .records import Record
from .sampling import SamplingScheme
from .solvers import (
    DETERMINISTIC_METHODS,
    METHODS,
    ConstantSchedule,
    RunTrace,
    run_batch,
)

GAME_FORMAT_VERSION = 1

CSV_HEADER = "method,iteration,mean_rel_dist,ci_low,ci_high,seeds"
# A row's seeds count is read into an int64 array.
_MAX_SEEDS = np.iinfo(np.int64).max
# The characters XML 1.0 cannot hold, which a method would carry into an SVG.
_NOT_XML = frozenset(map(chr, [*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF]))

# 95% two-sided normal quantile for the confidence bands.
CI_QUANTILE = 1.96


# ---------------------------------------------------------------------------
# game generation
# ---------------------------------------------------------------------------


class GameGenConfig(Record):
    """Seeded generator parameters for one random quadratic game.

    Eigenvalues of every A_i (resp. C_i) are drawn uniformly in
    [mu_a, l_a] (resp. [mu_c, l_c]) with component 0 forced to attain the
    lower end and component n-1 the upper end; singular values of every B_i
    are uniform in [mu_b, l_b]; offsets are standard normal.
    """

    n: int
    d1: int
    d2: int
    mu_a: float
    l_a: float
    mu_b: float
    l_b: float
    mu_c: float
    l_c: float
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.d1 < 1 or self.d2 < 1:
            raise ConfigError("n, d1, d2 must all be >= 1")
        if not 0.0 < self.mu_a <= self.l_a or not 0.0 < self.mu_c <= self.l_c:
            raise ConfigError("need 0 < mu_a <= l_a and 0 < mu_c <= l_c")
        if not 0.0 <= self.mu_b <= self.l_b:
            raise ConfigError("need 0 <= mu_b <= l_b")


def _spread_diagonal(rng, dim, lo, hi, force_min, force_max):
    d = rng.uniform(lo, hi, dim)
    if force_min:
        d[int(np.argmin(d))] = lo
    if force_max:
        d[int(np.argmax(d))] = hi
    return d


def generate_game(cfg: GameGenConfig) -> QuadraticGame:
    """Random strongly monotone quadratic game, deterministic given the seed.

    Per component, in fixed draw order: the normals behind the orthogonal
    factor of A_i and its eigenvalues, the same for C_i, the normals behind
    the two orthogonal factors of B_i and its singular values, then the
    offsets a_i and c_i.  The factors are formed a chunk at a time.
    """
    rng = numerics.make_rng(cfg.seed)
    n, d1, d2 = cfg.n, cfg.d1, cfg.d2
    k = min(d1, d2)
    # A and C hold their normals until their chunk is factored.
    a_mats, u_normals, diag_a = np.empty((n, d1, d1)), np.empty((n, d1, d1)), np.empty((n, d1))
    c_mats, v_normals, diag_c = np.empty((n, d2, d2)), np.empty((n, d2, d2)), np.empty((n, d2))
    a_vecs, c_vecs, svals = np.empty((n, d1)), np.empty((n, d2)), np.empty((n, k))
    for i in range(n):
        first, last = i == 0, i == n - 1
        a_mats[i] = rng.standard_normal((d1, d1))
        diag_a[i] = _spread_diagonal(rng, d1, cfg.mu_a, cfg.l_a, first, last)
        c_mats[i] = rng.standard_normal((d2, d2))
        diag_c[i] = _spread_diagonal(rng, d2, cfg.mu_c, cfg.l_c, first, last)
        u_normals[i] = rng.standard_normal((d1, d1))
        v_normals[i] = rng.standard_normal((d2, d2))
        svals[i] = rng.uniform(cfg.mu_b, cfg.l_b, k)
        a_vecs[i] = rng.standard_normal(d1)
        c_vecs[i] = rng.standard_normal(d2)
    b_mats = np.empty((n, d1, d2))
    for part in numerics.chunks(n):
        for mats, diag in ((a_mats, diag_a), (c_mats, diag_c)):
            q = numerics.haar_orthogonal(mats[part])
            sym = (q * diag[part, None]) @ q.transpose(0, 2, 1)
            mats[part] = 0.5 * (sym + sym.transpose(0, 2, 1))
        u, v = (numerics.haar_orthogonal(g[part])[..., :k] for g in (u_normals, v_normals))
        b_mats[part] = (u * svals[part, None]) @ v.transpose(0, 2, 1)
    return QuadraticGame(a_mats, b_mats, c_mats, a_vecs, c_vecs)


# ---------------------------------------------------------------------------
# game files
# ---------------------------------------------------------------------------


def _mirrored_texts(m) -> list:
    """float.__repr__ of each entry of the square matrix m, row by row.  An
    entry below the diagonal whose float64 bits equal its mirror's reuses the
    mirror's text; one whose bits differ (0.0 and -0.0, a one-ulp asymmetry)
    is formatted itself."""
    bits = m.view(np.uint64)
    own = np.triu(np.ones(m.shape, bool)) | (bits != bits.T)
    texts = np.empty(m.shape, dtype=object)
    texts[own] = list(map(float.__repr__, m[own].tolist()))
    texts[~own] = texts.T[~own]
    return texts.reshape(-1).tolist()


def write_game(path, game: QuadraticGame, gen: GameGenConfig | None = None) -> None:
    """Serialize a game (and the generator config that produced it, if any)
    as json.dump(doc, indent=1) plus a newline would, but one component row
    at a time: json's indenting encoder is pure Python.  An entry of A_i or
    C_i below the diagonal reuses its mirror's text when the two have the
    same bits (_mirrored_texts), so each mirrored pair is formatted once."""
    head = {
        "format_version": GAME_FORMAT_VERSION,
        "n": game.n,
        "d1": game.d1,
        "d2": game.d2,
        "seed": gen.seed if gen is not None else None,
        "generator": gen._asdict() if gen is not None else None,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(head, indent=1)[:-2])  # without the closing "\n}"
        for key in ("A", "B", "C", "a", "c"):
            sep = f',\n "{key}": [\n  [\n   '
            for part in getattr(game, key):
                texts = (_mirrored_texts(part) if key in ("A", "C")
                         else map(float.__repr__, part.reshape(-1).tolist()))
                fh.write(sep + ",\n   ".join(texts))
                sep = "\n  ],\n  [\n   "
            fh.write("\n  ]\n ]")
        fh.write("\n}\n")


def read_game(path):
    """Load a game file; returns (game, generator config or None).

    A file that does not hold a valid game raises ConfigError: text that is
    not UTF-8 JSON or nests too deep to parse, a non-object document, a
    format_version that is not the integer 1, missing keys, a header that is
    not positive integers, array entries that are not JSON numbers (strings
    such as "1.5" and booleans included), arrays whose sizes do not match
    the header, non-finite entries, A_i / C_i that are not symmetric, or a
    generator that is neither null nor an object with exactly the
    GameGenConfig fields (integer n, d1, d2 and seed >= 0, finite numbers in
    valid ranges) whose n, d1 and d2 repeat the header's.  The top-level
    "seed", when present, must repeat the generator's: null without a
    generator, else the integer generator seed.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"game file {path} cannot be read as JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"game file {path} is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != GAME_FORMAT_VERSION:
        raise ConfigError(f"unsupported game file version {version!r}")
    missing = [key for key in ("n", "d1", "d2", "A", "B", "C", "a", "c") if key not in doc]
    if missing:
        raise ConfigError(f"game file {path} lacks {', '.join(missing)}")
    n, d1, d2 = doc["n"], doc["d1"], doc["d2"]
    if not all(type(v) is int and v >= 1 for v in (n, d1, d2)):
        raise ConfigError(f"game file {path}: n, d1, d2 must be positive integers")
    shapes = {"A": (n, d1, d1), "B": (n, d1, d2), "C": (n, d2, d2),
              "a": (n, d1), "c": (n, d2)}
    arrays = []
    for key, shape in shapes.items():
        entries = np.array(doc[key], dtype=object).reshape(-1)
        if not set(map(type, entries)) <= {int, float}:
            raise ConfigError(f"game file {path}: {key} holds entries that are not numbers")
        try:
            arrays.append(entries.astype(float).reshape(shape))
        except OverflowError:
            raise ConfigError(f"game file {path}: {key} has an entry beyond float range") from None
        except ValueError:
            raise ConfigError(f"game file {path}: {key} does not fit shape {shape}") from None
    try:
        game = QuadraticGame(*arrays)
        gen = _generator_config(doc.get("generator"))
    except (TypeError, ValueError) as exc:  # asymmetric A_i / C_i, non-finite entries
        raise ConfigError(f"game file {path}: {exc}") from None
    if gen is not None and (gen.n, gen.d1, gen.d2) != (n, d1, d2):
        raise ConfigError(f"game file {path}: generator shape {gen.n, gen.d1, gen.d2} is not {n, d1, d2}")
    seed = None if gen is None else gen.seed
    if "seed" in doc and (type(doc["seed"]) is not type(seed) or doc["seed"] != seed):
        raise ConfigError(f"game file {path}: seed {doc['seed']!r} is not generator seed {seed!r}")
    return game, gen


def _generator_config(spec) -> GameGenConfig | None:
    """The game file's generator entry as a config; ValueError if invalid."""
    if spec is None:
        return None
    names = GameGenConfig._fields
    if not isinstance(spec, dict) or sorted(spec) != sorted(names):
        raise ValueError(f"generator must be null or an object with keys {', '.join(names)}")
    for name, value in spec.items():
        if name in ("n", "d1", "d2", "seed"):
            valid = type(value) is int and value >= 0
        else:
            valid = type(value) in (int, float) and math.isfinite(value)
        if not valid:
            raise ValueError(f"generator {name} is {value!r}")
    return GameGenConfig(**spec)


# ---------------------------------------------------------------------------
# constants and run plans
# ---------------------------------------------------------------------------


class GameProfile(Record):
    """The constants of ``game`` under ``scheme``, each record computed on its
    first read and kept, and the game constants read from ``base``, a profile
    of the same game, when given.  On a scheme without Hamiltonian constants
    the read of ``hamiltonian`` raises UnsupportedSchemeError.
    """

    game: QuadraticGame
    scheme: SamplingScheme
    base: GameProfile | None = None

    @cached_property
    def game_constants(self) -> consts.GameConstants:
        return self.base.game_constants if self.base else consts.game_constants(self.game)

    @cached_property
    def ec(self) -> consts.ECConstants:
        return consts.ec_constants(self.game_constants, self.scheme, self.game)

    @property
    def kappa_g(self) -> float:
        return self.ec.ell_xi / self.game_constants.mu

    @cached_property
    def hamiltonian(self) -> consts.HamiltonianConstants:
        return consts.hamiltonian_constants(self.game, self.scheme)

    def constant(self, name: str) -> float:
        """The rate-statement constant ``name``, read from the one record that holds it."""
        holder = {"mu": "game_constants", "ell_xi": "ec", "sigma_sq": "ec", "mu_h": "hamiltonian",
                  "cal_l_h": "hamiltonian", "sigma_h_sq": "hamiltonian"}[name]
        return getattr(getattr(self, holder), name)


def profile(game: QuadraticGame, scheme: SamplingScheme) -> GameProfile:
    """Profile of (game, scheme), with every constant left to its first read."""
    return GameProfile(game, scheme)


def method_plan(prof: GameProfile, methods, schedule="theory"):
    """{method: (scheme, schedule)}: gda and co sample from the full batch
    and the rest from ``prof.scheme``.  A name of constants.STEP_RULES
    ("theory", "switching") builds each method's schedule from the constants
    of its scheme (a full-batch profile shares the game constants of
    ``prof``); any other schedule is every method's.  Every schedule is
    resolved before the caller's first run.
    """
    full = prof if prof.scheme.is_deterministic else GameProfile(
        prof.game, SamplingScheme.full_batch(prof.scheme.n), prof)
    rules = consts.STEP_RULES.get(schedule) if isinstance(schedule, str) else None
    plan = {}
    for m in methods:
        own = full if m in DETERMINISTIC_METHODS else prof
        if rules is not None and m not in rules:
            raise ConfigError(f"no {schedule} rule for method {m!r}")
        plan[m] = own.scheme, (schedule if rules is None else rules[m](own.constant))
    return plan


def bound_plan(bound: str, prof: GameProfile):
    """(method, scheme, schedule, params, slack) of rate statement ``bound`` on ``prof``,
    with params from the schedule's steps and the constants its BOUNDS row names alone."""
    method, steps, slack, keys = consts.bound_row(bound)
    scheme, schedule = method_plan(prof, (method,), steps)[method]
    own = {"alpha": schedule.alpha, "gamma": schedule.gamma}
    params = {key: own[key] if key in own else prof.constant(key) for key in keys}
    return method, scheme, schedule, params, slack


# ---------------------------------------------------------------------------
# experiment runner and aggregation
# ---------------------------------------------------------------------------


def _reject_repeats(kind: str, names) -> None:
    """ConfigError naming the first name given twice: a table's rows are
    keyed by name, so a repeat would write rows that read_csv rejects."""
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"{kind} {name!r} is given more than once")
        seen.add(name)


def _check_methods(methods) -> None:
    """ConfigError if ``methods`` is empty or names an unknown or repeated method."""
    if not methods:
        raise ConfigError("need at least one method")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {METHODS}")
    _reject_repeats("method", methods)


class MethodAggregate(Record):
    """One method's mean relative squared distance per iteration with a 95%
    normal-approximation confidence band (mean +- 1.96 * sd / sqrt(seeds)),
    over the seeds still running at that iteration.  ``running[k]`` is the
    number of those seeds, so ``running[0]`` counts the runs aggregated;
    ``diverged`` lists (seed, last iteration) for each run the divergence
    guard cut short."""

    method: str
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    running: np.ndarray
    diverged: tuple[tuple[int, int], ...] = ()


def aggregate_traces(method: str, traces: list[RunTrace]) -> MethodAggregate:
    """Aggregate each iteration over the seeds whose traces reach it.

    A diverged seed's trace ends at its offending iterate, so later
    iterations average only the survivors.  Between two trace ends the set
    of seeds is fixed, and each such stretch is reduced as one block, so a
    table without divergence is the plain all-seed reduction.  A run that
    starts at the equilibrium has no relative distance: ConfigError.
    """
    at_equilibrium = [t.seed for t in traces if t.dist_sq[0] == 0.0]
    if at_equilibrium:
        raise ConfigError(
            f"{method}: seed {at_equilibrium[0]} starts at the equilibrium, "
            "so its relative distance is undefined"
        )
    lengths = np.array([len(t.dist_sq) for t in traces])
    length = int(lengths.max())
    mean = np.empty(length)
    half = np.zeros(length)
    start = 0
    # A diverged seed's last distance may be inf; the run already reported it.
    with np.errstate(over="ignore", invalid="ignore"):
        for end in sorted(set(lengths.tolist())):
            rel = np.stack([t.dist_sq[start:end] / t.dist_sq[0]
                            for t in traces if len(t.dist_sq) >= end])
            mean[start:end] = rel.mean(axis=0)
            if rel.shape[0] > 1:
                half[start:end] = CI_QUANTILE * rel.std(axis=0, ddof=1) / math.sqrt(rel.shape[0])
            start = end
    return MethodAggregate(
        method=method,
        mean=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        running=(lengths[:, None] > np.arange(length)).sum(axis=0),
        diverged=tuple((t.seed, len(t.dist_sq) - 1) for t in traces if t.diverged),
    )


def _run_rows(game, rows, iterations, seeds, base_seed, record_traces=False):
    """(aggregate rows, traces by label) of each (label, method, scheme,
    schedule) row run on seeds base_seed, ..., base_seed + seeds - 1."""
    aggregates: list[MethodAggregate] = []
    traces: dict[str, list[RunTrace]] = {}
    for label, method, scheme, schedule in rows:
        runs = run_batch(game, scheme, method, iterations, seeds, schedule, base_seed,
                         record_iterates=record_traces)
        aggregates.append(aggregate_traces(label, runs))
        if record_traces:
            traces[label] = runs
    return aggregates, traces


def run_experiment(game: QuadraticGame, scheme: SamplingScheme, methods, iterations: int,
                   seeds: int, schedule="theory", base_seed: int = 0,
                   record_traces: bool = False):
    """Run every (method, seed) pair and aggregate.

    ``schedule`` is a rule name of constants.STEP_RULES or a schedule object,
    resolved by ``method_plan``.  Run i of every method uses seed base_seed + i.
    Returns (aggregate rows, traces) where traces maps method -> list of
    RunTrace, the first seed's with its iterates (empty mapping unless
    ``record_traces``).
    """
    _check_methods(methods)
    plan = method_plan(profile(game, scheme), methods, schedule)
    rows = [(m, m, *entry) for m, entry in plan.items()]
    return _run_rows(game, rows, iterations, seeds, base_seed, record_traces)


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------


def emit_csv(rows: list[MethodAggregate], path) -> None:
    """CSV per the fixed schema; floats as shortest round-trip decimals and
    the seeds column as the seeds still running at each iteration."""
    if not rows:
        raise ConfigError("refusing to emit an empty table")
    lines = [CSV_HEADER]
    for row in rows:
        columns = zip(row.mean.tolist(), row.ci_low.tolist(), row.ci_high.tolist(),
                      row.running.tolist())
        for k, (mean, low, high, running) in enumerate(columns):
            lines.append(f"{row.method},{k},{mean!r},{low!r},{high!r},{running}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list[MethodAggregate]:
    """Inverse of emit_csv; text that is not UTF-8, a malformed row, a method
    holding a character XML 1.0 cannot hold (a control character other than
    tab, U+FFFE, U+FFFF), a seeds count below 1 or beyond int64, or a method
    whose rows are not iterations 0..m-1 each once raises ConfigError.
    Non-finite statistics are read as written."""
    data: dict[str, list] = {}
    # Rows are parsed as the file streams in (a list of its lines would
    # outweigh the table), so the text is decoded inside the loop.
    try:
        with open(path, encoding="utf-8") as fh:
            lines = ((num, ln.rstrip("\n")) for num, ln in enumerate(fh, start=1))
            lines = ((num, ln) for num, ln in lines if ln)
            if next(lines, (0, None))[1] != CSV_HEADER:
                raise ConfigError("not an aggregate CSV (bad header)")
            for num, ln in lines:
                try:
                    method, it, mean, lo, hi, s = ln.split(",")
                    entry = (int(it), float(mean), float(lo), float(hi), int(s))
                    if not 1 <= entry[4] <= _MAX_SEEDS or not _NOT_XML.isdisjoint(method):
                        raise ValueError
                except ValueError:
                    raise ConfigError(f"{path}: line {num} is not an aggregate row: "
                                      f"{ln!r}") from None
                data.setdefault(method, []).append(entry)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    rows = []
    for method, entries in data.items():
        entries.sort()
        if [entry[0] for entry in entries] != list(range(len(entries))):
            raise ConfigError(f"{path}: the {method} rows are not iterations "
                              f"0..{len(entries) - 1}, each once")
        arr = np.array([entry[1:4] for entry in entries])
        running = np.array([entry[4] for entry in entries])
        rows.append(
            MethodAggregate(
                method=method,
                mean=arr[:, 0],
                ci_low=arr[:, 1],
                ci_high=arr[:, 2],
                running=running,
            )
        )
    return rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_SVG_W, _SVG_H = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 24, 48
_FLOOR = 1e-300
# A row label as SVG text: a CSV's method field may hold markup characters.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _svg_coords(ks, values, k_max, log_lo, log_hi):
    """Plot coordinates; a non-finite value is drawn at the top edge."""
    xs = _MARGIN_L + (ks / max(k_max, 1)) * (_SVG_W - _MARGIN_L - _MARGIN_R)
    clipped = np.log10(np.maximum(np.where(np.isfinite(values), values, np.inf), _FLOOR))
    clipped = np.clip(clipped, log_lo, log_hi)
    span = max(log_hi - log_lo, 1e-12)
    ys = _SVG_H - _MARGIN_B - (clipped - log_lo) / span * (_SVG_H - _MARGIN_T - _MARGIN_B)
    return xs, ys


def _path(xs, ys) -> str:
    """SVG points "x,y x,y ...", each coordinate to two decimals, from one
    format over the interleaved coordinates."""
    pts = np.stack([xs, ys], axis=1).ravel().tolist()
    return ("%.2f,%.2f " * len(xs) % tuple(pts))[:-1]


def emit_svg(rows: list[MethodAggregate], path) -> None:
    """Log-scale line chart, one line per method plus its shaded band.

    Hand-rolled SVG so the output is a pure function of the table: byte
    identical on re-emission.
    """
    if not rows:
        raise ConfigError("refusing to emit an empty table")
    k_max = max(row.mean.size - 1 for row in rows)
    # The axis spans the finite values only.
    means = [row.mean[np.isfinite(row.mean)] for row in rows]
    highs = [row.ci_high[np.isfinite(row.ci_high)] for row in rows]
    positive = [m[m > 0] for m in means]
    lo_val = min((p.min() for p in positive if p.size), default=1e-12)
    hi_val = max(
        max(h.max(initial=0.0) for h in highs),
        max(m.max(initial=0.0) for m in means),
        lo_val * 10,
    )
    log_lo = math.floor(math.log10(max(lo_val, _FLOOR)))
    # 1e308 is the largest decade whose grid line 10.0**dec can be drawn.
    log_hi = min(math.ceil(math.log10(min(hi_val, np.finfo(float).max))), 308)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_SVG_W - _MARGIN_L - _MARGIN_R}" '
        f'height="{_SVG_H - _MARGIN_T - _MARGIN_B}" fill="none" stroke="#333"/>',
    ]
    # y grid: one line per decade
    for dec in range(int(log_lo), int(log_hi) + 1):
        _, y = _svg_coords(np.array([0]), np.array([10.0**dec]), k_max, log_lo, log_hi)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y[0]:.2f}" x2="{_SVG_W - _MARGIN_R}" '
            f'y2="{y[0]:.2f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y[0] + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">1e{dec}</text>'
        )
    # x ticks: quarters
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = frac * k_max
        x = _MARGIN_L + frac * (_SVG_W - _MARGIN_L - _MARGIN_R)
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_H - _MARGIN_B + 16}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{k:.0f}</text>'
        )
    parts.append(
        f'<text x="{(_SVG_W + _MARGIN_L - _MARGIN_R) / 2:.2f}" y="{_SVG_H - 12}" '
        f'text-anchor="middle" font-size="12" font-family="sans-serif">iteration</text>'
    )
    for idx, row in enumerate(rows):
        color = _PALETTE[idx % len(_PALETTE)]
        ks = np.arange(row.mean.size)
        xs, ys_mean = _svg_coords(ks, row.mean, k_max, log_lo, log_hi)
        _, ys_hi = _svg_coords(ks, row.ci_high, k_max, log_lo, log_hi)
        _, ys_lo = _svg_coords(ks, row.ci_low, k_max, log_lo, log_hi)
        band = _path(xs, ys_hi) + " " + _path(xs[::-1], ys_lo[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
        parts.append(
            f'<polyline points="{_path(xs, ys_mean)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{_MARGIN_L + 8}" y1="{ly - 4}" x2="{_MARGIN_L + 28}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 34}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{row.method.translate(_XML_ESCAPES)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# step-size sweep and condition-number targeting
# ---------------------------------------------------------------------------


def sweep_step_sizes(
    game: QuadraticGame,
    scheme: SamplingScheme,
    methods,
    multipliers,
    iterations: int,
    seeds: int,
    base_seed: int = 0,
) -> list[MethodAggregate]:
    """Constant-step study: every method at multiplier x its theory step.

    Rows are labelled "method@multiplier".  Diverging configurations are
    still aggregated (their traces are truncated); callers can spot them by
    the trailing values.
    """
    _check_methods(methods)
    label = "{}@{:g}".format
    _reject_repeats("label", [label(m, mult) for m in methods for mult in multipliers])
    # Every schedule is built first, so a bad multiplier stops the sweep
    # before any run.
    plan = method_plan(profile(game, scheme), methods)
    rows = [(label(m, mult), m, own, ConstantSchedule(base.alpha * mult, base.gamma * mult))
            for m, (own, base) in plan.items() for mult in multipliers]
    return _run_rows(game, rows, iterations, seeds, base_seed)[0]


KAPPA_REL_TOL = 0.1
KAPPA_BISECTIONS = 60


def find_generator_for_kappa(
    target: float,
    n: int,
    d1: int,
    d2: int,
    scheme: SamplingScheme,
    seed: int = 0,
) -> tuple[GameGenConfig, float]:
    """Search generator ranges for a game whose kappa_g = ell_xi / mu is
    within KAPPA_REL_TOL of the target, under ``scheme`` (over n
    components), in at most KAPPA_BISECTIONS bisection steps.

    One scalar knob s >= 1 is bisected: eigenvalue ranges [1, s] for the
    diagonal blocks and singular values [0, (s-1)/2] for the coupling.
    kappa grows with s from 1, so plain bracketing works.
    """
    if target < 1.0:
        raise ConfigError("kappa targets below 1 are unattainable")

    def kappa_of(s: float):
        cfg = GameGenConfig(
            n=n, d1=d1, d2=d2,
            mu_a=1.0, l_a=s, mu_b=0.0, l_b=(s - 1.0) / 2.0, mu_c=1.0, l_c=s,
            seed=seed,
        )
        return profile(generate_game(cfg), scheme).kappa_g, cfg

    lo, hi = 1.0, 2.0
    kappa, cfg = kappa_of(hi)
    while kappa < target and hi < 1e9:
        lo, hi = hi, hi * 2.0
        kappa, cfg = kappa_of(hi)
    if kappa < target:
        raise ConfigError(f"could not reach kappa {target}")
    # A candidate within tolerance is closer than every earlier one outside
    # it, so the first such candidate is the closest seen.
    for _ in range(KAPPA_BISECTIONS):
        if abs(kappa - target) / target <= KAPPA_REL_TOL:
            break
        mid = 0.5 * (lo + hi)
        kappa, cfg = kappa_of(mid)
        if kappa < target:
            lo = mid
        else:
            hi = mid
    if abs(kappa - target) / target > KAPPA_REL_TOL:
        raise ConfigError(f"kappa search stalled at {kappa:.3f} for target {target}")
    return cfg, kappa
