"""Assumption and rate-envelope verification oracles.

All expectation checks take their expectations over v in closed form from
the scheme's moments, never by Monte-Carlo, so a failing check is
deterministic and reproducible.  The unbiasedness check certifies the first
moments themselves and probes no point; the ec and class checks probe
points around the equilibrium.  Margins are normalized; a check passes
exactly when its worst margin is >= -tolerance, and every failing report
carries a witness.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as consts
from . import numerics
from .errors import ConfigError, NumericalError
from .operators import FiniteSumOperator
from .records import Record
from .sampling import SamplingScheme, moments, second_moment
from .solvers import RunTrace

DEFAULT_RADIUS = 10.0

# Exact identities (E[v_i] = 1 from the moments): slack for rounding only.
EXACT_TOL = 1e-12

# Inequality checks: inequalities hold exactly, margins carry rounding noise.
INEQUALITY_TOL = 1e-9


class CheckReport(Record):
    """Outcome of one check; self-certifying.

    Margins are normalized (dimensionless).  ``witness`` is what attains the
    worst margin whenever the check fails: the probe point, the component
    index (unbiasedness) or, for an envelope, the iteration.
    """

    name: str
    worst_margin: float
    tolerance: float
    points: int
    witness: object | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.details is None:
            object.__setattr__(self, "details", {})

    @property
    def passed(self) -> bool:
        return bool(self.worst_margin >= -self.tolerance)


def sample_points(
    center: np.ndarray, count: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian probe points around ``center``, rescaled into the radius ball.

    Directions are standard normal scaled by radius/sqrt(d); any draw whose
    distance exceeds the radius is pulled back onto the sphere.  A distance
    beyond float range would pull every probe onto the center: ConfigError.
    """
    if not radius >= 0.0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    d = center.shape[0]
    with np.errstate(over="ignore"):
        pts = center + rng.standard_normal((count, d)) * (radius / np.sqrt(d))
        dist = np.linalg.norm(pts - center, axis=1)
    if not np.isfinite(dist).all():
        raise ConfigError(f"radius {radius} puts probe distances beyond float range")
    over = dist > radius
    if np.any(over):
        pts[over] = center + (pts[over] - center) * (radius / dist[over])[:, None]
    return pts


def _probe(name, center, points, radius, rng, tolerance, margins_at, details) -> CheckReport:
    """Report of ``name`` over ``points`` probe points around ``center``.

    ``margins_at(x)`` gives the margin, or a tuple of margins, at probe
    point x, each witnessed by x.  ``details(rng)`` gives the report's
    details once every probe point is drawn from ``rng`` (by default
    ``make_rng(0)``).  A margin that is not a number certifies nothing:
    NumericalError.  Fewer than one point is a ConfigError, raised before
    any point is drawn.
    """
    if points < 1:
        raise ConfigError(f"{name}: need at least 1 probe point, got {points}")
    if rng is None:
        rng = numerics.make_rng(0)
    pts = sample_points(center, points, radius, rng)
    # Each probe's worst margin; min keeps a NaN.
    margins = np.array([margins_at(x) for x in pts], dtype=float).reshape(points, -1).min(axis=1)
    if np.isnan(margins).any():
        raise NumericalError(f"{name}: a margin is not a number")
    worst = int(np.argmin(margins))
    report = CheckReport(name, float(margins[worst]), tolerance, points, details=details(rng))
    return report if report.passed else report._replace(witness=pts[worst])


def check_ec(
    op: FiniteSumOperator,
    scheme: SamplingScheme,
    ell_xi: float,
    points: int = 500,
    radius: float = DEFAULT_RADIUS,
    rng: np.random.Generator | None = None,
) -> CheckReport:
    """Expected co-coercivity with constant ell_xi, exact in v.

    At each probe x the margin is

        ell_xi * <value(x), x - x*>  -  E |value_v(x) - value_v(x*)|^2,

    normalized by the magnitude of the terms involved.  The derived bound
    E |value_v(x)|^2 <= 2 ell_xi <value(x), x - x*> + 2 sigma^2 is not
    probed: E |value_v(x)|^2 <= 2 E |value_v(x) - value_v(x*)|^2 + 2 sigma^2,
    so it holds wherever the margin is >= 0.  sigma^2 is in the details.
    """
    if op.n != scheme.n:
        raise ConfigError(f"scheme is for n={scheme.n}, operator has n={op.n}")
    x_star = op.equilibrium()
    _, e, c = moments(scheme)
    vals_star = op.component_values(x_star)
    sigma_sq = second_moment(e, c, vals_star)

    def margin(x):
        vals = op.component_values(x)
        inner = float(vals.mean(axis=0) @ (x - x_star))
        second_diff = second_moment(e, c, vals - vals_star)
        return (ell_xi * inner - second_diff) / (1.0 + abs(ell_xi * inner) + second_diff)

    return _probe(
        "expected_cocoercivity", x_star, points, radius, rng, INEQUALITY_TOL, margin,
        lambda rng: {"ell_xi": ell_xi, "sigma_sq": sigma_sq, "radius": radius},
    )


def check_monotonicity_class(
    op: FiniteSumOperator,
    mu: float,
    ell_star: float,
    points: int = 500,
    radius: float = DEFAULT_RADIUS,
    rng: np.random.Generator | None = None,
) -> CheckReport:
    """Quasi-strong monotonicity and co-coercivity around the equilibrium.

    Sub-checks at random points: (a) <value(x), x-x*> >= mu |x-x*|^2 and
    (b) |value(x) - value(x*)|^2 <= ell_star <value(x) - value(x*), x-x*>.
    A plain monotonicity probe over random pairs, drawn after the points,
    is reported as informational only (details["monotone_min"]);
    quasi-strongly monotone operators may legitimately fail it.
    """
    x_star = op.equilibrium()
    val_star = op.full_value(x_star)

    def margin_pair(x):
        val = op.full_value(x)
        diff = x - x_star
        dist_sq = float(diff @ diff)
        inner = float(val @ diff)
        vdiff = val - val_star
        inner_star = float(vdiff @ diff)
        vnorm_sq = float(vdiff @ vdiff)
        scale_a = 1.0 + abs(inner) + mu * dist_sq
        scale_b = 1.0 + vnorm_sq + abs(ell_star * inner_star)
        return ((inner - mu * dist_sq) / scale_a,
                (ell_star * inner_star - vnorm_sq) / scale_b)

    def details(rng):
        pairs = sample_points(x_star, 2 * points, radius, rng).reshape(points, 2, -1)
        mono_min, mono_witness = np.inf, None
        for x, y in pairs:
            gap = monotonicity_gap(op, x, y)
            if gap < mono_min:
                mono_min, mono_witness = gap, (x, y)
        return {"mu": mu, "ell_star": ell_star, "monotone_min": mono_min,
                "monotone_witness": mono_witness}

    return _probe("monotonicity_class", x_star, points, radius, rng, INEQUALITY_TOL,
                  margin_pair, details)


def monotonicity_gap(op: FiniteSumOperator, x, y) -> float:
    """<value(x) - value(y), x - y>; negative values witness non-monotonicity."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float((op.full_value(x) - op.full_value(y)) @ (x - y))


def check_unbiasedness(op: FiniteSumOperator, scheme: SamplingScheme) -> CheckReport:
    """E[v_i] = 1 for every component i, exactly, from the scheme's moments.

    Both estimators' means are linear in q_i = E[v_i] / n: E[value_v(x)] =
    sum_i q_i value_i(x), and over independent (u, v) the Hamiltonian-gradient
    estimator's mean is (sum_i q_i J_i(x))^T (sum_i q_i value_i(x)).  So
    q_i = 1/n makes both unbiased at every x for every operator, and the
    check reads no operator value and draws nothing.  Its margin is
    EXACT_TOL - n max_i |q_i - 1/n| over the n components, witnessed by the
    worst index.
    """
    if op.n != scheme.n:
        raise ConfigError(f"scheme is for n={scheme.n}, operator has n={op.n}")
    n = scheme.n
    q, _, _ = moments(scheme)
    dev = np.abs(q - 1.0 / n)
    worst = int(np.argmax(dev))
    report = CheckReport("unbiasedness", EXACT_TOL - n * float(dev[worst]), 0.0, n)
    return report if report.passed else report._replace(witness=worst)


def check_bound_envelope(
    traces: list[RunTrace],
    bound: str,
    params: dict,
    slack: float,
) -> CheckReport:
    """Seed-averaged squared distance against slack * closed-form bound.

    Requires at least 30 traces unless the bound is noiseless (all sigma
    terms zero), in which case a single deterministic trace is a valid
    degenerate set.  Switching bounds are only evaluated from their switch
    point onward.  The margin at iteration k is slack - mean_k / bound_k.

    A run cannot get closer to x* than rounding lets it: a noiseless trace
    settles near that floor while a bound such as (1 - alpha mu)^k r0^2
    keeps falling.  So each bound is held to at least the rounding floor
    (dim eps)^2 max(r0^2, max |final_x|^2), eps the float64 machine epsilon,
    which lies far below every noisy bound's plateau (details["floor"]).

    A trace the divergence guard stopped fails the check outright, once the
    bound's step-size range has been checked: its worst margin is -inf, its
    witness the earliest stop iteration, and details["diverged"] lists the
    (seed, stop iteration) of each such trace.  Traces of unequal length
    without divergence are a ConfigError.
    """
    if not traces:
        raise ConfigError("too few seeds: no traces supplied")
    noise = params.get("sigma_sq", 0.0) + params.get("sigma_h_sq", 0.0)
    if len(traces) < 30 and noise > 0.0:
        raise ConfigError(f"too few seeds: need >= 30 traces for noisy bounds, got {len(traces)}")
    diverged = tuple((t.seed, len(t.dist_sq) - 1) for t in traces if t.diverged)
    lengths = sorted({len(t.dist_sq) for t in traces})
    if not diverged and len(lengths) > 1:
        raise ConfigError(
            f"envelope traces have unequal lengths {lengths[0]}..{lengths[-1]} "
            "without divergence"
        )
    # The common length; with divergence the shortest trace's, read only
    # for the step-size gate.
    length = lengths[0]
    dists = np.stack([t.dist_sq[:length] for t in traces])
    mean = dists.mean(axis=0)
    r0_sq = float(mean[0])

    k_lo, k_hi = consts.bound_start(bound, params), length - 1
    name = f"bound_envelope[{bound}]"
    if diverged:
        # A step size outside the bound's range is a configuration error first.
        consts.theoretical_bound(bound, k_lo, r0_sq, **params)
        return CheckReport(
            name=name,
            worst_margin=-math.inf,
            tolerance=0.0,
            points=0,
            witness=min(k for _, k in diverged),
            details={"slack": slack, "seeds": len(traces), "diverged": diverged},
        )
    if k_hi < k_lo:
        raise ConfigError(f"the traces end at iteration {k_hi}, before the bound starts at {k_lo}")

    final_sq = max(float(t.final_x @ t.final_x) for t in traces)
    floor = (traces[0].final_x.size * np.finfo(float).eps) ** 2 * max(r0_sq, final_sq)
    ks = np.arange(k_lo, k_hi + 1)
    margins = np.empty(ks.size)
    for j, k in enumerate(ks):
        b = consts.theoretical_bound(bound, int(k), r0_sq, **params)
        margins[j] = slack - mean[k] / max(b, floor)
    worst = int(np.argmin(margins))
    return CheckReport(
        name=name,
        worst_margin=float(margins[worst]),
        tolerance=0.0,
        points=ks.size,
        witness=int(ks[worst]),
        details={"slack": slack, "k_range": (int(ks[0]), int(ks[-1])), "seeds": len(traces),
                 "floor": floor},
    )
