"""Every constant the convergence statements consume.

Co-coercivity of a matrix M (the operator x -> Mx) means
|Mx|^2 <= ell * <x, Mx> for all x.  The smallest valid ell is computed in
closed form as the largest generalized eigenvalue of (M^T M, sym(M)) on the
positive subspace of sym(M), in any dimension.  Every downstream inequality
(expected co-coercivity, step-size ranges, bound envelopes) needs such a
genuine certificate.

A bound reads its step ceilings, or its switching rule's m, k* and start,
from the schedule its STEP_RULES rule builds; both switching bounds are
noise / (m^2 k) + k*^2 r0^2 / (e k)^2.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .errors import ConfigError, NumericalError, UnsupportedSchemeError
from .operators import QuadraticGame
from .records import Record
from .sampling import SamplingScheme, moments, second_moment
from .solvers import SCO, SGDA, SHGD, TERMS, ConstantSchedule, SwitchingSchedule

# Eigenvalues below this fraction of the spectral scale count as zero.
_ZERO_RTOL = 1e-12

# Step sizes may exceed their theoretical ceiling by this relative slop.
_STEP_SLOP = 1e-12


# ---------------------------------------------------------------------------
# matrix co-coercivity
# ---------------------------------------------------------------------------


def matrix_cocoercivity(m):
    """Co-coercivity constant of the linear operator x -> Mx (see module
    docstring); for a (k, d, d) stack, the array of the k constants from one
    stacked eigh and eigvalsh per chunk.  Only a matrix whose symmetric part
    has a null or negative direction takes its own rules."""
    stack = np.asarray(m, dtype=float)
    if stack.ndim not in (2, 3) or stack.shape[-1] != stack.shape[-2]:
        raise ConfigError(f"expected a square matrix or a stack of them, got {stack.shape}")
    if not np.isfinite(stack).all():
        raise ConfigError("matrix entries must be finite")
    if stack.ndim == 2:
        return float(matrix_cocoercivity(stack[None])[0])
    out = np.empty(len(stack))
    for part in numerics.chunks(len(stack)):
        m, res = stack[part], out[part]
        evals, evecs = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
        scale = np.maximum(np.abs(evals).max(axis=1, initial=0.0),
                           np.abs(m).max(axis=(1, 2), initial=0.0))
        tol = _ZERO_RTOL * scale
        null = evals <= tol[:, None]
        for i in np.flatnonzero(null.any(axis=1)):
            if evals[i].min() < -tol[i]:
                # <v, Mv> = v^T sym(M) v < 0 forces Mv != 0, so co-coercivity fails.
                raise NumericalError(f"not co-coercive: symmetric part has negative "
                                     f"eigenvalue {evals[i].min():.3e}")
            if np.abs(m[i] @ evecs[i][:, null[i]]).max() > 1e-9 * scale[i]:
                raise NumericalError("not co-coercive: direction with <x, Mx> = 0 but Mx != 0")
            mw = m[i] @ (evecs[i][:, ~null[i]] / np.sqrt(evals[i][~null[i]]))
            res[i] = np.linalg.eigvalsh(mw.T @ mw).max(initial=0.0)
        ok = ~null.any(axis=1)
        # Column-major like the w above, which the product's bits depend on.
        w_t = np.divide(evecs[ok].transpose(0, 2, 1), np.sqrt(evals[ok])[:, :, None], order="C")
        mw = m[ok] @ w_t.transpose(0, 2, 1)
        res[ok] = np.linalg.eigvalsh(mw.transpose(0, 2, 1) @ mw).max(axis=1, initial=0.0)
    return out


# ---------------------------------------------------------------------------
# game-level constants
# ---------------------------------------------------------------------------


class _Finite(Record):
    """Base of the constants records: a constant that overflowed to inf or
    nan certifies nothing, so building such a record is a NumericalError."""

    def __post_init__(self):
        if not np.isfinite(np.hstack(list(self._asdict().values()))).all():
            raise NumericalError(f"{type(self).__name__} are not finite: {self}")


class GameConstants(_Finite):
    """Structural constants of one quadratic game.

    mu is the quasi-strong monotonicity modulus (smallest eigenvalue of the
    symmetric part of the mean Jacobian, positive by requirement); ell_i are
    per-component co-coercivity constants, ell the constant of the mean
    operator; sigma1_sq is the mean squared component norm at the
    equilibrium.
    """

    n: int
    mu: float
    ell_i: tuple[float, ...]
    ell: float
    ell_max: float
    sigma1_sq: float


class ECConstants(_Finite):
    """Expected co-coercivity constant and operator noise for one scheme."""

    ell_xi: float
    sigma_sq: float


class HamiltonianConstants(_Finite):
    """Constants of H(x) = |mean value|^2 / 2 for one quadratic game."""

    mu_h: float
    l_h: float
    cal_l_h: float
    sigma_h_sq: float


def game_constants(game: QuadraticGame) -> GameConstants:
    """Structural constants of a quadratic game.

    Requires the symmetric part blkdiag(A, C) of the mean Jacobian to be
    positive definite (strong monotonicity); for affine operators this
    modulus coincides with the quasi-strong one.  Co-coercivity constants
    come from the certified closed form of ``matrix_cocoercivity``.
    """
    j_mean = game.mean_jacobian()
    mu = float(np.linalg.eigvalsh(0.5 * (j_mean + j_mean.T))[0])
    if mu <= 0.0:
        raise NumericalError(
            f"not strongly monotone: lambda_min of the symmetric mean Jacobian is {mu:.3e}"
        )
    ell_i = tuple(matrix_cocoercivity(game.component_jacobians).tolist())
    ell = matrix_cocoercivity(j_mean)
    x_star = game.equilibrium()
    vals = game.component_values(x_star)
    sigma1_sq = float(np.einsum("ij,ij->i", vals, vals).mean())
    return GameConstants(n=game.n, mu=mu, ell_i=ell_i, ell=ell, ell_max=max(ell_i),
                         sigma1_sq=sigma1_sq)


def minibatch_ell_xi(n: int, b: int, ell: float, ell_max: float) -> float:
    """Expected co-coercivity constant for uniform b-minibatch sampling."""
    if n == 1:
        return ell
    return (n / b) * (b - 1) / (n - 1) * ell + (1.0 / b) * (n - b) / (n - 1) * ell_max


def minibatch_sigma_sq(n: int, b: int, sigma1_sq: float) -> float:
    """Operator noise at the equilibrium for uniform b-minibatch sampling."""
    if n == 1:
        return 0.0
    return (1.0 / b) * (n - b) / (n - 1) * sigma1_sq


def ec_constants(
    gc: GameConstants, scheme: SamplingScheme, game: QuadraticGame
) -> ECConstants:
    """Expected co-coercivity constant and noise for (game, scheme).

    Minibatch-family schemes use the closed forms.  The independent scheme
    uses the general formula z ell + max_i ell_i (1 - p_i z) / (n p_i) with
    the pairwise constant z of Prob(i, j in S) = z p_i p_j, which is 1 by
    independence, and its noise from the scheme's ``moments``.
    """
    if gc.n != scheme.n:
        raise ConfigError(f"scheme is for n={scheme.n}, constants for n={gc.n}")
    b = scheme.batch_size
    if b is not None:
        return ECConstants(
            ell_xi=minibatch_ell_xi(gc.n, b, gc.ell, gc.ell_max),
            sigma_sq=minibatch_sigma_sq(gc.n, b, gc.sigma1_sq),
        )
    extra = max(ell_i / (gc.n * p) * (1.0 - p) for ell_i, p in zip(gc.ell_i, scheme.probs))
    ell_xi = gc.ell + extra
    _, e, c = moments(scheme)
    sigma_sq = second_moment(e, c, game.component_values(game.equilibrium()))
    return ECConstants(ell_xi=ell_xi, sigma_sq=sigma_sq)


def hamiltonian_constants(
    game: QuadraticGame, scheme: SamplingScheme
) -> HamiltonianConstants:
    """Quasi-strong convexity, smoothness and noise constants of H.

    Supports full-batch and single-element uniform sampling (the two used in
    the experiments).  mu_h and l_h are the squared extreme singular values
    of the mean Jacobian; the expected-smoothness constant for
    single-element sampling is the largest spectral norm over the n^2 pair
    Hessians (J_i^T J_j + J_j^T J_i)/2, and the gradient noise is the exact
    expectation over the n^2 equally likely index pairs.

    The largest pair-Hessian norm is attained by a diagonal pair, whose
    Hessian is J_i^T J_i with norm |J_i|^2, since for every pair

        |(J_i^T J_j + J_j^T J_i)/2| <= |J_i^T J_j| <= |J_i| |J_j|
                                    <= max(|J_i|^2, |J_j|^2).

    So cal_l_h is the largest eigenvalue over the n Gram matrices, one
    batched eigvalsh.  The noise adds the n^2 squared pair-gradient norms
    in (i, j) order.  Pair (j, i)'s gradient is bitwise pair (i, j)'s, since
    float addition commutes, so row i computes only the pairs j >= i, one
    row at a time, and mirrors each square into column i.
    """
    if scheme.n != game.n:
        raise ConfigError(f"scheme is for n={scheme.n}, game has n={game.n}")
    full = scheme.is_deterministic
    if not (full or scheme.batch_size == 1):
        raise UnsupportedSchemeError(
            "hamiltonian constants support single-element or full-batch sampling"
        )
    j_mean = game.mean_jacobian()
    svals = numerics.singular_values(j_mean)
    if svals[-1] <= _ZERO_RTOL * max(svals[0], 1.0):
        raise NumericalError("mean Jacobian is singular")
    l_h = float(svals[0] ** 2)
    mu_h = float(svals[-1] ** 2)
    if full:
        return HamiltonianConstants(mu_h=mu_h, l_h=l_h, cal_l_h=l_h, sigma_h_sq=0.0)
    jacs = game.component_jacobians
    grams = np.transpose(jacs, (0, 2, 1)) @ jacs
    cal_l_h = float(np.abs(np.linalg.eigvalsh(grams)).max())
    vals = game.component_values(game.equilibrium())
    # Row i holds |(J_i^T val_j + J_j^T val_i) / 2|^2 for each j >= i, mirrored
    # into column i; the row products are bitwise the one-pair products and dots.
    sq = np.empty((game.n, game.n))
    for i in range(game.n):
        grad = 0.5 * ((vals[i:, None, :] @ jacs[i])[:, 0, :]
                      + (vals[i][None, None, :] @ jacs[i:])[:, 0, :])
        sq[i, i:] = sq[i:, i] = (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
    # A cumulative sum adds in (i, j) order, as one running total would.
    sigma_h_sq = float(np.cumsum(sq.reshape(-1))[-1])
    return HamiltonianConstants(
        mu_h=mu_h, l_h=l_h, cal_l_h=cal_l_h, sigma_h_sq=sigma_h_sq / game.n**2
    )


# ---------------------------------------------------------------------------
# minibatch-size optimization and closed-form bounds
# ---------------------------------------------------------------------------


class OptimalMinibatch(Record):
    b_star_real: float
    b_star: int


def _noise_term(gc: GameConstants, sigma_sq: float, epsilon: float) -> float:
    """2 sigma^2 / (eps mu), inf when eps mu underflows to 0 under noise."""
    scale = epsilon * gc.mu
    return 2.0 * sigma_sq / scale if scale else (math.inf if sigma_sq else 0.0)


def total_complexity(gc: GameConstants, b: int, epsilon: float) -> float:
    """Iteration cost b * max{ell_xi(b), 2 sigma^2(b) / (eps mu)} * 2/mu."""
    ell_xi = minibatch_ell_xi(gc.n, b, gc.ell, gc.ell_max)
    sigma_sq = minibatch_sigma_sq(gc.n, b, gc.sigma1_sq)
    return (2.0 / gc.mu) * b * max(ell_xi, _noise_term(gc, sigma_sq, epsilon))


def optimal_minibatch(gc: GameConstants, epsilon: float) -> OptimalMinibatch:
    """Minibatch size minimizing total complexity to accuracy epsilon.

    b_star is the argmin of total_complexity over b = 1..n, the smaller b
    on a tie.  b_star_real is the real-valued optimizer: 1 when t =
    2 sigma1^2 / (eps mu) <= ell_max, and otherwise n * (ell - ell_max + t)
    / (n ell - ell_max + t), which lies in [1, n] and is n, its limit, once
    t or the formula overflows.
    """
    if gc.mu <= 0.0:
        raise ConfigError("optimal minibatch size needs mu > 0")
    if gc.n < 2:
        raise ConfigError("optimal minibatch size needs n >= 2")
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")
    t = _noise_term(gc, gc.sigma1_sq, epsilon)
    b_real = 1.0
    if t > gc.ell_max:
        b_real = gc.n * (gc.ell - gc.ell_max + t) / (gc.n * gc.ell - gc.ell_max + t)
        # past float range the formula is inf / inf, and min(n, nan) is n; the max
        # lifts a rounding below 1
        b_real = max(1.0, min(float(gc.n), b_real))
    b_star = min(range(1, gc.n + 1), key=lambda b: total_complexity(gc, b, epsilon))
    return OptimalMinibatch(b_star_real=b_real, b_star=b_star)


SGDA_CONSTANT = "sgda_constant"
SGDA_CONSTANT_GENERAL = "sgda_constant_general"
SGDA_SWITCHING = "sgda_switching"
SCO_CONSTANT = "sco_constant"
SHGD_CONSTANT = "shgd_constant"
SCO_SWITCHING = "sco_switching"


def _theory_rule(terms):
    """Constant steps 1/(2 ell_xi) and 1/(2 cal_l_h) on the terms a solvers.TERMS row
    applies, halved when it applies both; 0, reading nothing, on a term it does not.
    ConfigError for a constant that is not > 0 or not finite, NumericalError for
    a step that overflows."""
    factor = 2.0 * sum(terms)

    def step(c, key):
        value = c(key)
        if not value > 0.0:
            raise ConfigError(f"the theory step needs {key} > 0, got {value!r}")
        if value == math.inf:
            raise ConfigError(f"the theory step needs a finite {key}, got {value!r}")
        size = 1.0 / (factor * value)
        if size == math.inf:
            raise NumericalError(f"the theory step 1/({factor:g} {key}) overflows float "
                                 f"range at {key}={value!r}")
        return size

    return lambda c: ConstantSchedule(*(step(c, key) if applies else 0.0
                                        for key, applies in zip(("ell_xi", "cal_l_h"), terms)))


# Each named step rule's schedule for each method it covers, built from c(key), the
# value of each constant it reads.  The theory steps are the constant statements' ceilings.
STEP_RULES = {"theory": {method: _theory_rule(terms) for method, terms in TERMS.items()},
              "switching": {SGDA: lambda c: SwitchingSchedule.sgda(*map(c, ("ell_xi", "mu"))),
                            SCO: lambda c: SwitchingSchedule.sco(
                                *map(c, ("ell_xi", "cal_l_h", "mu", "mu_h")))}}

# Each rate statement's method, step rule (a key of STEP_RULES), envelope slack and
# closed-form parameters.
BOUNDS = {SGDA_CONSTANT: (SGDA, "theory", 1.05, ("alpha", "mu", "ell_xi", "sigma_sq")),
          SGDA_CONSTANT_GENERAL: (SGDA, "theory", 1.05, ("alpha", "mu", "ell_xi", "sigma_sq")),
          SGDA_SWITCHING: (SGDA, "switching", 1.1, ("mu", "ell_xi", "sigma_sq")),
          SCO_CONSTANT: (SCO, "theory", 1.05, ("alpha", "gamma", "mu", "mu_h", "ell_xi",
                                               "cal_l_h", "sigma_sq", "sigma_h_sq")),
          SHGD_CONSTANT: (SHGD, "theory", 1.05, ("gamma", "mu_h", "cal_l_h", "sigma_h_sq")),
          SCO_SWITCHING: (SCO, "switching", 1.1, ("mu", "mu_h", "ell_xi", "cal_l_h", "sigma_sq",
                                                  "sigma_h_sq"))}


def bound_row(bound: str, params=None) -> tuple:
    """``bound``'s row of BOUNDS.  ConfigError for an id the table lacks, or
    for a key of the row that ``params``, when given, lacks."""
    if bound not in BOUNDS:
        raise ConfigError(f"unknown bound id {bound!r}; known: {tuple(BOUNDS)}")
    missing = [key for key in BOUNDS[bound][3] if params is not None and key not in params]
    if missing:
        raise ConfigError(f"{bound} needs {', '.join(missing)}")
    return BOUNDS[bound]


def bound_start(bound: str, params: dict) -> int:
    """First iteration at which ``bound`` holds: a switching rule's switch
    point, else 0, which reads no parameter."""
    method, steps, _, _ = bound_row(bound)
    if steps != "switching":
        return 0
    bound_row(bound, params)
    return STEP_RULES[steps][method](params.__getitem__).switch_point


def theoretical_bound(bound: str, k: int, r0_sq: float, **p) -> float:
    """Closed-form distance bound at iteration k for the given rate statement,
    from the parameters its row of BOUNDS names; other keywords are ignored.
    Its step rule's schedule, built once from them, gives a constant statement's
    step ceilings and a switching one's k*, modulus and start.  Raises
    ConfigError for an unknown bound, a missing parameter, a constant outside
    its range or a k before ``bound_start``, and NumericalError when a step size
    violates the statement's range or the closed form leaves float range."""
    method, steps, _, keys = bound_row(bound, p)
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    if not 0.0 <= r0_sq < math.inf:
        raise ConfigError(f"r0_sq must be finite and >= 0, got {r0_sq!r}")
    for key in keys:
        if key.startswith("sigma") and not p[key] >= 0.0:
            raise ConfigError(f"this rate needs {key} >= 0, got {p[key]!r}")

    def limit(value, ceiling, what, strict=False):
        if not (0.0 <= value < ceiling if strict else 0.0 <= value <= ceiling * (1.0 + _STEP_SLOP)):
            op = "<" if strict else "<="
            raise NumericalError(
                f"step size out of range: {what} must satisfy {what} {op} {ceiling:.6g}"
            )

    try:
        rule = STEP_RULES[steps][method](p.__getitem__)
        if steps == "switching" and k < rule.switch_point:
            raise ConfigError(f"switch not reached: bound valid from iteration "
                              f"{rule.switch_point}, got {k}")
        if bound in (SGDA_CONSTANT, SGDA_CONSTANT_GENERAL):
            alpha, mu, ell_xi, sigma_sq = p["alpha"], p["mu"], p["ell_xi"], p["sigma_sq"]
            if not mu > 0.0:
                raise ConfigError("this rate needs mu > 0")
            if bound == SGDA_CONSTANT:
                limit(alpha, rule.alpha, "alpha")
                return (1.0 - alpha * mu) ** k * r0_sq + 2.0 * alpha * sigma_sq / mu
            limit(alpha, 1.0 / ell_xi, "alpha", strict=True)
            rate = 1.0 - 2.0 * alpha * mu * (1.0 - alpha * ell_xi)
            return rate**k * r0_sq + alpha * sigma_sq / (mu * (1.0 - alpha * ell_xi))

        if bound == SCO_CONSTANT:
            alpha, gamma = p["alpha"], p["gamma"]
            mu, mu_h = p["mu"], p["mu_h"]
            sigma_sq, sigma_h_sq = p["sigma_sq"], p["sigma_h_sq"]
            if not (mu >= 0.0 and mu_h > 0.0):
                raise ConfigError("this rate needs mu >= 0 and mu_h > 0")
            limit(alpha, rule.alpha, "alpha")
            limit(gamma, rule.gamma, "gamma")
            denom = gamma * mu_h + alpha * mu
            if denom <= 0.0:
                raise NumericalError("step size out of range: alpha and gamma may not both vanish")
            rate = 1.0 - denom
            return rate**k * r0_sq + 4.0 * (alpha**2 * sigma_sq + gamma**2 * sigma_h_sq) / denom

        if bound == SHGD_CONSTANT:
            gamma, mu_h, sigma_h_sq = p["gamma"], p["mu_h"], p["sigma_h_sq"]
            if not mu_h > 0.0:
                raise ConfigError("this rate needs mu_h > 0")
            limit(gamma, rule.gamma, "gamma")
            if gamma <= 0.0:
                raise NumericalError("step size out of range: gamma must be positive")
            return (1.0 - gamma * mu_h) ** k * r0_sq + 2.0 * gamma * sigma_h_sq / mu_h

        # a switching bound; SGDA's 16 ceil(ell_xi / mu)^2 is its k* squared
        noise = (8.0 * p["sigma_sq"] if bound == SGDA_SWITCHING
                 else 16.0 * (p["sigma_sq"] + p["sigma_h_sq"]))
        return noise / (rule.modulus**2 * k) + rule.k_star**2 * r0_sq / (math.e**2 * k**2)
    except (ZeroDivisionError, OverflowError) as exc:
        # a divisor that underflowed to 0, or a power or an int past float range
        raise NumericalError(f"{bound} leaves float range: {exc}") from None
