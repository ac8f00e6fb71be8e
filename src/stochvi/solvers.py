"""Iteration engines: gradient descent-ascent, Hamiltonian descent and their
consensus combination, stochastic or deterministic, plus the step-size rules
the rate statements prescribe.

Randomness bookkeeping is part of the contract: each iteration draws the
value-estimator vector v first and the second vector u only when the update
actually applies a Hamiltonian term with a nonzero step.  This makes the
degenerate limits exact: a consensus run with gamma identically zero consumes
the same stream as a plain descent-ascent run and produces bitwise-identical
iterates, and likewise for alpha = 0 versus pure Hamiltonian descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigError, MissingSecondDrawError
from .operators import FiniteSumOperator
from .sampling import SamplingScheme, SamplingVector, draw

SGDA = "sgda"
SHGD = "shgd"
SCO = "sco"
GDA = "gda"
CO = "co"
METHODS = (SGDA, SHGD, SCO, GDA, CO)

# The terms each method's update applies: (descent-ascent, Hamiltonian).
TERMS = {SGDA: (True, False), SHGD: (False, True), SCO: (True, True),
         GDA: (True, False), CO: (True, True)}

# Methods whose update includes the Hamiltonian-gradient term.
HAMILTONIAN_METHODS = tuple(m for m in METHODS if TERMS[m][1])

# Methods that run on the full batch by definition.
DETERMINISTIC_METHODS = (GDA, CO)

DIVERGENCE_FACTOR = 1e12


# ---------------------------------------------------------------------------
# step-size schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSchedule:
    """Fixed (alpha, gamma) for every iteration."""

    alpha: float
    gamma: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(step) and step >= 0.0 for step in (self.alpha, self.gamma)):
            raise ConfigError(
                f"step sizes must be finite and nonnegative, got "
                f"alpha={self.alpha!r}, gamma={self.gamma!r}"
            )

    @property
    def switch_point(self) -> int | None:
        return None

    def at(self, k: int) -> tuple[float, float]:
        return self.alpha, self.gamma


@dataclass(frozen=True)
class SgdaSwitchingSchedule:
    """Constant 1/(2 ell_xi) until 4*ceil(ell_xi/mu), then (2k+1)/((k+1)^2 mu).

    The decreasing tail is monotone nonincreasing and stays below the
    constant phase's value, so the rate statement's range condition holds at
    every iteration.  gamma is identically zero.
    """

    ell_xi: float
    mu: float

    def __post_init__(self):
        if self.ell_xi <= 0.0 or self.mu <= 0.0:
            raise ConfigError("switching schedule needs ell_xi > 0 and mu > 0")

    @property
    def switch_point(self) -> int:
        return 4 * math.ceil(self.ell_xi / self.mu)

    def at(self, k: int) -> tuple[float, float]:
        if k <= self.switch_point:
            return 1.0 / (2.0 * self.ell_xi), 0.0
        return (2.0 * k + 1.0) / ((k + 1.0) ** 2 * self.mu), 0.0


@dataclass(frozen=True)
class ScoSwitchingSchedule:
    """alpha_k = gamma_k = 1/(4 psi) until ceil(8 psi / (mu_h + mu)), then
    (2k+1)/((k+1)^2 (mu_h + mu)), with psi = max(ell_xi, cal_l_h).

    mu = 0 (variational stability only) is allowed; the moduli then reduce
    to mu_h alone.
    """

    ell_xi: float
    cal_l_h: float
    mu: float
    mu_h: float

    def __post_init__(self):
        if self.ell_xi <= 0.0 or self.cal_l_h <= 0.0:
            raise ConfigError("switching schedule needs positive smoothness constants")
        if self.mu < 0.0 or self.mu_h <= 0.0:
            raise ConfigError("switching schedule needs mu >= 0 and mu_h > 0")

    @property
    def psi(self) -> float:
        return max(self.ell_xi, self.cal_l_h)

    @property
    def k_star(self) -> float:
        """Real-valued switch point 8 psi / (mu_h + mu), as the bound uses it."""
        return 8.0 * self.psi / (self.mu_h + self.mu)

    @property
    def switch_point(self) -> int:
        return math.ceil(self.k_star)

    def at(self, k: int) -> tuple[float, float]:
        if k <= self.switch_point:
            step = 1.0 / (4.0 * self.psi)
        else:
            step = (2.0 * k + 1.0) / ((k + 1.0) ** 2 * (self.mu_h + self.mu))
        return step, step


def step_sizes(schedule, k: int) -> tuple[float, float]:
    """(alpha_k, gamma_k) for iteration k >= 0."""
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    return schedule.at(k)


# ---------------------------------------------------------------------------
# estimator evaluation and one solver step
# ---------------------------------------------------------------------------


def _weighted_sum(component, x: np.ndarray, vec: SamplingVector, n: int, shape) -> np.ndarray:
    """(1/n) * sum_{i in S} w_i * component(i, x), accumulated in index order.

    A unit scale skips the multiplication, so a single-element or full-batch
    estimate is bitwise the plain component term or sum of terms.
    """
    acc = None
    for i, w in zip(vec.indices, vec.weights):
        term = component(i, x)
        scale = w / n
        if scale != 1.0:
            term = term * scale
        acc = term if acc is None else acc + term
    return np.zeros(shape) if acc is None else acc


def sampled_value(op: FiniteSumOperator, x: np.ndarray, vec: SamplingVector) -> np.ndarray:
    """Estimator value (1/n) * sum_{i in S} w_i * component_value(i, x)."""
    return _weighted_sum(op.component_value, x, vec, op.n, op.dim)


def sampled_jacobian(op: FiniteSumOperator, x: np.ndarray, vec: SamplingVector) -> np.ndarray:
    """Estimator Jacobian (1/n) * sum_{i in S} w_i * component_jacobian(i, x)."""
    return _weighted_sum(op.component_jacobian, x, vec, op.n, (op.dim, op.dim))


def stochastic_hamiltonian_gradient(
    op: FiniteSumOperator,
    x: np.ndarray,
    u: SamplingVector,
    v: SamplingVector,
    val_u: np.ndarray | None = None,
) -> np.ndarray:
    """Unbiased Hamiltonian-gradient estimator from two independent draws:

        (J_u(x)^T value_v(x) + J_v(x)^T value_u(x)) / 2.

    Symmetric under swapping u and v, and its expectation over independent
    (u, v) equals J(x)^T value(x), the gradient of |value(x)|^2 / 2.
    ``val_u``, when given, is value_u(x) already evaluated by the caller.
    """
    j_u = sampled_jacobian(op, x, u)
    j_v = sampled_jacobian(op, x, v)
    if val_u is None:
        val_u = sampled_value(op, x, u)
    val_v = sampled_value(op, x, v)
    return 0.5 * (j_u.T @ val_v + j_v.T @ val_u)


def _applied_steps(method: str, alpha: float, gamma: float) -> tuple[float, float]:
    """(alpha, gamma) with the step of each term ``method`` does not apply
    set to zero."""
    uses_descent_ascent, uses_hamiltonian = TERMS[method]
    return (alpha if uses_descent_ascent else 0.0), (gamma if uses_hamiltonian else 0.0)


def solver_step(
    method: str,
    op: FiniteSumOperator,
    x: np.ndarray,
    v: SamplingVector,
    u: SamplingVector | None,
    alpha: float,
    gamma: float,
) -> np.ndarray:
    """One update of the chosen method from x.

    Descent-ascent: x - alpha * value_v(x).  Hamiltonian descent:
    x - gamma * hamiltonian_gradient_{v,u}(x).  Consensus: both terms, with
    value_v(x) evaluated once for the two.  Zero step sizes skip the
    corresponding term entirely so degenerate configurations are bitwise
    identical to the specialized method.
    """
    if method not in TERMS:
        raise ConfigError(f"unknown method {method!r}; known: {METHODS}")
    alpha, gamma = _applied_steps(method, alpha, gamma)
    if gamma != 0.0 and u is None:
        raise MissingSecondDrawError(f"{method} needs a second sampling vector")
    if alpha == 0.0 and gamma == 0.0:
        return x
    val_v = sampled_value(op, x, v)
    out = x
    if alpha != 0.0:
        out = out - alpha * val_v
    if gamma != 0.0:
        out = out - gamma * stochastic_hamiltonian_gradient(op, x, v, u, val_u=val_v)
    return out


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One seeded solver run.

    The default initial point is a seed-derived standard-normal direction
    placed at distance exactly 1 from the equilibrium when it is known
    (traces are then directly relative distances), or a unit-norm vector
    otherwise.
    """

    method: str
    operator: FiniteSumOperator
    scheme: SamplingScheme
    schedule: object
    iterations: int
    seed: int
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; known: {METHODS}")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.scheme.n != self.operator.n:
            raise ConfigError(
                f"scheme is for n={self.scheme.n}, operator has n={self.operator.n}"
            )
        if self.method in DETERMINISTIC_METHODS and not self.scheme.is_deterministic:
            raise ConfigError(f"{self.method} requires the full-batch scheme")


@dataclass
class RunTrace:
    """Per-iteration record of one run.

    dist_sq and op_norm_sq have length iterations+1 unless the divergence
    guard truncated the run, in which case ``diverged`` is set and the
    arrays end at the offending iterate.
    """

    method: str
    seed: int
    dist_sq: np.ndarray | None
    op_norm_sq: np.ndarray
    final_x: np.ndarray
    alphas: np.ndarray
    gammas: np.ndarray
    diverged: bool = False
    iterates: np.ndarray | None = None


def _initial_point(config: RunConfig, rng: np.random.Generator, x_star) -> np.ndarray:
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float)
        if x0.shape != (config.operator.dim,):
            raise ConfigError("x0 has the wrong dimension")
        return x0.copy()
    g = rng.standard_normal(config.operator.dim)
    g /= np.linalg.norm(g)
    return g if x_star is None else x_star + g


def run(config: RunConfig, record_iterates: bool = False) -> RunTrace:
    """Execute the configured run; deterministic given the seed.

    Per iteration: evaluate (alpha_k, gamma_k), draw v, draw u when a
    nonzero Hamiltonian step will be taken, apply the step, record
    |x - x*|^2 (when the equilibrium is known) and |value(x)|^2.
    """
    op = config.operator
    rng = numerics.make_rng(config.seed)
    x_star = op.equilibrium() if op.has_equilibrium else None
    x = _initial_point(config, rng, x_star)
    k_max = config.iterations

    dist = None if x_star is None else np.empty(k_max + 1)
    opn = np.empty(k_max + 1)
    alphas = np.empty(k_max)
    gammas = np.empty(k_max)
    iterates = np.empty((k_max + 1, op.dim)) if record_iterates else None

    def record(k, xk):
        if iterates is not None:
            iterates[k] = xk
        val = op.full_value(xk)
        opn[k] = val @ val
        if dist is not None:
            diff = xk - x_star
            dist[k] = diff @ diff

    record(0, x)
    dist0 = dist[0] if dist is not None else None
    steps_done = 0
    diverged = False
    for k in range(k_max):
        alpha, gamma = _applied_steps(config.method, *config.schedule.at(k))
        v = draw(config.scheme, rng)
        u = draw(config.scheme, rng) if gamma != 0.0 else None
        x = solver_step(config.method, op, x, v, u, alpha, gamma)
        alphas[k] = alpha
        gammas[k] = gamma
        steps_done = k + 1
        record(k + 1, x)
        bad = not np.all(np.isfinite(x))
        if dist is not None and dist0 is not None and dist0 > 0.0:
            bad = bad or dist[k + 1] > DIVERGENCE_FACTOR * dist0
        if bad:
            diverged = True
            break

    end = steps_done + 1
    return RunTrace(
        method=config.method,
        seed=config.seed,
        dist_sq=None if dist is None else dist[:end],
        op_norm_sq=opn[:end],
        final_x=x,
        alphas=alphas[:steps_done],
        gammas=gammas[:steps_done],
        diverged=diverged,
        iterates=None if iterates is None else iterates[:end],
    )
