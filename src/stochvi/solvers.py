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

import numpy as np

from . import numerics
from .errors import ConfigError
from .operators import FiniteSumOperator
from .records import Record
from .sampling import SamplingScheme, draw_many, index_weights

SGDA = "sgda"
SHGD = "shgd"
SCO = "sco"
GDA = "gda"
CO = "co"
METHODS = (SGDA, SHGD, SCO, GDA, CO)

# The terms each method's update applies: (descent-ascent, Hamiltonian).
TERMS = {SGDA: (True, False), SHGD: (False, True), SCO: (True, True),
         GDA: (True, False), CO: (True, True)}

# Methods that run on the full batch by definition.
DETERMINISTIC_METHODS = (GDA, CO)

DIVERGENCE_FACTOR = 1e12

# Steps whose distances run_batch records, and whose iterates it checks for
# divergence, in one pass.
BLOCK = 8


# ---------------------------------------------------------------------------
# step-size schedules
# ---------------------------------------------------------------------------


class ConstantSchedule(Record):
    """Fixed (alpha, gamma) for every iteration."""

    alpha: float
    gamma: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(step) and step >= 0.0 for step in (self.alpha, self.gamma)):
            raise ConfigError(
                f"step sizes must be finite and nonnegative, got "
                f"alpha={self.alpha!r}, gamma={self.gamma!r}"
            )

    def at(self, k: int) -> tuple[float, float]:
        return self.alpha, self.gamma


class SgdaSwitchingSchedule(Record):
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


class ScoSwitchingSchedule(Record):
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


def _applied_steps(method: str, alpha: float, gamma: float) -> tuple[float, float]:
    """(alpha, gamma) with the step of each term ``method`` does not apply
    set to zero."""
    uses_descent_ascent, uses_hamiltonian = TERMS[method]
    return (alpha if uses_descent_ascent else 0.0), (gamma if uses_hamiltonian else 0.0)


# ---------------------------------------------------------------------------
# batched estimator
# ---------------------------------------------------------------------------


class _BatchEstimator:
    """Estimator value_v(x) and Jacobian J_v(x) for S points at once.

    ``sel`` holds one row of draw_many per point (None for the full batch).
    Terms come from ``batch_terms``, the operator's one batched read.  They
    are scaled and summed in index order, as the one-point reference
    estimator in tests/reference.py (_weighted_sum) accumulates them, so row
    s is bitwise the one-point estimate at xs[s].
    """

    def __init__(self, op: FiniteSumOperator, scheme: SamplingScheme):
        self.op = op
        self.independent = scheme.batch_size is None
        self.scale = index_weights(scheme)
        # The full-batch Jacobian of an affine operator is one constant matrix.
        self.full_jacobian = None
        if scheme.is_deterministic and op.affine:
            jacs = op.batch_terms(np.zeros((1, op.dim)), jacobian=True)[1]
            self.full_jacobian = self._reduce(None, jacs)[0]

    def _reduce(self, sel, terms: np.ndarray) -> np.ndarray:
        """Row s sums the scaled terms[s, i] over axis 1 in index order, for
        independent sampling over the i with sel[s, i] (none gives +0).

        Scaling by 1.0 is exact, so it stands for the unit-scale skip.  Over
        multi-element terms add.reduce adds index by index (an undocumented
        order the seed-batch tests hold), and initial=-0.0 keeps a sum of
        -0.0 terms at -0.0.  It adds one-element terms pairwise, so those
        take a cumulative sum; its -0.0 fill changes no partial sum."""
        if not self.independent:
            if self.scale != 1.0:
                terms = terms * self.scale
            if terms.shape[1] == 1:
                return terms[:, 0]
            where = True
        else:
            tail = (1,) * (terms.ndim - 2)
            terms = terms * self.scale.reshape((-1,) + tail)
            where = sel.reshape(sel.shape + tail)
        if terms[0, 0].size == 1:
            out = np.cumsum(np.where(where, terms, -0.0), axis=1)[:, -1]
        else:
            out = np.add.reduce(terms, axis=1, initial=-0.0, where=where)
        if self.independent:
            out[~sel.any(axis=1)] = 0.0
        return out

    def evaluate(self, sel, xs: np.ndarray, jacobian: bool = False):
        """(value_{sel[s]}(xs[s]) per row, and with ``jacobian`` the
        estimator Jacobians J_{sel[s]}(xs[s]), else None), from one
        batch_terms read; a constant full-batch Jacobian is not read again."""
        read = jacobian and self.full_jacobian is None
        vals, jacs = self.op.batch_terms(xs, None if self.independent else sel, read)
        val = self._reduce(sel, vals)
        if read:
            return val, self._reduce(sel, jacs)
        return val, self.full_jacobian if jacobian else None


def _jac_t(jac: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row s is jac[s]^T w[s] (jac may be one matrix for every row)."""
    return (w[:, None, :] @ jac)[:, 0]


def _row_dots(a: np.ndarray) -> np.ndarray:
    """a[s] @ a[s] for each row, bitwise the one-row dot product."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


class RunTrace(Record):
    """Per-iteration record of one run.

    dist_sq, the squared distance to the equilibrium, has length
    iterations+1 unless the divergence guard truncated the run, in which
    case ``diverged`` is set and it ends at the offending iterate; the run
    took len(dist_sq) - 1 steps.
    """

    seed: int
    dist_sq: np.ndarray
    final_x: np.ndarray
    diverged: bool = False
    iterates: np.ndarray | None = None


def run_batch(operator: FiniteSumOperator, scheme: SamplingScheme, method: str,
              iterations: int, seeds: int, schedule, base_seed: int = 0, *,
              x0=None, record_iterates: bool = False) -> list[RunTrace]:
    """Run ``method`` for ``iterations`` steps once per seed base_seed, ...,
    base_seed + seeds - 1, advancing all seeds together on (seeds, dim)
    arrays; deterministic given the seeds, traces in seed order.

    A run is recorded as its distance to the equilibrium, so the operator
    must have one.  Each seed starts at ``x0`` or, by default, at a
    seed-derived standard-normal direction placed at distance exactly 1 from
    it (traces are then directly relative distances).

    Per iteration: evaluate (alpha_k, gamma_k), take seed s's v draw and, when
    a nonzero Hamiltonian step will be taken, its u draw, and apply the step.
    Each seed's draws come from its own generator, drawn up front in the
    order the steps consume them, and every batched product is bitwise its
    one-point counterpart, so a seed's trace does not depend on which seeds
    share its batch.  The iterates of BLOCK steps are kept, and after each
    block |x - x*|^2 is recorded for all of them in one pass.

    A seed whose iterate is not finite or, from a start off x*, beyond
    DIVERGENCE_FACTOR times its initial squared distance is found at the end
    of its block of BLOCK steps.  Its trace ends at that first offending
    iterate.  It stays in the batch and is stepped on with the others, with
    numpy's overflow and invalid-value warnings silenced, until the run ends
    or every seed has stopped, and those steps are thrown away.
    ``record_iterates`` keeps the first seed's iterates.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; known: {METHODS}")
    if iterations < 0:
        raise ConfigError("iterations must be >= 0")
    if seeds < 1:
        raise ConfigError("need at least one seed")
    if scheme.n != operator.n:
        raise ConfigError(f"scheme is for n={scheme.n}, operator has n={operator.n}")
    if method in DETERMINISTIC_METHODS and not scheme.is_deterministic:
        raise ConfigError(f"{method} requires the full-batch scheme")
    if not callable(getattr(schedule, "at", None)):
        raise ConfigError(f"schedule must be a schedule object, got {schedule!r}")
    x_star, dim = operator.equilibrium(), operator.dim
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (dim,):
            raise ConfigError("x0 has the wrong dimension")
    steps = [_applied_steps(method, *schedule.at(k)) for k in range(iterations)]
    # Draw position of each step's v; its u, drawn when gamma_k != 0, follows it.
    counts = 1 + (np.array([g for _, g in steps]) != 0.0)
    v_at = (np.cumsum(counts) - counts).tolist()

    xs, draws = [], []
    for seed in range(base_seed, base_seed + seeds):
        rng = numerics.make_rng(seed)
        if x0 is None:
            g = rng.standard_normal(dim)
            xs.append(x_star + g / np.linalg.norm(g))
        else:
            xs.append(x0)
        draws.append(draw_many(scheme, rng, int(counts.sum())))
    x = np.stack(xs)
    # draws[r, s] is seed s's r-th draw.
    draws = None if draws[0] is None else np.stack(draws, axis=1)
    estimator = _BatchEstimator(operator, scheme)

    dist = np.empty((seeds, iterations + 1))
    iterates = np.empty((iterations + 1, dim)) if record_iterates else None
    steps_done = np.full(seeds, iterations)
    diverged = np.zeros(seeds, dtype=bool)
    final_x = np.empty((seeds, dim))
    # Each step writes its iterates into the next row of the block.
    blocks = np.empty((min(BLOCK, iterations), seeds, dim))

    d0 = dist[:, 0] = _row_dots(x - x_star)
    # A row within its limit is finite and not diverged, so one comparison
    # clears a block; the full predicate runs only when some row is beyond it.
    limit = np.minimum(np.where(d0 > 0.0, DIVERGENCE_FACTOR * d0, np.inf), np.finfo(float).max)
    if iterates is not None:
        iterates[0] = x[0]
    # The guard reports a run that overflows, so numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, iterations, BLOCK):
            block = blocks[:min(BLOCK, iterations - start)]
            for k, row in enumerate(block, start):
                alpha, gamma = steps[k]
                if alpha == 0.0 and gamma == 0.0:
                    row[...] = x
                    x = row
                    continue
                v = None if draws is None else draws[v_at[k]]
                val_v, jac_v = estimator.evaluate(v, x, jacobian=gamma != 0.0)
                if gamma == 0.0:
                    x = np.subtract(x, alpha * val_v, out=row)
                    continue
                # (J_v^T value_u + J_u^T value_v) / 2, the pairing of the
                # one-point reference in tests/reference.py,
                # stochastic_hamiltonian_gradient(op, x, v, u, val_u=value_v)
                if draws is None:  # no draws: u's estimate is v's
                    term = _jac_t(jac_v, val_v)
                    grad = 0.5 * (term + term)
                else:
                    val_u, jac_u = estimator.evaluate(draws[v_at[k] + 1], x, jacobian=True)
                    grad = 0.5 * (_jac_t(jac_v, val_u) + _jac_t(jac_u, val_v))
                if alpha != 0.0:
                    x = x - alpha * val_v
                x = np.subtract(x, gamma * grad, out=row)
            stop = start + len(block) + 1
            d = _row_dots((block - x_star).reshape(-1, dim)).reshape(len(block), -1)
            dist[:, start + 1:stop] = d.T
            if iterates is not None:
                iterates[start + 1:stop] = block[:, 0]
            if (d <= limit).all():
                continue
            bad = ~np.isfinite(block).all(axis=2) | (d0 > 0.0) & (d > DIVERGENCE_FACTOR * d0)
            hit = bad.any(axis=0) & ~diverged
            first = bad.argmax(axis=0)[hit]
            steps_done[hit] = start + 1 + first
            final_x[hit] = block[first, hit]
            diverged |= hit
            if diverged.all():
                break
    final_x[~diverged] = x[~diverged]

    traces = []
    for s in range(seeds):
        end = steps_done[s] + 1
        traces.append(RunTrace(
            seed=base_seed + s,
            dist_sq=dist[s, :end],
            final_x=final_x[s],
            diverged=bool(diverged[s]),
            iterates=iterates[:end] if iterates is not None and s == 0 else None,
        ))
    return traces
