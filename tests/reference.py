"""One-point reference implementations that the package's batched code is
held to.

Nothing in the package calls these.  They are the literal definitions: one
support vector, one draw, one estimator term and one update at a time, so a
test can hold the closed-form moments of a scheme (``sampling.moments``) to
the enumerated support and the seed-batched engine (``solvers.run_batch``)
to the one-point run bit for bit; one
orthogonal factor and one co-coercivity constant at a time, so a test can
compare the stacked game generation and ``game_constants`` with them bit for
bit; and the grid oracle gives the closed-form co-coercivity constant an
independent check.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from stochvi import constants, numerics
from stochvi.errors import ConfigError, NumericalError
from stochvi.experiments import GameGenConfig, _spread_diagonal
from stochvi.operators import FiniteSumOperator, QuadraticGame
from stochvi.sampling import SamplingScheme
from stochvi.solvers import DIVERGENCE_FACTOR, METHODS, TERMS, _applied_steps

# Random unit directions the grid oracle samples before refining.
_GRID_SAMPLES = 100_000


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingVector:
    """Selected index set with one weight per selected index."""

    indices: tuple[int, ...]
    weights: tuple[float, ...]

    def dense(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        v[list(self.indices)] = self.weights
        return v


def enumerate_support(scheme: SamplingScheme) -> list:
    """The support one vector at a time, as a list of (probability,
    SamplingVector): ``itertools.combinations`` for the minibatch family, and
    ``itertools.product`` over inclusion masks, zero-probability masks
    dropped, for the independent scheme."""
    n = scheme.n
    b = scheme.batch_size
    if b is not None:
        prob = 1.0 / math.comb(n, b)
        weight = (n / b,) * b
        return [(prob, SamplingVector(combo, weight))
                for combo in itertools.combinations(range(n), b)]
    probs = np.asarray(scheme.probs)
    out = []
    for mask in itertools.product((0, 1), repeat=n):
        sel = tuple(i for i in range(n) if mask[i])
        p = float(np.prod(np.where(np.asarray(mask, dtype=bool), probs, 1.0 - probs)))
        if p > 0.0:
            out.append((p, SamplingVector(sel, tuple(1.0 / probs[i] for i in sel))))
    return out


def draw(scheme: SamplingScheme, rng: np.random.Generator) -> SamplingVector:
    """Draw one sampling vector; deterministic given the generator state.

    Minibatch subsets come from a partial Fisher-Yates shuffle (exactly
    uniform, b generator calls).  The full-batch case consumes no randomness.
    """
    n = scheme.n
    b = scheme.batch_size
    if b == n:
        return SamplingVector(tuple(range(n)), (1.0,) * n)
    if b is None:
        u = rng.random(n)
        idx = tuple(int(i) for i in np.nonzero(u < np.asarray(scheme.probs))[0])
        return SamplingVector(idx, tuple(1.0 / scheme.probs[i] for i in idx))
    pool = list(range(n))
    for i in range(b):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    idx = tuple(sorted(pool[:b]))
    return SamplingVector(idx, (n / b,) * b)


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
    identical to the specialized method.  run_batch applies the same update
    to a batch of points; this one-point form is its reference.  u may be
    None only when no Hamiltonian step is taken.
    """
    if method not in TERMS:
        raise ConfigError(f"unknown method {method!r}; known: {METHODS}")
    alpha, gamma = _applied_steps(method, alpha, gamma)
    if alpha == 0.0 and gamma == 0.0:
        return x
    val_v = sampled_value(op, x, v)
    out = x
    if alpha != 0.0:
        out = out - alpha * val_v
    if gamma != 0.0:
        out = out - gamma * stochastic_hamiltonian_gradient(op, x, v, u, val_u=val_v)
    return out


def reference_run(*, method, operator, scheme, schedule, iterations, seed, x0=None):
    """One seed, one point at a time, from the single-point definitions:
    draw v (and u for a nonzero Hamiltonian step), solver_step, record,
    and stop at an iterate that is not finite or, from a start away from
    x*, more than DIVERGENCE_FACTOR times the initial squared distance away.
    Returns (dist_sq, iterates, final x)."""
    op, rng = operator, numerics.make_rng(seed)
    x_star = op.equilibrium()
    if x0 is None:
        g = rng.standard_normal(op.dim)
        x = x_star + g / np.linalg.norm(g)
    else:
        x = np.array(x0, dtype=float)
    xs = [x]
    for k in range(iterations):
        alpha, gamma = schedule.at(k)
        uses_da, uses_ham = TERMS[method]
        alpha, gamma = (alpha if uses_da else 0.0), (gamma if uses_ham else 0.0)
        v = draw(scheme, rng)
        u = draw(scheme, rng) if gamma != 0.0 else None
        x = solver_step(method, op, x, v, u, alpha, gamma)
        xs.append(x)
        dist = (x - x_star) @ (x - x_star)
        dist0 = (xs[0] - x_star) @ (xs[0] - x_star)
        if not np.all(np.isfinite(x)) or dist0 > 0.0 and dist > DIVERGENCE_FACTOR * dist0:
            break
    dist_sq = np.array([(y - x_star) @ (y - x_star) for y in xs])
    return dist_sq, np.array(xs), x


# ---------------------------------------------------------------------------
# game generation and component constants, one matrix at a time
# ---------------------------------------------------------------------------


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random orthogonal matrix.

    QR-factors a matrix of independent standard normals and flips column
    signs so the triangular factor has a positive diagonal, which makes the
    distribution exactly Haar.  Deterministic given the generator state.
    """
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def generate_game(cfg: GameGenConfig) -> QuadraticGame:
    """The per-component loop ``experiments.generate_game`` is held to: each
    factor is formed right after its draws, in the documented draw order."""
    rng = numerics.make_rng(cfg.seed)
    n, d1, d2 = cfg.n, cfg.d1, cfg.d2
    k = min(d1, d2)
    a_mats = np.empty((n, d1, d1))
    b_mats = np.empty((n, d1, d2))
    c_mats = np.empty((n, d2, d2))
    a_vecs = np.empty((n, d1))
    c_vecs = np.empty((n, d2))
    for i in range(n):
        first, last = i == 0, i == n - 1
        q = random_orthogonal(d1, rng)
        diag = _spread_diagonal(rng, d1, cfg.mu_a, cfg.l_a, first, last)
        a_mats[i] = (q * diag) @ q.T
        a_mats[i] = 0.5 * (a_mats[i] + a_mats[i].T)
        q = random_orthogonal(d2, rng)
        diag = _spread_diagonal(rng, d2, cfg.mu_c, cfg.l_c, first, last)
        c_mats[i] = (q * diag) @ q.T
        c_mats[i] = 0.5 * (c_mats[i] + c_mats[i].T)
        u = random_orthogonal(d1, rng)
        v = random_orthogonal(d2, rng)
        svals = rng.uniform(cfg.mu_b, cfg.l_b, k)
        b_mats[i] = (u[:, :k] * svals) @ v[:, :k].T
        a_vecs[i] = rng.standard_normal(d1)
        c_vecs[i] = rng.standard_normal(d2)
    return QuadraticGame(a_mats, b_mats, c_mats, a_vecs, c_vecs)


def cocoercivity_one(m) -> float:
    """The closed-form co-coercivity constant of one matrix, written out:
    the largest eigenvalue of (MW)^T MW with W the eigenvectors of sym(M)
    on its positive subspace, scaled by their eigenvalues' inverse roots."""
    m = numerics.as_matrix(m)
    sym = 0.5 * (m + m.T)
    evals, evecs = np.linalg.eigh(sym)
    scale = max(float(np.abs(evals).max(initial=0.0)), float(np.abs(m).max(initial=0.0)))
    if scale == 0.0:
        return 0.0
    tol = constants._ZERO_RTOL * scale
    if evals.min() < -tol:
        raise NumericalError(
            f"not co-coercive: symmetric part has negative eigenvalue {evals.min():.3e}"
        )
    null = evals <= tol
    if np.any(null):
        if np.abs(m @ evecs[:, null]).max() > 1e-9 * scale:
            raise NumericalError("not co-coercive: direction with <x, Mx> = 0 but Mx != 0")
        if np.all(null):
            return 0.0
    mw = m @ (evecs[:, ~null] / np.sqrt(evals[~null]))
    return float(np.linalg.eigvalsh(mw.T @ mw).max())


def cocoercivity_loop(stack) -> list[float]:
    """``cocoercivity_one`` of each matrix of a stack, in order."""
    return [cocoercivity_one(m) for m in stack]


# ---------------------------------------------------------------------------
# matrix co-coercivity by direct search
# ---------------------------------------------------------------------------


def _cocoercivity_grid(m: np.ndarray, rng: np.random.Generator) -> float:
    d = m.shape[0]
    if d > 6:
        raise ConfigError("grid oracle is limited to dimensions <= 6")
    scale = max(float(np.abs(m).max(initial=0.0)), 1.0)
    if np.abs(m).max() == 0.0:
        return 0.0

    def ratios(pts):
        # |Mx|^2 / <x, Mx> per unit row x; rows with Mx = 0 constrain nothing.
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        mx = pts @ m.T
        num = np.einsum("ij,ij->i", mx, mx)
        den = np.einsum("ij,ij->i", pts, mx)
        if np.any((den <= 0.0) & (np.sqrt(num) > 1e-9 * scale)):
            raise NumericalError("not co-coercive: grid point with <x, Mx> <= 0 and Mx != 0")
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)

    pts = rng.standard_normal((_GRID_SAMPLES, d))
    vals = ratios(pts)
    best = int(np.argmax(vals))
    x, ratio = pts[best], float(vals[best])
    # Random search around the best point, 64 perturbations a round; the
    # radius halves after every round that finds nothing better.
    radius = 0.1
    for _ in range(2000):
        cand = x + radius * rng.standard_normal((64, d))
        vals = ratios(cand)
        best = int(np.argmax(vals))
        if vals[best] > ratio:
            x, ratio = cand[best], float(vals[best])
        else:
            radius *= 0.5
            if radius < 1e-9:
                break
    return ratio


def grid_cocoercivity(m, rng: np.random.Generator | None = None) -> float:
    """Co-coercivity constant of x -> Mx by direct maximization of
    |Mx|^2 / <x, Mx> over random unit vectors plus a random local search
    around the best one, for dimensions <= 6.  It uses no eigen-decomposition
    or linear solve, so it checks ``constants.matrix_cocoercivity``
    independently.  Without ``rng`` it uses a fixed seed, so results are
    reproducible."""
    if rng is None:
        rng = numerics.make_rng(20_240_601)
    return _cocoercivity_grid(numerics.as_matrix(m), rng)
