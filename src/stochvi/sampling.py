"""Distributions over sampling vectors v with E[v_i] = 1.

A sampling vector selects a subset S of component indices and carries one
positive weight per selected index; unselected weights are zero.  The
estimator it induces is value_v(x) = (1/n) * sum_{i in S} w_i * value_i(x),
which is unbiased for the full operator value by construction.

Two families are provided: the b-minibatch (uniform b-subsets, weight n/b),
whose b = 1 is single-element uniform sampling and whose b = n is the full
batch (no randomness), and independent per-index inclusion with
probabilities p_i (weight 1/p_i).
Every expectation over v that the verify checks and the independent
scheme's noise constant take is a first or second moment of the weights.
Their second moments are a diagonal plus one constant, so ``moments`` gives
them all in closed form and no support is enumerated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .records import Record


class SamplingScheme(Record):
    """A proper distribution over sampling vectors for n components: a
    uniform minibatch of ``batch_size`` indices, or independent inclusion of
    index i with probability probs[i].  Exactly one of the two is given."""

    n: int
    batch_size: int | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"need n >= 1, got {self.n}")
        if (self.batch_size is None) == (self.probs is None):
            raise ConfigError("a scheme takes either a batch size or inclusion probabilities")
        if self.probs is None:
            if not 1 <= self.batch_size <= self.n:
                raise ConfigError(
                    f"minibatch size must lie in [1, {self.n}], got {self.batch_size}")
        elif len(self.probs) != self.n:
            raise ConfigError("independent scheme needs one probability per index")
        elif any(not 0.0 < p <= 1.0 or not math.isfinite(1.0 / p) for p in self.probs):
            # p_i > 0 makes the scheme proper; a finite 1/p_i bounds 1/(n^2 p_i).
            raise ConfigError("inclusion probabilities must lie in (0, 1] with finite 1/p_i")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def minibatch(n: int, b: int) -> "SamplingScheme":
        return SamplingScheme(n, batch_size=b)

    @staticmethod
    def single_element(n: int) -> "SamplingScheme":
        return SamplingScheme(n, batch_size=1)

    @staticmethod
    def full_batch(n: int) -> "SamplingScheme":
        return SamplingScheme(n, batch_size=n)

    @staticmethod
    def independent(probs) -> "SamplingScheme":
        probs = tuple(float(p) for p in probs)
        return SamplingScheme(len(probs), probs=probs)

    # -- derived views -----------------------------------------------------

    @property
    def is_deterministic(self) -> bool:
        return self.batch_size == self.n

    def label(self) -> str:
        # The full batch comes first: at n = 1 it is also the b = 1 batch.
        b = self.batch_size
        if b is None:
            return "independent"
        if b == self.n:
            return "full_batch"
        if b == 1:
            return "single_element_uniform"
        return f"minibatch(b={b})"


def draw_many(scheme: SamplingScheme, rng: np.random.Generator, count: int):
    """``count`` draws at once, consuming the generator exactly as ``count``
    successive calls of the one-draw reference in tests/reference.py
    (``draw``) do.

    Row r describes the r-th draw: its selected indices in increasing order
    for the minibatch family, shape (count, b), or its inclusion mask for the
    independent scheme, shape (count, n).  The full batch draws nothing and
    returns None.
    """
    n = scheme.n
    b = scheme.batch_size
    if b == n:
        return None
    if b is None:
        return rng.random((count, n)) < np.asarray(scheme.probs)
    # A partial Fisher-Yates shuffle (exactly uniform, b generator calls
    # per draw), one row per draw.
    swaps = rng.integers(np.tile(np.arange(b), count), n).reshape(count, b)
    if b == 1:
        # One swap leaves pool[0] = swaps[:, 0]; no pool is needed.
        return swaps
    pool = np.tile(np.arange(n), (count, 1))
    rows = np.arange(count)
    for i in range(b):
        j = swaps[:, i]
        head = pool[:, i].copy()
        pool[:, i] = pool[rows, j]
        pool[rows, j] = head
    return np.sort(pool[:, :b], axis=1)


def index_weights(scheme: SamplingScheme):
    """Estimator weight of each selected index, with the 1/n folded in:
    (n/b)/n for the minibatch family (one float), (1/p_i)/n for the
    independent scheme (one per index)."""
    n = scheme.n
    if scheme.batch_size is None:
        return (1.0 / np.asarray(scheme.probs)) / n
    return (n / scheme.batch_size) / n


def moments(scheme: SamplingScheme):
    """The moments (q, e, c) of the weights W_i = 1[i in S] * w_i / n,
    which fix every expectation over v:

        E[W_i] = q_i = Pr(i in S) * w_i / n,
        E|sum_i W_i y_i|^2 = sum_i e_i |y_i|^2 + c |sum_i y_i|^2,

    since E[W_i W_j] is c off the diagonal and e_i + c on it.  The
    b-minibatch has c = (b-1)/(n(n-1)b), 0 at n = 1, and e_i = 1/(nb) - c;
    the independent scheme c = 1/n^2 and e_i = 1/(n^2 p_i) - c.
    """
    n = scheme.n
    b = scheme.batch_size
    if b is None:
        incl = np.asarray(scheme.probs)
        c = 1.0 / n**2
        diag = 1.0 / (n**2 * incl)
    else:
        incl = np.full(n, b / n)
        c = (b - 1) / (n * (n - 1) * b) if n > 1 else 0.0
        diag = np.full(n, 1.0 / (n * b))
    return incl * index_weights(scheme), diag - c, c


def second_moment(e, c: float, y: np.ndarray) -> float:
    """E|sum_i W_i y_i|^2 for the rows y_i of ``y``, from ``moments``' (e, c)."""
    total = y.sum(axis=0)
    return float(e @ np.einsum("ij,ij->i", y, y) + c * (total @ total))
