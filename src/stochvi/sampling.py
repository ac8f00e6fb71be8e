"""Distributions over sampling vectors v with E[v_i] = 1.

A sampling vector selects a subset S of component indices and carries one
positive weight per selected index; unselected weights are zero.  The
estimator it induces is value_v(x) = (1/n) * sum_{i in S} w_i * value_i(x),
which is unbiased for the full operator value by construction.

Two families are provided: the b-minibatch (uniform b-subsets, weight n/b),
whose b = 1 is single-element uniform sampling and whose b = n is the full
batch (no randomness), and independent per-index inclusion with
probabilities p_i (weight 1/p_i).
Exact support enumeration gives the expectations over v that the verify
checks and the independent scheme's noise constant need; it is capped at
1e6 support points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SUPPORT_CAP = 10**6


@dataclass(frozen=True)
class SamplingScheme:
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
        elif any(not 0.0 < p <= 1.0 for p in self.probs):
            # Every p_i must be positive for the scheme to be proper.
            raise ConfigError("inclusion probabilities must lie in (0, 1]")

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


def enumerate_support(scheme: SamplingScheme):
    """Exhaustive support as (probs, W): probs[k] is the probability of the
    k-th support point and row k of W maps stacked component values straight
    to its estimate, estimate_k = W[k] @ values.

    Rows follow ``itertools.combinations`` order for the minibatch family
    and ``itertools.product`` order over inclusion masks (first index most
    significant) for the independent scheme, whose zero-probability masks
    are dropped.  Probabilities sum to 1 within 1e-12.  Raises ConfigError
    before allocating when the support exceeds the cap.  W is rows x n
    float64: minibatch n = 40, b = 5 gives 658,008 rows and 210 MB.
    """
    n = scheme.n
    b = scheme.batch_size
    if b is not None:
        size = math.comb(n, b)
        if size > SUPPORT_CAP:
            raise ConfigError(f"support size {size} exceeds cap {SUPPORT_CAP}")
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), b)),
            dtype=np.intp, count=size * b,
        ).reshape(size, b)
        w = np.zeros((size, n))
        w[np.arange(size)[:, None], combos] = index_weights(scheme)
        return np.full(size, 1.0 / size), w
    if 2**n > SUPPORT_CAP:
        raise ConfigError(f"support size 2^{n} exceeds cap {SUPPORT_CAP}")
    mask = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    p = np.asarray(scheme.probs)
    probs = np.prod(np.where(mask, p, 1.0 - p), axis=1)
    keep = probs > 0.0
    return probs[keep], np.where(mask[keep], index_weights(scheme), 0.0)
