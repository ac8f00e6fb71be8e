"""Distributions over sampling vectors v with E[v_i] = 1.

A sampling vector selects a subset S of component indices and carries one
positive weight per selected index; unselected weights are zero.  The
estimator it induces is value_v(x) = (1/n) * sum_{i in S} w_i * value_i(x),
which is unbiased for the full operator value by construction.

Four schemes are provided: b-minibatch (uniform b-subsets, weight n/b),
single-element uniform (b = 1), full batch (b = n, no randomness) and
independent per-index inclusion with probabilities p_i (weight 1/p_i).
Support enumeration is exact and intended as a test oracle, capped at 1e6
entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SUPPORT_CAP = 10**6

MINIBATCH = "minibatch"
SINGLE_ELEMENT = "single_element_uniform"
FULL_BATCH = "full_batch"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class SamplingVector:
    """Selected index set with one weight per selected index."""

    indices: tuple[int, ...]
    weights: tuple[float, ...]

    def dense(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        v[list(self.indices)] = self.weights
        return v


@dataclass(frozen=True)
class SamplingScheme:
    """A proper distribution over sampling vectors for n components."""

    kind: str
    n: int
    b: int | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"need n >= 1, got {self.n}")
        if self.kind == MINIBATCH:
            if self.b is None or not 1 <= self.b <= self.n:
                raise ConfigError(f"minibatch size must lie in [1, {self.n}], got {self.b}")
        elif self.kind in (SINGLE_ELEMENT, FULL_BATCH):
            if self.b is not None:
                raise ConfigError(f"{self.kind} takes no batch size")
        elif self.kind == INDEPENDENT:
            if self.probs is None or len(self.probs) != self.n:
                raise ConfigError("independent scheme needs one probability per index")
            if any(not 0.0 < p <= 1.0 for p in self.probs):
                # Every p_i must be positive for the scheme to be proper.
                raise ConfigError("inclusion probabilities must lie in (0, 1]")
        else:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def minibatch(n: int, b: int) -> "SamplingScheme":
        return SamplingScheme(MINIBATCH, n, b=b)

    @staticmethod
    def single_element(n: int) -> "SamplingScheme":
        return SamplingScheme(SINGLE_ELEMENT, n)

    @staticmethod
    def full_batch(n: int) -> "SamplingScheme":
        return SamplingScheme(FULL_BATCH, n)

    @staticmethod
    def independent(probs) -> "SamplingScheme":
        probs = tuple(float(p) for p in probs)
        return SamplingScheme(INDEPENDENT, len(probs), probs=probs)

    # -- derived views -----------------------------------------------------

    @property
    def batch_size(self) -> int | None:
        """Effective b for the minibatch family, None for independent."""
        if self.kind == MINIBATCH:
            return self.b
        if self.kind == SINGLE_ELEMENT:
            return 1
        if self.kind == FULL_BATCH:
            return self.n
        return None

    @property
    def is_deterministic(self) -> bool:
        return self.batch_size == self.n

    def label(self) -> str:
        if self.kind == MINIBATCH:
            return f"minibatch(b={self.b})"
        if self.kind == INDEPENDENT:
            return "independent"
        return self.kind


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
    if scheme.kind == INDEPENDENT:
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


def enumerate_support(scheme: SamplingScheme):
    """Exhaustive support as a list of (probability, SamplingVector).

    Probabilities sum to 1 within 1e-12.  Raises ConfigError when the
    support exceeds the cap; enumeration is an oracle for tests, not a
    production path.
    """
    n = scheme.n
    b = scheme.batch_size
    if b is not None:
        size = math.comb(n, b)
        if size > SUPPORT_CAP:
            raise ConfigError(f"support size {size} exceeds cap {SUPPORT_CAP}")
        prob = 1.0 / size
        weight = (n / b,) * b
        return [
            (prob, SamplingVector(combo, weight))
            for combo in itertools.combinations(range(n), b)
        ]
    if 2**n > SUPPORT_CAP:
        raise ConfigError(f"support size 2^{n} exceeds cap {SUPPORT_CAP}")
    probs = np.asarray(scheme.probs)
    out = []
    for mask in itertools.product((0, 1), repeat=n):
        sel = tuple(i for i in range(n) if mask[i])
        p = float(np.prod(np.where(np.asarray(mask, dtype=bool), probs, 1.0 - probs)))
        if p > 0.0:
            out.append((p, SamplingVector(sel, tuple(1.0 / probs[i] for i in sel))))
    return out


def support_weights(support, n: int):
    """Probabilities and dense estimator weights of an enumerated support.

    Returns (probs, W): row k of W maps stacked component values straight to
    the k-th support estimate, estimate_k = W[k] @ values (the 1/n is folded
    into the weights).  ``support`` is what enumerate_support returns.
    """
    probs = np.array([p for p, _ in support])
    w = np.zeros((len(support), n))
    for k, (_, vec) in enumerate(support):
        w[k] = vec.dense(n) / n
    return probs, w


@dataclass(frozen=True)
class SchemeStats:
    """Inclusion probabilities and the pairwise constant z with
    Prob(i,j in S) = z * p_i * p_j for all i != j."""

    probs: tuple[float, ...]
    z: float


def scheme_stats(scheme: SamplingScheme) -> SchemeStats:
    """Per-index inclusion probabilities and the pairwise z constant.

    Minibatch(b): p_i = b/n and z = (n/b) * (b-1)/(n-1); independent
    inclusion has z = 1 by independence.  For n = 1 there are no pairs and z
    is reported as 1.
    """
    n = scheme.n
    b = scheme.batch_size
    if b is not None:
        p = (b / n,) * n
        z = 1.0 if n == 1 else (n / b) * (b - 1) / (n - 1)
        return SchemeStats(p, z)
    return SchemeStats(tuple(scheme.probs), 1.0)
