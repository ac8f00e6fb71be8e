import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochvi import numerics
from stochvi.errors import ConfigError
from stochvi.sampling import (
    INDEPENDENT,
    SamplingScheme,
    draw_many,
    enumerate_support,
)

import reference
from reference import draw
from test_operators import random_game


def test_full_batch_draw_is_all_ones():
    scheme = SamplingScheme.full_batch(5)
    rng = numerics.make_rng(0)
    vec = draw(scheme, rng)
    assert vec.indices == tuple(range(5))
    assert vec.weights == (1.0,) * 5


def test_single_element_draw_weight():
    scheme = SamplingScheme.single_element(4)
    rng = numerics.make_rng(1)
    for _ in range(20):
        vec = draw(scheme, rng)
        assert len(vec.indices) == 1
        assert vec.weights == (4.0,)


def test_minibatch_draw_uniform_frequencies():
    # all C(3,2) = 3 subsets equally likely within 0.02 over 1e5 draws
    scheme = SamplingScheme.minibatch(3, 2)
    rng = numerics.make_rng(2)
    counts = Counter(draw(scheme, rng).indices for _ in range(10**5))
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    for subset, cnt in counts.items():
        assert abs(cnt / 10**5 - 1 / 3) <= 0.02


def test_minibatch_weights_are_n_over_b():
    scheme = SamplingScheme.minibatch(6, 4)
    vec = draw(scheme, numerics.make_rng(3))
    assert len(vec.indices) == 4
    assert all(w == 6 / 4 for w in vec.weights)


def test_enumerate_support_minibatch():
    probs, w = enumerate_support(SamplingScheme.minibatch(3, 2))
    assert probs.shape == (3,) and w.shape == (3, 3)
    assert all(abs(p - 1 / 3) < 1e-15 for p in probs)


def test_enumerate_support_single_element_two():
    # weight n/b = 2 with the 1/n folded in
    probs, w = enumerate_support(SamplingScheme.single_element(2))
    assert probs.tolist() == [0.5, 0.5]
    assert w.tolist() == [[1.0, 0.0], [0.0, 1.0]]


_ORACLE_SCHEMES = [
    SamplingScheme.single_element(20),
    SamplingScheme.single_element(100),
    SamplingScheme.minibatch(20, 3),
    SamplingScheme.minibatch(20, 4),
    SamplingScheme.minibatch(12, 9),
    SamplingScheme.minibatch(1, 1),
    SamplingScheme.full_batch(20),
    SamplingScheme.independent([0.3, 1.0, 0.5, 1.0]),
    SamplingScheme.independent([1.0] * 5),
    *(SamplingScheme.independent(numerics.make_rng(n).uniform(0.05, 1.0, n)) for n in (12, 14, 16)),
]


@pytest.mark.parametrize("scheme", _ORACLE_SCHEMES, ids=lambda s: f"{s.label()}-n{s.n}")
def test_enumerate_support_equals_the_reference(scheme):
    # row k is the k-th vector of the one-vector-at-a-time enumeration,
    # bit for bit, with the zero-probability masks dropped
    probs, w = enumerate_support(scheme)
    support = reference.enumerate_support(scheme)
    assert probs.tobytes() == np.array([p for p, _ in support]).tobytes()
    assert w.tobytes() == np.array([vec.dense(scheme.n) / scheme.n for _, vec in support]).tobytes()
    if scheme.kind == INDEPENDENT:
        ones = sum(p == 1.0 for p in scheme.probs)
        assert len(probs) == 2 ** (scheme.n - ones)
        assert all(w[:, i].all() for i, p in enumerate(scheme.probs) if p == 1.0)


def test_enumerate_support_probabilities_sum_to_one():
    for scheme in (
        SamplingScheme.minibatch(7, 3),
        SamplingScheme.single_element(5),
        SamplingScheme.full_batch(4),
        SamplingScheme.independent([0.2, 0.9, 0.5, 1.0]),
    ):
        probs, _ = enumerate_support(scheme)
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_enumerate_support_unbiased_weights():
    # sum over support of prob * v_i / n == 1/n for every index
    for scheme in (
        SamplingScheme.minibatch(6, 2),
        SamplingScheme.single_element(6),
        SamplingScheme.independent([0.25, 0.5, 0.75, 1.0, 0.1, 0.9]),
    ):
        probs, w = enumerate_support(scheme)
        assert np.abs(probs @ w * scheme.n - 1.0).max() <= 1e-12


def test_support_cap():
    with pytest.raises(ConfigError, match=r"support size \d+ exceeds cap"):
        enumerate_support(SamplingScheme.minibatch(60, 30))
    with pytest.raises(ConfigError, match=r"support size 2\^25 exceeds cap"):
        enumerate_support(SamplingScheme.independent([0.5] * 25))


def test_double_counting_identity():
    # Prob(i, j in S) = (b/n) (b-1)/(n-1) for i != j, via enumeration
    for n, b in ((4, 2), (6, 3), (5, 5)):
        probs, w = enumerate_support(SamplingScheme.minibatch(n, b))
        expect = (b / n) * (b - 1) / (n - 1)
        for i, j in itertools.combinations(range(n), 2):
            p_ij = probs @ ((w[:, i] != 0.0) & (w[:, j] != 0.0))
            assert abs(p_ij - expect) <= 1e-12


def test_estimator_unbiased_on_operator():
    game = random_game(5, 2, 2, seed=13)
    rng = numerics.make_rng(5)
    schemes = (
        SamplingScheme.minibatch(5, 2),
        SamplingScheme.single_element(5),
        SamplingScheme.full_batch(5),
        SamplingScheme.independent([0.3, 0.8, 0.5, 1.0, 0.6]),
    )
    for scheme in schemes:
        probs, w = enumerate_support(scheme)
        for _ in range(25):
            x = rng.standard_normal(game.dim) * 3.0
            vals = game.component_values(x)
            target = vals.mean(axis=0)
            mean = probs @ (w @ vals)
            scale = max(np.linalg.norm(target), 1.0)
            assert np.linalg.norm(mean - target) <= 1e-12 * scale


def test_draw_matches_support_frequencies():
    # empirical subset frequencies within 3 standard errors of enumeration
    scheme = SamplingScheme.minibatch(5, 2)
    support = reference.enumerate_support(scheme)
    rng = numerics.make_rng(17)
    total = 10**5
    counts = Counter(draw(scheme, rng).indices for _ in range(total))
    for p, vec in support:
        se = math.sqrt(p * (1 - p) / total)
        assert abs(counts[vec.indices] / total - p) <= 3 * se


def test_independent_draw_matches_probabilities():
    probs = (0.2, 0.9, 0.5)
    scheme = SamplingScheme.independent(probs)
    rng = numerics.make_rng(23)
    total = 10**5
    hits = np.zeros(3)
    for _ in range(total):
        vec = draw(scheme, rng)
        for i, w in zip(vec.indices, vec.weights):
            hits[i] += 1
            assert abs(w - 1 / probs[i]) <= 1e-12
    for i, p in enumerate(probs):
        se = math.sqrt(p * (1 - p) / total)
        assert abs(hits[i] / total - p) <= 3 * se


def test_improper_schemes_rejected():
    with pytest.raises(ConfigError):
        SamplingScheme.minibatch(3, 0)
    with pytest.raises(ConfigError):
        SamplingScheme.minibatch(3, 4)
    with pytest.raises(ConfigError):
        SamplingScheme.independent([0.5, 0.0])


@given(
    n=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_unbiasedness_identity_property(n, data):
    b = data.draw(st.integers(min_value=1, max_value=n))
    probs, w = enumerate_support(SamplingScheme.minibatch(n, b))
    assert np.abs(probs @ w * n - 1.0).max() <= 1e-12


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_draw_is_valid_subset_property(n, seed):
    b = 1 + seed % n
    scheme = SamplingScheme.minibatch(n, b)
    vec = draw(scheme, numerics.make_rng(seed))
    assert len(set(vec.indices)) == b
    assert all(0 <= i < n for i in vec.indices)
    assert all(w == n / b for w in vec.weights)


@pytest.mark.parametrize("b", [1, 3, 5])
def test_draw_many_equals_successive_draws(b):
    scheme = SamplingScheme.single_element(7) if b == 1 else SamplingScheme.minibatch(7, b)
    one, many = numerics.make_rng(11), numerics.make_rng(11)
    rows = draw_many(scheme, many, 200)
    assert rows.shape == (200, b)
    for row in rows:
        assert tuple(row) == draw(scheme, one).indices
    assert one.random() == many.random()


def test_draw_many_independent_masks_and_full_batch():
    scheme = SamplingScheme.independent([0.2, 0.5, 0.9, 1.0])
    one, many = numerics.make_rng(12), numerics.make_rng(12)
    for mask in draw_many(scheme, many, 100):
        assert tuple(np.flatnonzero(mask)) == draw(scheme, one).indices
    assert one.random() == many.random()
    rng = numerics.make_rng(13)
    assert draw_many(SamplingScheme.full_batch(4), rng, 10) is None
    assert rng.random() == numerics.make_rng(13).random()
