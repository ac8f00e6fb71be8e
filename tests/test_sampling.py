import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochvi import numerics
from stochvi.errors import ConfigError
from stochvi.sampling import (
    SamplingScheme,
    draw_many,
    enumerate_support,
)

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
    support = enumerate_support(SamplingScheme.minibatch(3, 2))
    assert len(support) == 3
    assert all(abs(p - 1 / 3) < 1e-15 for p, _ in support)


def test_enumerate_support_single_element_two():
    support = enumerate_support(SamplingScheme.single_element(2))
    assert [(p, v.indices, v.weights) for p, v in support] == [
        (0.5, (0,), (2.0,)),
        (0.5, (1,), (2.0,)),
    ]


def test_enumerate_support_probabilities_sum_to_one():
    for scheme in (
        SamplingScheme.minibatch(7, 3),
        SamplingScheme.single_element(5),
        SamplingScheme.full_batch(4),
        SamplingScheme.independent([0.2, 0.9, 0.5, 1.0]),
    ):
        support = enumerate_support(scheme)
        assert abs(sum(p for p, _ in support) - 1.0) <= 1e-12


def test_enumerate_support_unbiased_weights():
    # sum over support of prob * v_i == 1 for every index
    for scheme in (
        SamplingScheme.minibatch(6, 2),
        SamplingScheme.single_element(6),
        SamplingScheme.independent([0.25, 0.5, 0.75, 1.0, 0.1, 0.9]),
    ):
        acc = np.zeros(scheme.n)
        for p, vec in enumerate_support(scheme):
            acc += p * vec.dense(scheme.n)
        assert np.abs(acc - 1.0).max() <= 1e-12


def test_support_cap():
    with pytest.raises(ConfigError, match=r"support size \d+ exceeds cap"):
        enumerate_support(SamplingScheme.minibatch(60, 30))
    with pytest.raises(ConfigError, match=r"support size 2\^25 exceeds cap"):
        enumerate_support(SamplingScheme.independent([0.5] * 25))


def test_double_counting_identity():
    # Prob(i, j in S) = (b/n) (b-1)/(n-1) for i != j, via enumeration
    for n, b in ((4, 2), (6, 3), (5, 5)):
        support = enumerate_support(SamplingScheme.minibatch(n, b))
        expect = (b / n) * (b - 1) / (n - 1)
        for i, j in itertools.combinations(range(n), 2):
            p_ij = sum(p for p, v in support if i in v.indices and j in v.indices)
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
        support = enumerate_support(scheme)
        for _ in range(25):
            x = rng.standard_normal(game.dim) * 3.0
            vals = game.component_values(x)
            target = vals.mean(axis=0)
            mean = np.zeros(game.dim)
            for p, vec in support:
                mean += p * (vec.dense(game.n) @ vals) / game.n
            scale = max(np.linalg.norm(target), 1.0)
            assert np.linalg.norm(mean - target) <= 1e-12 * scale


def test_draw_matches_support_frequencies():
    # empirical subset frequencies within 3 standard errors of enumeration
    scheme = SamplingScheme.minibatch(5, 2)
    support = enumerate_support(scheme)
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
    scheme = SamplingScheme.minibatch(n, b)
    acc = np.zeros(n)
    for p, vec in enumerate_support(scheme):
        acc += p * vec.dense(n)
    assert np.abs(acc - 1.0).max() <= 1e-12


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
