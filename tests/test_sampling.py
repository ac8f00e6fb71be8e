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
    moments,
    second_moment,
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


def _support_arrays(scheme):
    """The reference support as (probs, W), row k of W the k-th vector's
    weights with the 1/n folded in."""
    support = reference.enumerate_support(scheme)
    probs = np.array([p for p, _ in support])
    return probs, np.array([vec.dense(scheme.n) / scheme.n for _, vec in support])


def test_enumerate_support_minibatch():
    # three equally likely pairs with weight 1/2 each: E[W_i^2] = (2/3)/4 and
    # E[W_i W_j] = (1/3)/4, so c = 1/12 and e_i = 1/6 - 1/12
    probs, w = _support_arrays(SamplingScheme.minibatch(3, 2))
    assert probs.shape == (3,) and w.shape == (3, 3)
    assert all(abs(p - 1 / 3) < 1e-15 for p in probs)
    q, e, c = moments(SamplingScheme.minibatch(3, 2))
    assert q.tolist() == [2 / 3 * 0.5] * 3
    assert c == 1 / 12
    assert e.tolist() == [1 / 6 - 1 / 12] * 3


def test_enumerate_support_single_element_two():
    # weight n/b = 2 with the 1/n folded in; one index at a time, so c = 0
    probs, w = _support_arrays(SamplingScheme.single_element(2))
    assert probs.tolist() == [0.5, 0.5]
    assert w.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    q, e, c = moments(SamplingScheme.single_element(2))
    assert (q.tolist(), e.tolist(), c) == ([0.5, 0.5], [0.5, 0.5], 0.0)


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
    # the moments are the ones the enumerated reference support gives:
    # q = sum_k p_k W_k and the pair matrix sum_k p_k W_k W_k^T = diag(e) + c;
    # the reference drops the zero-probability masks
    probs, w = _support_arrays(scheme)
    q, e, c = moments(scheme)
    np.testing.assert_allclose(q, probs @ w, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diag(e) + c, (probs[:, None] * w).T @ w, rtol=1e-13, atol=0.0)
    if scheme.batch_size is None:
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
        probs, _ = _support_arrays(scheme)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert abs(moments(scheme)[0].sum() - 1.0) <= 1e-12


def test_enumerate_support_unbiased_weights():
    # sum over support of prob * v_i / n == 1/n for every index, and so q_i
    for scheme in (
        SamplingScheme.minibatch(6, 2),
        SamplingScheme.single_element(6),
        SamplingScheme.independent([0.25, 0.5, 0.75, 1.0, 0.1, 0.9]),
    ):
        probs, w = _support_arrays(scheme)
        assert np.abs(probs @ w * scheme.n - 1.0).max() <= 1e-12
        assert np.abs(moments(scheme)[0] * scheme.n - 1.0).max() <= 1e-12


def test_moments_of_supports_past_any_enumeration():
    # C(60, 30) ~ 1.2e17 subsets and 2^40 masks cost what a small scheme does
    for scheme in (SamplingScheme.minibatch(60, 30), SamplingScheme.independent([0.5] * 40)):
        q, e, c = moments(scheme)
        assert np.abs(q * scheme.n - 1.0).max() <= 1e-15
        assert (e > 0.0).all() and c > 0.0
    assert moments(SamplingScheme.minibatch(60, 30))[2] == 29 / (60 * 59 * 30)
    assert moments(SamplingScheme.independent([0.5] * 40))[1].tolist() == [1 / 1600] * 40


def test_double_counting_identity():
    # Prob(i, j in S) = (b/n) (b-1)/(n-1) for i != j, via enumeration
    for n, b in ((4, 2), (6, 3), (5, 5)):
        probs, w = _support_arrays(SamplingScheme.minibatch(n, b))
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
        q, _, _ = moments(scheme)
        for _ in range(25):
            x = rng.standard_normal(game.dim) * 3.0
            vals = game.component_values(x)
            target = vals.mean(axis=0)
            mean = q @ vals
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
    # weights 1/p_i beyond float range: the smallest subnormal, and one
    # subnormal among many indices
    with pytest.raises(ConfigError, match="finite 1/p_i"):
        SamplingScheme.independent([5e-324])
    with pytest.raises(ConfigError, match="finite 1/p_i"):
        SamplingScheme.independent([1.0] * 9999 + [1e-310])
    with pytest.raises(ConfigError, match="either a batch size or inclusion probabilities"):
        SamplingScheme(3)
    with pytest.raises(ConfigError, match="either a batch size or inclusion probabilities"):
        SamplingScheme(2, batch_size=1, probs=(0.5, 0.5))


def test_subnormal_probability_with_a_float_weight_is_accepted():
    # 1/6e-309 is still a float, and every 1/(n^2 p_i) is smaller
    q, e, c = moments(SamplingScheme.independent([1.0] * 9999 + [6e-309]))
    assert np.isfinite(q).all() and np.isfinite(e).all() and e[-1] > 1e300


def test_independent_scheme_needs_one_probability_per_index():
    with pytest.raises(ConfigError, match="independent scheme needs one probability per index"):
        SamplingScheme(3, probs=(0.5, 0.5))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_a_scheme_is_its_batch_size(n):
    # single element is the b = 1 minibatch and the full batch the b = n one
    assert SamplingScheme.minibatch(n, 1) == SamplingScheme.single_element(n)
    assert SamplingScheme.minibatch(n, n) == SamplingScheme.full_batch(n)


@given(
    n=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_unbiasedness_identity_property(n, data):
    b = data.draw(st.integers(min_value=1, max_value=n))
    q, _, _ = moments(SamplingScheme.minibatch(n, b))
    assert np.abs(q * n - 1.0).max() <= 1e-12


def _small_schemes():
    """Every b-minibatch with n <= 7, and independent schemes with
    p_i in [2^-30, 1], 1.0 included.  Far below that, a weight 1/p_i or
    its square leaves float range."""
    minibatch = st.integers(1, 7).flatmap(
        lambda n: st.builds(SamplingScheme.minibatch, st.just(n), st.integers(1, n)))
    prob = st.one_of(st.just(1.0), st.floats(2.0**-30, 1.0))
    independent = st.lists(prob, min_size=1, max_size=7).map(SamplingScheme.independent)
    return st.one_of(minibatch, independent)


@given(scheme=_small_schemes(), seed=st.integers(0, 2**32 - 1), centered=st.booleans())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_moments_equal_the_enumerated_support(scheme, seed, centered):
    # q and E|sum_i W_i y_i|^2 one support vector at a time; centered rows
    # sum to zero, as the components do at an equilibrium, so the rounding
    # of sum_i y_i counts against the scale of the rows
    n = scheme.n
    y = numerics.make_rng(seed).standard_normal((n, 3))
    if centered:
        y -= y.mean(axis=0)
    q_ref, second_ref = np.zeros(n), 0.0
    for p, vec in reference.enumerate_support(scheme):
        w = vec.dense(n) / n
        q_ref += p * w
        est = w @ y
        second_ref += p * float(est @ est)
    q, e, c = moments(scheme)
    eps = np.finfo(float).eps
    assert np.all(np.abs(q - q_ref) <= 1e-15 * q_ref + eps / n)
    scale = float((e + n * c) @ np.einsum("ij,ij->i", y, y))
    assert abs(second_moment(e, c, y) - second_ref) <= 1e-15 * second_ref + 4 * eps * scale


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
