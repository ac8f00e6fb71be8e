import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochvi import constants as C
from stochvi import experiments as E
from stochvi import numerics
from stochvi.errors import ConfigError, NumericalError, UnsupportedSchemeError
from stochvi.operators import QuadraticGame
from stochvi.sampling import SamplingScheme

from reference import (
    cocoercivity_loop,
    cocoercivity_one,
    enumerate_support,
    grid_cocoercivity,
    random_orthogonal,
)
from test_operators import random_game


# ---------------------------------------------------------------------------
# matrix_cocoercivity
# ---------------------------------------------------------------------------


def test_cocoercivity_identity_is_one():
    for cocoercivity in (C.matrix_cocoercivity, grid_cocoercivity):
        assert cocoercivity(np.eye(2)) == pytest.approx(1.0, rel=1e-9)


def test_cocoercivity_rotation_scale_is_two():
    m = [[1.0, 1.0], [-1.0, 1.0]]
    for cocoercivity in (C.matrix_cocoercivity, grid_cocoercivity):
        assert cocoercivity(m) == pytest.approx(2.0, rel=1e-6)


def test_pure_rotation_not_cocoercive():
    m = [[0.0, 1.0], [-1.0, 0.0]]
    for cocoercivity in (C.matrix_cocoercivity, grid_cocoercivity):
        with pytest.raises(NumericalError, match="not co-coercive"):
            cocoercivity(m)


def test_cocoercivity_skips_null_space():
    # singular but co-coercive on its range: diag(2, 0)
    m = np.diag([2.0, 0.0])
    assert C.matrix_cocoercivity(m) == pytest.approx(2.0, rel=1e-12)
    assert grid_cocoercivity(m) == pytest.approx(2.0, rel=1e-12)


def _cocoercive_stack(rng, k, d):
    """k matrices whose symmetric part is positive definite."""
    g = rng.standard_normal((k, d, d))
    return g @ g.transpose(0, 2, 1) + np.eye(d) + (g - g.transpose(0, 2, 1))


def test_stacked_cocoercivity_equals_the_per_matrix_values():
    # 40 matrices span three chunks; the null-direction and zero matrices
    # take the one-matrix rules.
    stack = _cocoercive_stack(numerics.make_rng(5), 40, 2)
    stack[3] = np.diag([2.0, 0.0])
    stack[17] = 0.0
    stack[33] = np.diag([0.0, 0.5])
    got = C.matrix_cocoercivity(stack)
    assert got.tolist() == cocoercivity_loop(stack)
    assert [C.matrix_cocoercivity(m) for m in stack] == cocoercivity_loop(stack)
    assert got[[3, 17, 33]].tolist() == pytest.approx([2.0, 0.0, 0.5], rel=1e-12)


def test_game_constants_ell_i_equal_the_per_matrix_values():
    # At dim 27 the bits of M @ W depend on W's memory layout.
    game = E.generate_game(E.GameGenConfig(n=37, d1=13, d2=14, mu_a=0.5, l_a=2.0, mu_b=0.0,
                                           l_b=1.5, mu_c=0.7, l_c=3.0, seed=8))
    gc = C.game_constants(game)
    assert gc.ell_i == tuple(cocoercivity_loop(game.component_jacobians))
    assert all(type(ell) is float for ell in gc.ell_i)
    assert gc.ell == cocoercivity_one(game.mean_jacobian())


@pytest.mark.parametrize("bad", [
    [[1.0, 1.0], [-1.0, 0.0]],  # <e2, M e2> = 0 but M e2 != 0
    [[-1.0, 0.0], [0.0, 1.0]],  # negative eigendirection
])
def test_stacked_cocoercivity_raises_the_per_matrix_error(bad):
    stack = _cocoercive_stack(numerics.make_rng(6), 20, 2)
    stack[5] = bad
    stack[18] = [[-2.0, 0.0], [0.0, 1.0]]
    with pytest.raises(NumericalError) as one:
        cocoercivity_loop(stack)
    with pytest.raises(NumericalError) as stacked:
        C.matrix_cocoercivity(stack)
    assert str(stacked.value) == str(one.value)


@pytest.mark.parametrize("bad, match", [
    (np.ones((2, 3)), r"expected a square matrix or a stack of them, got \(2, 3\)"),
    (np.ones((4, 2, 3)), r"expected a square matrix or a stack of them, got \(4, 2, 3\)"),
    ([[1.0, 0.0], [0.0, np.inf]], "matrix entries must be finite"),
    ([[[1.0, np.nan], [0.0, 1.0]]], "matrix entries must be finite"),
], ids=["not_square", "stack_not_square", "infinite_entry", "nan_in_stack"])
def test_cocoercivity_rejects_a_matrix_it_cannot_read(bad, match):
    with pytest.raises(ConfigError, match=match):
        C.matrix_cocoercivity(bad)


def test_cocoercivity_exact_certifies_nonnormal():
    # Non-normal case where 1 / min Re(1/lambda) over the eigenvalues would
    # give 2: the true constant is the worst ratio |Mx|^2 / <x, Mx>,
    # attained here at (1, -1), and the grid oracle finds it too.
    m = np.array([[1.0, 1.0], [-1.0, 2.0]])
    exact = C.matrix_cocoercivity(m)
    assert exact == pytest.approx(3.0, rel=1e-9)
    assert grid_cocoercivity(m) == pytest.approx(3.0, rel=1e-9)
    rng = numerics.make_rng(0)
    for _ in range(2000):
        x = rng.standard_normal(2)
        mx = m @ x
        assert mx @ mx <= exact * (x @ mx) + 1e-9


def _random_normal_cocoercive(rng, d):
    # orthogonal conjugation of a block-diagonal normal matrix with
    # eigenvalues a +- bi, a > 0 (plus a lone positive real for odd d)
    blocks = []
    remaining = d
    while remaining >= 2:
        a, b = rng.uniform(0.3, 3.0), rng.uniform(0.0, 3.0)
        blocks.append(np.array([[a, b], [-b, a]]))
        remaining -= 2
    if remaining:
        blocks.append(np.array([[rng.uniform(0.3, 3.0)]]))
    m = np.zeros((d, d))
    at = 0
    for blk in blocks:
        k = blk.shape[0]
        m[at : at + k, at : at + k] = blk
        at += k
    q = random_orthogonal(d, rng)
    return q @ m @ q.T


def test_exact_matches_grid_on_normal_matrices():
    # the grid oracle maximizes the ratio directly, so it must agree with the
    # closed form on normal matrices of every dimension it supports
    rng = numerics.make_rng(42)
    for trial in range(100):
        d = int(rng.integers(2, 7))
        m = _random_normal_cocoercive(rng, d)
        exact = C.matrix_cocoercivity(m)
        grid = grid_cocoercivity(m, rng=numerics.make_rng(trial))
        assert grid == pytest.approx(exact, rel=1e-3)


def test_grid_matches_exact_on_random_cocoercive_matrices():
    rng = numerics.make_rng(11)
    done = 0
    while done < 30:
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d))
        m = g + g.T + 2.0 * d * np.eye(d) + (g - g.T)
        try:
            exact = C.matrix_cocoercivity(m)
        except NumericalError:
            continue
        grid = grid_cocoercivity(m, rng=numerics.make_rng(done))
        assert grid == pytest.approx(exact, rel=1e-3)
        done += 1


# ---------------------------------------------------------------------------
# game constants
# ---------------------------------------------------------------------------


def test_game_constants_diagonal_example():
    game = QuadraticGame([[[2.0]]], [[[0.0]]], [[[3.0]]], [[0.0]], [[0.0]])
    gc = C.game_constants(game)
    assert gc.mu == pytest.approx(2.0, rel=1e-12)
    assert gc.sigma1_sq == pytest.approx(0.0, abs=1e-15)


def test_game_constants_bilinear_rejected():
    game = QuadraticGame([[[0.0]]], [[[2.0]]], [[[0.0]]], [[0.0]], [[0.0]])
    with pytest.raises(NumericalError, match="not strongly monotone"):
        C.game_constants(game)


def test_game_constants_identical_components():
    base = random_game(1, 2, 2, seed=31)
    game = QuadraticGame(
        np.repeat(base.A, 2, axis=0),
        np.repeat(base.B, 2, axis=0),
        np.repeat(base.C, 2, axis=0),
        np.repeat(base.a, 2, axis=0),
        np.repeat(base.c, 2, axis=0),
    )
    gc = C.game_constants(game)
    assert gc.ell_i[0] == pytest.approx(gc.ell_i[1], rel=1e-12)
    assert gc.ell == pytest.approx(gc.ell_i[0], rel=1e-9)


def test_game_mu_is_min_eigenvalue_of_block_diagonal():
    game = random_game(4, 3, 2, seed=8)
    gc = C.game_constants(game)
    sym = np.zeros((game.dim, game.dim))
    sym[: game.d1, : game.d1] = game.A.mean(axis=0)
    sym[game.d1 :, game.d1 :] = game.C.mean(axis=0)
    assert gc.mu == pytest.approx(np.linalg.eigvalsh(sym)[0], rel=1e-10)


def test_strongly_monotone_implies_lipschitz_ratio_cocoercive():
    # any strongly monotone matrix passes the L^2/mu co-coercivity test
    rng = numerics.make_rng(3)
    for _ in range(10):
        game = random_game(3, 2, 2, seed=int(rng.integers(0, 10**6)))
        j = game.mean_jacobian()
        mu = np.linalg.eigvalsh(0.5 * (j + j.T))[0]
        big_l = numerics.singular_values(j)[0]
        bound = big_l**2 / mu
        for _ in range(100):
            w = rng.standard_normal(game.dim)
            jw = j @ w
            assert jw @ jw <= bound * (w @ jw) + 1e-9 * (1 + jw @ jw)


# ---------------------------------------------------------------------------
# expected co-coercivity constants
# ---------------------------------------------------------------------------


def test_ec_constants_full_batch_degenerates():
    game = random_game(5, 2, 2, seed=40)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, SamplingScheme.full_batch(5), game)
    assert ec.ell_xi == pytest.approx(gc.ell, rel=1e-12)
    assert ec.sigma_sq == 0.0


def test_ec_constants_single_element_degenerates():
    game = random_game(5, 2, 2, seed=41)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, SamplingScheme.single_element(5), game)
    assert ec.ell_xi == pytest.approx(gc.ell_max, rel=1e-12)
    assert ec.sigma_sq == pytest.approx(gc.sigma1_sq, rel=1e-12)


def test_ec_constants_reject_a_scheme_for_another_n():
    game = random_game(5, 2, 2, seed=42)
    gc = C.game_constants(game)
    with pytest.raises(ConfigError, match="scheme is for n=4, constants for n=5"):
        C.ec_constants(gc, SamplingScheme.single_element(4), game)


def test_ec_constants_closed_form_plug():
    assert C.minibatch_ell_xi(4, 2, 2.0, 5.0) == pytest.approx(3.0, rel=1e-15)
    assert C.minibatch_sigma_sq(4, 2, 6.0) == pytest.approx(2.0, rel=1e-15)


def enumerated_sigma_sq(game, scheme):
    x_star = game.equilibrium()
    vals = game.component_values(x_star)
    total = 0.0
    for p, vec in enumerate_support(scheme):
        est = vec.dense(game.n) @ vals / game.n
        total += p * float(est @ est)
    return total


def test_sigma_sq_matches_enumeration_all_batch_sizes():
    rng = numerics.make_rng(55)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        game = random_game(n, 2, 2, seed=int(rng.integers(0, 10**6)))
        gc = C.game_constants(game)
        for b in range(1, n + 1):
            ec = C.ec_constants(gc, SamplingScheme.minibatch(n, b), game)
            oracle = enumerated_sigma_sq(game, SamplingScheme.minibatch(n, b))
            assert ec.sigma_sq == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_independent_sigma_sq_matches_enumeration_at_any_n():
    # the noise of independent inclusion comes from its moments, so it needs
    # no support: 2^20 and 2^40 masks cost what 2^2 does
    rng = numerics.make_rng(56)
    for n in range(2, 9):
        game = random_game(n, 2, 2, seed=int(rng.integers(0, 10**6)))
        scheme = SamplingScheme.independent(rng.uniform(0.05, 1.0, n))
        ec = C.ec_constants(C.game_constants(game), scheme, game)
        assert ec.sigma_sq == pytest.approx(enumerated_sigma_sq(game, scheme), rel=1e-14)
    for n in (20, 40):
        game = random_game(n, 2, 2, seed=n)
        ec = C.ec_constants(C.game_constants(game), SamplingScheme.independent([0.25] * n), game)
        assert math.isfinite(ec.ell_xi) and math.isfinite(ec.sigma_sq) and ec.sigma_sq > 0.0


def test_ec_inequality_holds_with_certified_constant():
    # enumerated E|value_v(x) - value_v(x*)|^2 <= ell_xi <value(x), x - x*>
    game = random_game(6, 2, 2, seed=77)
    gc = C.game_constants(game)
    x_star = game.equilibrium()
    vals_star = game.component_values(x_star)
    rng = numerics.make_rng(12)
    for scheme in (SamplingScheme.single_element(6), SamplingScheme.minibatch(6, 3)):
        ec = C.ec_constants(gc, scheme, game)
        support = enumerate_support(scheme)
        for _ in range(500):
            x = x_star + rng.standard_normal(game.dim) * 5.0
            vals = game.component_values(x)
            inner = float(vals.mean(axis=0) @ (x - x_star))
            second = 0.0
            second_abs = 0.0
            for p, vec in support:
                w = vec.dense(game.n) / game.n
                diff = w @ (vals - vals_star)
                est = w @ vals
                second += p * float(diff @ diff)
                second_abs += p * float(est @ est)
            assert second <= ec.ell_xi * inner + 1e-9 * (1 + second)
            # derived second-moment bound
            assert second_abs <= 2 * ec.ell_xi * inner + 2 * ec.sigma_sq + 1e-9 * (
                1 + second_abs
            )


def test_ec_constants_independent_scheme_z_formula():
    game = random_game(4, 2, 2, seed=90)
    gc = C.game_constants(game)
    scheme = SamplingScheme.independent([0.4, 0.7, 1.0, 0.25])
    ec = C.ec_constants(gc, scheme, game)
    # independence gives z = 1
    expect_ell = gc.ell + max(
        gc.ell_i[i] / (4 * p) * (1 - p) for i, p in enumerate(scheme.probs)
    )
    assert ec.ell_xi == pytest.approx(expect_ell, rel=1e-12)
    assert ec.sigma_sq == pytest.approx(enumerated_sigma_sq(game, scheme), rel=1e-10)


# ---------------------------------------------------------------------------
# Hamiltonian constants
# ---------------------------------------------------------------------------


def test_hamiltonian_constants_bilinear_scalar():
    game = QuadraticGame([[[0.0]]], [[[2.0]]], [[[0.0]]], [[0.0]], [[0.0]])
    ham = C.hamiltonian_constants(game, SamplingScheme.full_batch(1))
    assert ham.mu_h == pytest.approx(4.0, rel=1e-12)
    assert ham.l_h == pytest.approx(4.0, rel=1e-12)
    assert ham.cal_l_h == pytest.approx(4.0, rel=1e-12)
    assert ham.sigma_h_sq == 0.0
    single = C.hamiltonian_constants(game, SamplingScheme.single_element(1))
    assert single.cal_l_h == pytest.approx(4.0, rel=1e-12)
    assert single.sigma_h_sq == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_full_batch_noise_free():
    game = random_game(4, 2, 3, seed=60)
    ham = C.hamiltonian_constants(game, SamplingScheme.full_batch(4))
    assert ham.sigma_h_sq == 0.0
    assert ham.cal_l_h == ham.l_h


def test_hamiltonian_extremes_match_gram_eigenvalues():
    for seed in range(5):
        game = random_game(3, 2, 2, seed=seed)
        ham = C.hamiltonian_constants(game, SamplingScheme.single_element(3))
        j = game.mean_jacobian()
        gram = np.linalg.eigvalsh(j.T @ j)
        positive = gram[gram > 1e-12 * gram[-1]]
        assert ham.mu_h == pytest.approx(positive[0], rel=1e-9)
        assert ham.l_h == pytest.approx(gram[-1], rel=1e-9)


def test_hamiltonian_noise_matches_monte_carlo():
    game = random_game(4, 2, 2, seed=61)
    ham = C.hamiltonian_constants(game, SamplingScheme.single_element(4))
    x_star = game.equilibrium()
    vals = game.component_values(x_star)
    jacs = game.component_jacobians
    norms = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            g = 0.5 * (jacs[i].T @ vals[j] + jacs[j].T @ vals[i])
            norms[i, j] = g @ g
    rng = numerics.make_rng(62)
    draws = 10**6
    ii = rng.integers(0, 4, draws)
    jj = rng.integers(0, 4, draws)
    samples = norms[ii, jj]
    se = samples.std(ddof=1) / math.sqrt(draws)
    assert abs(samples.mean() - ham.sigma_h_sq) <= 3 * se


def test_hamiltonian_unsupported_scheme():
    game = random_game(4, 2, 2, seed=63)
    with pytest.raises(UnsupportedSchemeError):
        C.hamiltonian_constants(game, SamplingScheme.minibatch(4, 2))


@pytest.mark.parametrize("scheme", [SamplingScheme.single_element(5),
                                    SamplingScheme.full_batch(3),
                                    SamplingScheme.minibatch(5, 2)])
def test_hamiltonian_constants_reject_a_scheme_for_another_n(scheme):
    # a size mismatch is no unsupported scheme, whatever the scheme's kind
    game = random_game(4, 2, 2, seed=63)
    with pytest.raises(ConfigError, match=f"^scheme is for n={scheme.n}, game has n=4$") as err:
        C.hamiltonian_constants(game, scheme)
    assert type(err.value) is ConfigError


def test_hamiltonian_constants_reject_a_singular_mean_jacobian():
    # A = C = 0 and B = 0: the mean Jacobian is the zero matrix
    game = QuadraticGame([[[0.0]]], [[[0.0]]], [[[0.0]]], [[0.0]], [[0.0]])
    for scheme in (SamplingScheme.single_element(1), SamplingScheme.full_batch(1)):
        with pytest.raises(NumericalError, match="mean Jacobian is singular"):
            C.hamiltonian_constants(game, scheme)


def test_hamiltonian_es_inequality_single_element():
    # enumerated E|grad estimator difference|^2 <= 2 cal_l_h (H(x) - H*)
    game = random_game(5, 2, 2, seed=64)
    ham = C.hamiltonian_constants(game, SamplingScheme.single_element(5))
    j = game.mean_jacobian()
    q = j.T @ j
    jacs = game.component_jacobians
    rng = numerics.make_rng(65)
    for _ in range(200):
        w = rng.standard_normal(game.dim) * 3.0
        lhs = 0.0
        for i in range(5):
            for l in range(5):
                m = 0.5 * (jacs[i].T @ jacs[l] + jacs[l].T @ jacs[i])
                mw = m @ w
                lhs += mw @ mw
        lhs /= 25.0
        rhs = ham.cal_l_h * (w @ (q @ w))
        assert lhs <= rhs + 1e-9 * (1 + lhs)


def reference_hamiltonian_constants(game, scheme):
    """The literal definition: one eigvalsh per pair Hessian and one running
    total of the squared pair gradients, over all n^2 pairs."""
    svals = numerics.singular_values(game.mean_jacobian())
    l_h, mu_h = float(svals[0] ** 2), float(svals[-1] ** 2)
    if scheme.batch_size == scheme.n:
        return C.HamiltonianConstants(mu_h=mu_h, l_h=l_h, cal_l_h=l_h, sigma_h_sq=0.0)
    jacs = game.component_jacobians
    vals = game.component_values(game.equilibrium())
    cal_l_h = 0.0
    sigma_h_sq = 0.0
    for i in range(game.n):
        jti = jacs[i].T
        for j in range(game.n):
            hess = 0.5 * (jti @ jacs[j] + jacs[j].T @ jacs[i])
            cal_l_h = max(cal_l_h, float(np.abs(np.linalg.eigvalsh(hess)).max()))
            grad = 0.5 * (jti @ vals[j] + jacs[j].T @ vals[i])
            sigma_h_sq += float(grad @ grad)
    return C.HamiltonianConstants(
        mu_h=mu_h, l_h=l_h, cal_l_h=cal_l_h, sigma_h_sq=sigma_h_sq / game.n**2
    )


def _stacked_game(components, offsets_seed):
    # a game whose components are the given (A, B, C) triples
    a, b, c = (np.stack(parts) for parts in zip(*components))
    rng = numerics.make_rng(offsets_seed)
    n, d1, d2 = b.shape
    return QuadraticGame(a, b, c, rng.standard_normal((n, d1)), rng.standard_normal((n, d2)))


def _hamiltonian_reference_games():
    base = random_game(3, 3, 2, seed=90)
    triple = lambda i, sign=1.0: (sign * base.A[i], sign * base.B[i], sign * base.C[i])
    games = {
        "n1": random_game(1, 4, 3, seed=91),
        "d1_d2_1": random_game(6, 1, 1, seed=92),
        # every pair Hessian equals every other: all pairs tie
        "all_equal": _stacked_game([triple(0)] * 5, 93),
        # components 0 and 1 are negatives of each other
        "negated": _stacked_game([triple(0), triple(0, -1.0), triple(2)], 94),
    }
    for n, d1, d2, seed in ((2, 2, 2, 95), (3, 1, 4, 96), (5, 3, 3, 97), (8, 5, 2, 98),
                            (13, 4, 4, 99), (20, 20, 20, 100)):
        games[f"n{n}_{d1}x{d2}"] = random_game(n, d1, d2, seed=seed)
    games["generated_n30"] = E.generate_game(E.GameGenConfig(
        n=30, d1=7, d2=9, mu_a=1.0, l_a=1.6, mu_b=1.2, l_b=2.4, mu_c=1.0, l_c=1.6, seed=0))
    return games


@pytest.mark.parametrize("name", sorted(_hamiltonian_reference_games()))
def test_hamiltonian_constants_match_the_pair_loop_bitwise(name):
    game = _hamiltonian_reference_games()[name]
    scheme = SamplingScheme.single_element(game.n)
    got = C.hamiltonian_constants(game, scheme)
    want = reference_hamiltonian_constants(game, scheme)
    assert got.cal_l_h == want.cal_l_h
    assert got.sigma_h_sq == want.sigma_h_sq
    assert (got.mu_h, got.l_h) == (want.mu_h, want.l_h)


def test_hamiltonian_eigvalsh_calls_do_not_grow_with_n(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    counts = []
    for n in (2, 16):
        calls.clear()
        C.hamiltonian_constants(random_game(n, 2, 2, seed=101),
                                SamplingScheme.single_element(n))
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1


# ---------------------------------------------------------------------------
# optimal minibatch size
# ---------------------------------------------------------------------------


def make_constants(n, mu, ell, ell_max, sigma1_sq):
    return C.GameConstants(
        n=n, mu=mu, ell_i=(ell_max,) * n, ell=ell, ell_max=ell_max, sigma1_sq=sigma1_sq
    )


def test_optimal_minibatch_low_noise_is_one():
    # t = 2 sigma1^2 / (eps mu) = 4 = ell_max: total complexity 8.0 at b=1
    # against 9.33 at b=2
    gc = make_constants(10, 1.0, 1.0, 4.0, 2.0)
    out = C.optimal_minibatch(gc, epsilon=1.0)
    assert out.b_star_real == 1.0
    assert out.b_star == 1


def test_optimal_minibatch_closed_form_plug():
    # n=100, ell=1, ell_max=10, sigma1^2=100, 2/(eps mu) = 1
    gc = make_constants(100, 1.0, 1.0, 10.0, 100.0)
    out = C.optimal_minibatch(gc, epsilon=2.0)
    assert out.b_star_real == pytest.approx(100 * 91 / 190, rel=1e-12)
    assert out.b_star in (47, 48)
    tc = {b: C.total_complexity(gc, b, 2.0) for b in (47, 48)}
    assert tc[out.b_star] == min(tc.values())


def test_optimal_minibatch_noise_limit_is_full_batch():
    gc = make_constants(20, 1.0, 1.0, 5.0, 1e12)
    out = C.optimal_minibatch(gc, epsilon=1.0)
    assert out.b_star_real == pytest.approx(20.0, rel=1e-6)
    assert out.b_star == 20


def assert_brute_force_argmin(gc, epsilon):
    # b_star is the first b of 1..n at the least total complexity, and the
    # real-valued optimizer lies in [1, n]
    out = C.optimal_minibatch(gc, epsilon)
    costs = [C.total_complexity(gc, b, epsilon) for b in range(1, gc.n + 1)]
    assert out.b_star == 1 + costs.index(min(costs))
    assert 1.0 <= out.b_star_real <= gc.n
    return out


EPSILONS = st.sampled_from([5e-324, 1e-320, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e300, 1e308])


@given(seed=st.integers(0, 10_000), n=st.integers(2, 8), epsilon=EPSILONS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_optimal_minibatch_is_the_argmin_on_generated_games(seed, n, epsilon):
    cfg = E.GameGenConfig(n=n, d1=2, d2=3, mu_a=0.5, l_a=4.0, mu_b=0.0, l_b=2.0,
                          mu_c=0.5, l_c=4.0, seed=seed)
    assert_brute_force_argmin(C.game_constants(E.generate_game(cfg)), epsilon)


@given(
    n=st.integers(2, 30),
    mu=st.floats(0.01, 10.0),
    ell=st.floats(0.1, 10.0),
    excess=st.floats(1.01, 10.0),
    sigma1_sq=st.floats(0.0, 100.0),
    epsilon=EPSILONS,
)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_optimal_minibatch_above_n_ell_is_full_batch(n, mu, ell, excess, sigma1_sq, epsilon):
    # ell_max > n ell: b ell_xi(b) falls with b as b sigma^2(b) does, so the
    # argmin is n (at ell_max = n ell, b ell_xi(b) is flat up to rounding)
    gc = make_constants(n, mu, ell, excess * n * ell, sigma1_sq)
    assert assert_brute_force_argmin(gc, epsilon).b_star == n


@pytest.mark.parametrize("mu", [0.4, 1.0])
@pytest.mark.parametrize("epsilon", [5e-324, 1e-320])
def test_optimal_minibatch_past_float_range_is_full_batch(mu, epsilon):
    # t overflows, or eps mu underflows to 0 (mu = 0.4 at 5e-324): the
    # formula's limit n
    out = assert_brute_force_argmin(make_constants(10, mu, 1.0, 4.0, 2.0), epsilon)
    assert (out.b_star_real, out.b_star) == (10.0, 10)


def test_optimal_minibatch_needs_two_components():
    gc = make_constants(1, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        C.optimal_minibatch(gc, 0.1)


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_optimal_minibatch_needs_positive_mu(mu):
    with pytest.raises(ConfigError, match="optimal minibatch size needs mu > 0"):
        C.optimal_minibatch(make_constants(4, mu, 1.0, 2.0, 1.0), 0.1)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_bound_constant_at_zero_iterations():
    val = C.theoretical_bound(
        C.SGDA_CONSTANT, 0, 2.0, alpha=0.1, mu=1.0, ell_xi=5.0, sigma_sq=3.0
    )
    assert val == pytest.approx(2.0 + 2 * 0.1 * 3.0 / 1.0, rel=1e-15)
    # a start at the solution, r0_sq = 0, leaves the noise term alone
    val = C.theoretical_bound(
        C.SGDA_CONSTANT, 0, 0.0, alpha=0.1, mu=1.0, ell_xi=5.0, sigma_sq=3.0
    )
    assert val == pytest.approx(2 * 0.1 * 3.0 / 1.0, rel=1e-15)


def test_bound_constant_deterministic_plug():
    val = C.theoretical_bound(
        C.SGDA_CONSTANT, 2, 1.0, alpha=0.5, mu=1.0, ell_xi=1.0, sigma_sq=0.0
    )
    assert val == pytest.approx(0.25, rel=1e-15)


def test_bound_constant_general_branch():
    val = C.theoretical_bound(
        C.SGDA_CONSTANT_GENERAL, 1, 1.0, alpha=0.5, mu=1.0, ell_xi=1.5, sigma_sq=2.0
    )
    rate = 1 - 2 * 0.5 * 1.0 * (1 - 0.75)
    assert val == pytest.approx(rate * 1.0 + 0.5 * 2.0 / (1.0 * 0.25), rel=1e-12)


def test_bound_sco_switching_plug():
    val = C.theoretical_bound(
        C.SCO_SWITCHING, 96, 1.0,
        mu=1.0, mu_h=1.0, ell_xi=4.0, cal_l_h=16.0, sigma_sq=3.0, sigma_h_sq=3.0,
    )
    expect = 16 * 6 / (4 * 96) + 64**2 / (math.e**2 * 96**2)
    assert val == pytest.approx(expect, rel=1e-12)


def test_bound_step_size_gate():
    with pytest.raises(NumericalError, match="step size out of range: alpha must satisfy"):
        C.theoretical_bound(
            C.SGDA_CONSTANT, 1, 1.0, alpha=4.0 / 5.0, mu=1.0, ell_xi=5.0, sigma_sq=0.0
        )
    with pytest.raises(NumericalError, match="alpha and gamma may not both vanish"):
        C.theoretical_bound(
            C.SCO_CONSTANT, 1, 1.0, alpha=0.0, gamma=0.0, mu=1.0, mu_h=1.0,
            ell_xi=1.0, cal_l_h=1.0, sigma_sq=0.0, sigma_h_sq=0.0,
        )
    # the general statement's range is 0 <= alpha < 1/ell_xi, its upper end excluded
    general = dict(mu=1.0, ell_xi=5.0, sigma_sq=1.0)
    assert C.theoretical_bound(C.SGDA_CONSTANT_GENERAL, 3, 2.0, alpha=0.0, **general) == 2.0
    for alpha in (1.0 / 5.0, 1.5 / 5.0):
        with pytest.raises(NumericalError, match="alpha must satisfy alpha < 0.2$"):
            C.theoretical_bound(C.SGDA_CONSTANT_GENERAL, 1, 1.0, alpha=alpha, **general)


def test_bound_switch_gate():
    with pytest.raises(ConfigError, match="switch not reached"):
        C.theoretical_bound(
            C.SGDA_SWITCHING, 39, 1.0, mu=1.0, ell_xi=10.0, sigma_sq=1.0
        )
    val = C.theoretical_bound(
        C.SGDA_SWITCHING, 40, 1.0, mu=1.0, ell_xi=10.0, sigma_sq=1.0
    )
    assert val == pytest.approx(8 / 40 + 16 * 100 / (math.e**2 * 1600), rel=1e-12)
    # sco: psi = 16 and mu + mu_h = 3, so the switch point is ceil(128 / 3) = 43
    sco = dict(mu=1.0, mu_h=2.0, ell_xi=4.0, cal_l_h=16.0, sigma_sq=3.0, sigma_h_sq=3.0)
    assert C.bound_start(C.SCO_SWITCHING, sco) == 43
    with pytest.raises(ConfigError, match="bound valid from iteration 43, got 42"):
        C.theoretical_bound(C.SCO_SWITCHING, 42, 1.0, **sco)
    val = C.theoretical_bound(C.SCO_SWITCHING, 43, 1.0, **sco)
    assert val == pytest.approx(16 * 6 / (9 * 43) + (128 / 3) ** 2 / (math.e**2 * 43**2),
                                rel=1e-12)
    for bound in (C.SGDA_CONSTANT, C.SGDA_CONSTANT_GENERAL, C.SCO_CONSTANT, C.SHGD_CONSTANT):
        assert C.bound_start(bound, {}) == 0
    # a switching bound's start reads its parameters, so they must all be there
    with pytest.raises(ConfigError, match="^sco_switching needs mu_h, cal_l_h, sigma_h_sq$"):
        C.bound_start(C.SCO_SWITCHING, _SGDA)


def test_bound_shgd_constant():
    val = C.theoretical_bound(
        C.SHGD_CONSTANT, 3, 1.0, gamma=0.1, mu_h=2.0, cal_l_h=5.0, sigma_h_sq=4.0
    )
    assert val == pytest.approx((1 - 0.2) ** 3 + 2 * 0.1 * 4.0 / 2.0, rel=1e-12)


def test_bound_sco_constant_mu_zero_branch():
    val = C.theoretical_bound(
        C.SCO_CONSTANT, 2, 1.0, alpha=0.05, gamma=0.1, mu=0.0, mu_h=1.0,
        ell_xi=5.0, cal_l_h=2.5, sigma_sq=1.0, sigma_h_sq=2.0,
    )
    denom = 0.1 * 1.0
    expect = (1 - denom) ** 2 + 4 * (0.05**2 * 1.0 + 0.1**2 * 2.0) / denom
    assert val == pytest.approx(expect, rel=1e-12)


_SGDA = dict(alpha=0.1, mu=1.0, ell_xi=2.0, sigma_sq=1.0)
_SCO = dict(alpha=0.05, gamma=0.05, mu=1.0, mu_h=1.0, ell_xi=2.0, cal_l_h=2.0,
            sigma_sq=1.0, sigma_h_sq=1.0)
_SHGD = dict(gamma=0.1, mu_h=1.0, cal_l_h=2.0, sigma_h_sq=1.0)
# k* = 4 ceil(ell_xi / mu) = 4e160, whose square is past float range
_TINY_MU = {**_SGDA, "mu": 1e-150, "ell_xi": 1e10}
# NaN lies outside every parameter's range, so each key of each bound rejects it:
# a step as out of range, a constant as a ConfigError
_NAN = {"alpha": (NumericalError, "^step size out of range: alpha must satisfy"),
        "gamma": (NumericalError, "^step size out of range: gamma must satisfy"),
        "mu": (ConfigError, "^this rate needs mu|^switching schedule needs"),
        "mu_h": (ConfigError, "^this rate needs .*mu_h > 0$|^switching schedule needs"),
        "ell_xi": (ConfigError, "^the theory step needs ell_xi > 0, got nan$"
                                "|^switching schedule needs"),
        "cal_l_h": (ConfigError, "^the theory step needs cal_l_h > 0, got nan$"
                                 "|^switching schedule needs"),
        "sigma_sq": (ConfigError, "^this rate needs sigma_sq >= 0, got nan$"),
        "sigma_h_sq": (ConfigError, "^this rate needs sigma_h_sq >= 0, got nan$")}
_NAN_BOUNDS = [(bound, key) for bound in C.BOUNDS for key in C.BOUNDS[bound][3]]
_NAN_CASES = [(bound, 10**4, {**_SGDA, **_SCO, key: math.nan}, *_NAN[key])
              for bound, key in _NAN_BOUNDS]
_NAN_IDS = [f"{bound}_nan_{key}" for bound, key in _NAN_BOUNDS]


@pytest.mark.parametrize("bound, k, params, error, match", [
    (C.SGDA_CONSTANT, -1, _SGDA, ConfigError, "iteration index must be >= 0"),
    (C.SGDA_CONSTANT, 1, {**_SGDA, "mu": 0.0}, ConfigError, "this rate needs mu > 0"),
    (C.SGDA_CONSTANT_GENERAL, 1, {**_SGDA, "mu": 0.0}, ConfigError, "this rate needs mu > 0"),
    (C.SCO_CONSTANT, 1, {**_SCO, "mu": -1.0}, ConfigError,
     "this rate needs mu >= 0 and mu_h > 0"),
    (C.SCO_CONSTANT, 1, {**_SCO, "mu_h": 0.0}, ConfigError,
     "this rate needs mu >= 0 and mu_h > 0"),
    (C.SHGD_CONSTANT, 1, {**_SHGD, "mu_h": 0.0}, ConfigError, "this rate needs mu_h > 0"),
    (C.SHGD_CONSTANT, 1, {**_SHGD, "gamma": 0.0}, NumericalError,
     "step size out of range: gamma must be positive"),
    ("sgda_constnat", 1, _SGDA, ConfigError, "unknown bound id 'sgda_constnat'"),
    (C.SGDA_SWITCHING, 5, {**_SGDA, "mu": 1e-308, "ell_xi": 1e308}, NumericalError,
     "switching schedule overflows float range"),
    (C.SCO_SWITCHING, 5, {**_SCO, "mu_h": 1e-308, "ell_xi": 1e308}, NumericalError,
     "switching schedule overflows float range"),
    (C.SGDA_SWITCHING, 5, {**_SGDA, "ell_xi": math.nan}, ConfigError,
     "switching schedule needs .*both finite"),
    (C.SCO_SWITCHING, 5, {**_SCO, "mu_h": math.inf}, ConfigError,
     "switching schedule needs .*both finite"),
    (C.SCO_SWITCHING, 5, {**_SCO, "ell_xi": math.nan}, ConfigError,
     "got ell_xi=nan, cal_l_h=2.0$"),
    # finite inputs whose closed form underflows a divisor to 0 or passes float range
    (C.SCO_SWITCHING, 10**201, {**_SCO, "mu": 0.0, "mu_h": 1e-200, "ell_xi": 1.0,
                                "cal_l_h": 1.0}, NumericalError,
     "sco_switching leaves float range"),
    (C.SGDA_SWITCHING, C.bound_start(C.SGDA_SWITCHING, _TINY_MU), _TINY_MU, NumericalError,
     "sgda_switching leaves float range"),
    (C.SGDA_CONSTANT_GENERAL, 1, {**_SGDA, "alpha": 0.5, "mu": 5e-324, "ell_xi": 1.0},
     NumericalError, "sgda_constant_general leaves float range"),
    (C.SCO_CONSTANT, 1, {k: v for k, v in _SCO.items() if k not in ("gamma", "sigma_h_sq")},
     ConfigError, "^sco_constant needs gamma, sigma_h_sq$"),
    (C.SHGD_CONSTANT, 1, {}, ConfigError,
     "^shgd_constant needs gamma, mu_h, cal_l_h, sigma_h_sq$"),
    (C.SGDA_CONSTANT, 3, {**_SGDA, "r0_sq": math.nan}, ConfigError,
     "^r0_sq must be finite and >= 0, got nan$"),
    (C.SGDA_CONSTANT, 3, {**_SGDA, "r0_sq": -5.0}, ConfigError,
     "^r0_sq must be finite and >= 0, got -5.0$"),
    (C.SGDA_CONSTANT, 3, {**_SGDA, "r0_sq": math.inf}, ConfigError,
     "^r0_sq must be finite and >= 0, got inf$"),
    (C.SGDA_CONSTANT, 1, {**_SGDA, "ell_xi": -1.0}, ConfigError,
     "^the theory step needs ell_xi > 0, got -1.0$"),
    (C.SGDA_CONSTANT, 1, {**_SGDA, "ell_xi": 0.0}, ConfigError,
     "^the theory step needs ell_xi > 0, got 0.0$"),
    (C.SHGD_CONSTANT, 1, {**_SHGD, "cal_l_h": -1.0}, ConfigError,
     "^the theory step needs cal_l_h > 0, got -1.0$"),
    (C.SGDA_CONSTANT, 1, {**_SGDA, "ell_xi": 1e-309}, NumericalError,
     r"^the theory step 1/\(2 ell_xi\) overflows float range at ell_xi=1e-309$"),
    (C.SCO_CONSTANT, 1, {**_SCO, "cal_l_h": 1e-309}, NumericalError,
     r"^the theory step 1/\(4 cal_l_h\) overflows float range at cal_l_h=1e-309$"),
    *_NAN_CASES,
], ids=["negative_k", "sgda_mu_zero", "sgda_general_mu_zero", "sco_mu_negative",
        "sco_mu_h_zero", "shgd_mu_h_zero", "shgd_gamma_zero", "unknown_bound",
        "sgda_switching_overflow", "sco_switching_overflow", "sgda_switching_nan",
        "sco_switching_inf", "sco_switching_nan", "sco_switching_zero_divisor",
        "sgda_switching_int_overflow", "sgda_general_zero_divisor", "missing_key", "no_keys",
        "r0_nan", "r0_negative", "r0_inf", "sgda_ell_xi_negative", "sgda_ell_xi_zero",
        "shgd_cal_l_h_negative",
        "sgda_theory_step_overflow", "sco_theory_step_overflow", *_NAN_IDS])
def test_bound_rejects_parameters_outside_its_statement(bound, k, params, error, match):
    # r0_sq, the third positional argument, is 1.0 unless the case's params hold it
    params = dict(params)
    r0_sq = params.pop("r0_sq", 1.0)
    with pytest.raises(error, match=match):
        C.theoretical_bound(bound, k, r0_sq, **params)


# Each theory bound and each smoothness constant whose step it reads.
_INF_CASES = [(C.SGDA_CONSTANT, "ell_xi"), (C.SGDA_CONSTANT_GENERAL, "ell_xi"),
              (C.SCO_CONSTANT, "ell_xi"), (C.SCO_CONSTANT, "cal_l_h"),
              (C.SHGD_CONSTANT, "cal_l_h")]


@pytest.mark.parametrize("bound, key", _INF_CASES,
                         ids=[f"{bound}_inf_{key}" for bound, key in _INF_CASES])
def test_theory_bound_rejects_an_infinite_constant(bound, key):
    # an infinite constant would build a 0 step, which the bound would then
    # blame; the error names the constant, as the switching rules' does
    assert {b for b, _ in _INF_CASES} == {b for b, row in C.BOUNDS.items() if row[1] == "theory"}
    with pytest.raises(ConfigError, match=f"^the theory step needs a finite {key}, got inf$"):
        C.theoretical_bound(bound, 10, 1.0, **{**_SGDA, **_SCO, key: math.inf})


@given(
    n=st.integers(min_value=2, max_value=50),
    ell=st.floats(min_value=0.1, max_value=10.0),
    extra=st.floats(min_value=0.0, max_value=10.0),
    sigma=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=100, deadline=None)
def test_minibatch_formulas_degenerate_endpoints(n, ell, extra, sigma):
    ell_max = ell + extra
    assert C.minibatch_ell_xi(n, n, ell, ell_max) == pytest.approx(ell, rel=1e-12)
    assert C.minibatch_ell_xi(n, 1, ell, ell_max) == pytest.approx(ell_max, rel=1e-12)
    assert C.minibatch_sigma_sq(n, n, sigma) == 0.0
    assert C.minibatch_sigma_sq(n, 1, sigma) == pytest.approx(sigma, rel=1e-12)
