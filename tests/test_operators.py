import numpy as np
import pytest

from stochvi import numerics
from stochvi.errors import ConfigError
from stochvi.operators import CosineOperator, FiniteSumOperator, QuadraticGame

from reference import random_orthogonal

FD_STEP = 1e-5


def scalar_game():
    return QuadraticGame(
        [[[2.0]]], [[[1.0]]], [[[3.0]]], [[1.0]], [[-1.0]]
    )


def random_game(n, d1, d2, seed, offsets=True):
    rng = numerics.make_rng(seed)
    a = np.stack([_spd(rng, d1) for _ in range(n)])
    c = np.stack([_spd(rng, d2) for _ in range(n)])
    b = rng.standard_normal((n, d1, d2))
    av = rng.standard_normal((n, d1)) if offsets else np.zeros((n, d1))
    cv = rng.standard_normal((n, d2)) if offsets else np.zeros((n, d2))
    return QuadraticGame(a, b, c, av, cv)


def _spd(rng, d):
    q = random_orthogonal(d, rng)
    return (q * rng.uniform(0.5, 3.0, d)) @ q.T


def finite_difference_jacobian(op, i, x):
    d = x.size
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = FD_STEP
        jac[:, j] = (op.component_value(i, x + e) - op.component_value(i, x - e)) / (
            2 * FD_STEP
        )
    return jac


def test_component_value_scalar_game():
    game = scalar_game()
    assert np.allclose(game.component_value(0, [1.0, 1.0]), [4.0, 1.0])


def test_component_value_matches_payoff_finite_differences():
    # component value is (d/dx1 g; -d/dx2 g) for the saddle payoff
    # g = x1 A x1 / 2 + x1 B x2 + a x1 - x2 C x2 / 2 - c x2.
    game = scalar_game()

    def payoff(x1, x2):
        return 0.5 * 2.0 * x1 * x1 + 1.0 * x1 * x2 + 1.0 * x1 - 0.5 * 3.0 * x2 * x2 - (-1.0) * x2

    x1, x2 = 1.0, 1.0
    g1 = (payoff(x1 + FD_STEP, x2) - payoff(x1 - FD_STEP, x2)) / (2 * FD_STEP)
    g2 = (payoff(x1, x2 + FD_STEP) - payoff(x1, x2 - FD_STEP)) / (2 * FD_STEP)
    assert np.allclose(game.component_value(0, [x1, x2]), [g1, -g2], atol=1e-9)


def test_full_value_vanishes_at_equilibrium():
    game = random_game(4, 3, 2, seed=5)
    x_star = game.equilibrium()
    r = np.linalg.norm(game.mean_offset())
    assert np.linalg.norm(game.full_value(x_star)) <= 1e-9 * max(r, 1.0)


def test_full_value_single_component():
    game = scalar_game()
    x = np.array([0.3, -0.7])
    assert np.array_equal(game.full_value(x), game.component_value(0, x))


def test_full_value_symmetric_cancellation():
    class PlusMinus(FiniteSumOperator):
        n = 2
        dim = 2

        def component_value(self, i, x):
            x = np.asarray(x, dtype=float)
            return x if i == 0 else -x

        def component_jacobian(self, i, x):
            sign = 1.0 if i == 0 else -1.0
            return sign * np.eye(2)

    op = PlusMinus()
    assert np.allclose(op.full_value([3.0, -4.0]), 0.0)


def test_component_jacobian_constant_blocks():
    game = scalar_game()
    expect = np.array([[2.0, 1.0], [-1.0, 3.0]])
    for x in ([0.0, 0.0], [5.0, -2.0]):
        assert np.array_equal(game.component_jacobian(0, x), expect)


def test_component_jacobian_matches_finite_differences():
    game = random_game(3, 2, 3, seed=11)
    rng = numerics.make_rng(0)
    for i in range(game.n):
        x = rng.standard_normal(game.dim)
        fd = finite_difference_jacobian(game, i, x)
        assert np.abs(fd - game.component_jacobian(i, x)).max() <= 1e-5


def test_cosine_jacobian_matches_finite_differences():
    op = CosineOperator(3, 1.0, 4.0)
    rng = numerics.make_rng(1)
    for _ in range(5):
        x = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
        fd = finite_difference_jacobian(op, 0, x)
        assert np.abs(fd - op.component_jacobian(0, x)).max() <= 1e-5


def test_mean_jacobian_is_jacobian_of_full_value():
    game = random_game(4, 2, 2, seed=3)
    x = numerics.make_rng(2).standard_normal(game.dim)
    mean_jac = np.mean(
        [game.component_jacobian(i, x) for i in range(game.n)], axis=0
    )
    d = game.dim
    fd = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = FD_STEP
        fd[:, j] = (game.full_value(x + e) - game.full_value(x - e)) / (2 * FD_STEP)
    assert np.abs(fd - mean_jac).max() <= 1e-5
    assert np.allclose(mean_jac, game.mean_jacobian())


def test_equilibrium_scalar_game():
    game = scalar_game()
    x_star = game.equilibrium()
    assert np.allclose(x_star, [-4 / 7, 1 / 7])
    assert np.linalg.norm(game.full_value(x_star)) <= 1e-9 * (1 + np.linalg.norm(x_star))


def test_equilibrium_homogeneous_game_is_origin():
    game = random_game(3, 2, 2, seed=9, offsets=False)
    assert np.allclose(game.equilibrium(), 0.0)


def test_cosine_equilibrium_is_origin():
    op = CosineOperator(4, 1.0, 4.0)
    assert np.array_equal(op.equilibrium(), np.zeros(4))
    assert np.allclose(op.full_value(op.equilibrium()), 0.0)


def test_cosine_value_at_pi():
    op = CosineOperator(1, 1.0, 4.0)
    # pi * (1.5 cos(pi) + 2.5) = pi
    assert np.allclose(op.full_value([np.pi]), [np.pi], rtol=1e-12)


def test_index_and_dimension_errors():
    game = scalar_game()
    with pytest.raises(ConfigError, match=r"component index 1 outside \[0, 1\)"):
        game.component_value(1, [0.0, 0.0])
    with pytest.raises(ConfigError, match="operator dimension is 2"):
        game.component_value(0, [0.0, 0.0, 0.0])
    with pytest.raises(ConfigError, match="A_0 is not symmetric"):
        QuadraticGame([[[0.0, 1.0], [0.5, 0.0]]], [[[1.0], [1.0]]],
                      [[[1.0]]], [[0.0, 0.0]], [[0.0]])


_GAME = dict(a_mats=[[[1.0]]], b_mats=[[[0.5]]], c_mats=[[[1.0]]], a_vecs=[[0.0]],
             c_vecs=[[0.0]])


@pytest.mark.parametrize("make, match", [
    (lambda: QuadraticGame(**{**_GAME, "a_mats": [[1.0]]}), "A, B, C must be stacks of matrices"),
    (lambda: QuadraticGame(**{**_GAME, "c_vecs": [[0.0], [0.0]]}),
     "all component stacks must share n"),
    (lambda: QuadraticGame(**{**_GAME, "a_mats": [[[1.0, 0.0], [0.0, 1.0]]]}),
     "A must be d1 x d1 and C must be d2 x d2"),
    (lambda: QuadraticGame(**{**_GAME, "a_vecs": [[0.0, 0.0]]}),
     "offset vectors must match block dimensions"),
    (lambda: CosineOperator(0, 1.0, 4.0), "dimension must be >= 1, got 0"),
    (lambda: CosineOperator(2, 4.0, 4.0), "need 0 < mu < big_l, got mu=4.0, big_l=4.0"),
], ids=["a_not_a_stack", "n_differs", "a_wrong_order", "offset_wrong_length",
        "cosine_no_dimension", "cosine_mu_at_big_l"])
def test_operator_rejects_inconsistent_data(make, match):
    with pytest.raises(ConfigError, match=match):
        make()


def test_first_asymmetric_component_is_named():
    game = random_game(5, 3, 2, seed=21)
    a, c = game.A.copy(), game.C.copy()
    a[3, 0, 1] += 1e-3
    a[4, 1, 2] += 1e-3
    c[1, 0, 1] += 1e-3
    with pytest.raises(ConfigError, match="^A_3 is not symmetric$"):
        QuadraticGame(a, game.B, game.C, game.a, game.c)
    with pytest.raises(ConfigError, match="^C_1 is not symmetric$"):
        QuadraticGame(game.A, game.B, c, game.a, game.c)


def test_operator_without_equilibrium_raises():
    class Anonymous(FiniteSumOperator):
        n = 1
        dim = 1

        def component_value(self, i, x):
            return np.asarray(x, dtype=float) ** 3

        def component_jacobian(self, i, x):
            return np.asarray([[3.0 * float(x[0]) ** 2]])

    op = Anonymous()
    with pytest.raises(ConfigError, match="has no analytic equilibrium"):
        op.equilibrium()


def test_quadratic_monotonicity_gap_equals_symmetric_part():
    # <value(x) - value(y), x - y> equals (x-y)^T blkdiag(A, C) (x-y).
    game = random_game(5, 3, 2, seed=21)
    sym = np.zeros((game.dim, game.dim))
    sym[: game.d1, : game.d1] = game.A.mean(axis=0)
    sym[game.d1 :, game.d1 :] = game.C.mean(axis=0)
    lam_min = np.linalg.eigvalsh(sym)[0]
    rng = numerics.make_rng(4)
    for _ in range(1000):
        x = rng.standard_normal(game.dim)
        y = rng.standard_normal(game.dim)
        gap = (game.full_value(x) - game.full_value(y)) @ (x - y)
        quad = (x - y) @ sym @ (x - y)
        assert abs(gap - quad) <= 1e-9 * (1 + abs(quad))
        assert gap >= lam_min * (x - y) @ (x - y) - 1e-9


def test_cosine_quasi_strong_monotonicity_grid():
    op = CosineOperator(2, 1.0, 4.0)
    rng = numerics.make_rng(6)
    pts = rng.standard_normal((10**4, 2))
    pts *= (rng.uniform(0.0, 100.0, 10**4) / np.linalg.norm(pts, axis=1))[:, None]
    for x in pts:
        val = op.full_value(x)
        assert val @ x >= 1.0 * x @ x - 1e-9 * (1 + x @ x)


def test_cosine_cocoercivity_around_equilibrium_grid():
    op = CosineOperator(2, 1.0, 4.0)
    rng = numerics.make_rng(7)
    pts = rng.standard_normal((10**4, 2))
    pts *= (rng.uniform(0.0, 100.0, 10**4) / np.linalg.norm(pts, axis=1))[:, None]
    for x in pts:
        val = op.full_value(x)
        assert val @ val <= 4.0 * (val @ x) + 1e-9 * (1 + val @ val)


def test_cosine_monotonicity_fails_at_known_pair():
    # One full period out, the cosine term reverses the slope:
    # <value(x) - value(y), x - y> = (pi^2/8) (L + mu - 4k(L - mu)) at
    # x = 2 pi k + pi/2, y = 2 pi k; negative for k = 1, mu = 1, L = 4.
    op = CosineOperator(1, 1.0, 4.0)
    x = np.array([2 * np.pi + np.pi / 2])
    y = np.array([2 * np.pi])
    gap = (op.full_value(x) - op.full_value(y)) @ (x - y)
    expect = (np.pi**2 / 8) * (4 + 1 - 4 * (4 - 1))
    assert abs(gap - expect) <= 1e-9
    assert gap < 0


class Componentwise(FiniteSumOperator):
    """A nonlinear operator that defines only component_value and
    component_jacobian, so its batched reads take the base class's path."""

    n, dim = 4, 3

    def component_value(self, i, x):
        return (i + 1.0) * np.sin(x + i)

    def component_jacobian(self, i, x):
        return np.diag((i + 1.0) * np.cos(x + i)) + 0.5 * i


READ_OPERATORS = {"quadratic": random_game(4, 2, 3, seed=3),
                  "cosine": CosineOperator(3, 0.5, 2.0),
                  "componentwise": Componentwise()}


@pytest.mark.parametrize("jacobian", [False, True])
@pytest.mark.parametrize("m", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(READ_OPERATORS))
def test_batch_terms_entry_is_the_component_at_its_point(name, m, jacobian):
    # entry [s, j] is component idx[s, j] (component j without idx) at xs[s],
    # byte for byte; three columns repeat an index in every row
    op = READ_OPERATORS[name]
    xs = 3.0 * numerics.make_rng(1).standard_normal((5, op.dim))
    idx = None if m is None else (np.arange(5)[:, None] + np.array([0, 1, 0][:m])) % op.n
    vals, jacs = op.batch_terms(xs, idx, jacobian=jacobian)
    rows = [range(op.n)] * len(xs) if idx is None else idx
    assert vals.shape == (len(xs), len(rows[0]), op.dim)
    if not jacobian:
        assert jacs is None
    else:
        assert jacs.shape == vals.shape + (op.dim,)
    for s, row in enumerate(rows):
        for j, i in enumerate(row):
            assert vals[s, j].tobytes() == op.component_value(int(i), xs[s]).tobytes()
            if jacobian:
                assert jacs[s, j].tobytes() == op.component_jacobian(int(i), xs[s]).tobytes()


@pytest.mark.parametrize("name", sorted(READ_OPERATORS))
def test_component_values_is_the_stack_of_components(name):
    op = READ_OPERATORS[name]
    for x in 3.0 * numerics.make_rng(2).standard_normal((4, op.dim)):
        stack = np.stack([op.component_value(i, x) for i in range(op.n)])
        assert op.component_values(x).tobytes() == stack.tobytes()


@pytest.mark.parametrize("jacobian", [False, True])
@pytest.mark.parametrize("name", sorted(READ_OPERATORS))
def test_batch_terms_reads_a_leading_block_axis_block_by_block(name, jacobian):
    # a (2, S, m) block of indices is read as its two (S, m) rows, byte for byte
    op = READ_OPERATORS[name]
    xs = 3.0 * numerics.make_rng(1).standard_normal((5, op.dim))
    idx = (np.arange(5)[None, :, None] + np.array([[[0, 1, 0]], [[2, 0, 3]]])) % op.n
    vals, jacs = op.batch_terms(xs, idx, jacobian=jacobian)
    assert vals.shape == (2, 5, 3, op.dim)
    for r, rows in enumerate(idx):
        one_vals, one_jacs = op.batch_terms(xs, rows, jacobian=jacobian)
        assert vals[r].tobytes() == one_vals.tobytes()
        assert (jacs is None) == (one_jacs is None) == (not jacobian)
        if jacobian:
            assert jacs[r].tobytes() == one_jacs.tobytes()
