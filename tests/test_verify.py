import math
import re

import numpy as np
import pytest

from stochvi import constants as C
from stochvi import experiments as E
from stochvi import numerics
from stochvi import verify as V
from stochvi.errors import ConfigError, NumericalError
from stochvi.operators import CosineOperator, FiniteSumOperator, QuadraticGame
from stochvi.sampling import SamplingScheme, moments
from stochvi.solvers import ConstantSchedule, run_batch

import reference
from reference import stochastic_hamiltonian_gradient
from test_operators import random_game


def identical_component_game(seed=31):
    base = random_game(1, 2, 2, seed=seed)
    rep = lambda arr: np.repeat(arr, 2, axis=0)
    return QuadraticGame(rep(base.A), rep(base.B), rep(base.C), rep(base.a), rep(base.c))


def certified_ell_xi(game, scheme):
    gc = C.game_constants(game)
    return C.ec_constants(gc, scheme, game).ell_xi


# ---------------------------------------------------------------------------
# expected co-coercivity check
# ---------------------------------------------------------------------------


def test_check_ec_passes_with_certified_constant():
    game = random_game(4, 2, 2, seed=70)
    for scheme in (SamplingScheme.single_element(4), SamplingScheme.minibatch(4, 2)):
        ell_xi = certified_ell_xi(game, scheme)
        report = V.check_ec(game, scheme, ell_xi, points=300, rng=numerics.make_rng(0))
        assert report.passed
        assert report.worst_margin >= -report.tolerance


def test_check_ec_fails_with_halved_constant():
    game = identical_component_game()
    scheme = SamplingScheme.single_element(2)
    ell_xi = certified_ell_xi(game, scheme)
    report = V.check_ec(game, scheme, ell_xi / 2, points=500, rng=numerics.make_rng(1))
    assert not report.passed
    assert report.witness is not None
    # the witness actually violates the inequality
    x = np.asarray(report.witness)
    x_star = game.equilibrium()
    vals = game.component_values(x)
    vals_star = game.component_values(x_star)
    inner = float(vals.mean(axis=0) @ (x - x_star))
    second = 0.5 * sum(
        float(d @ d) for d in (vals[i] - vals_star[i] for i in range(2))
    )
    assert second > (ell_xi / 2) * inner


def test_check_ec_margin_zero_at_equilibrium():
    game = random_game(3, 2, 2, seed=71)
    scheme = SamplingScheme.single_element(3)
    ell_xi = certified_ell_xi(game, scheme)
    # radius 0 collapses every probe point onto the equilibrium
    report = V.check_ec(game, scheme, ell_xi, points=10, radius=0.0, rng=numerics.make_rng(2))
    assert report.passed
    assert report.worst_margin == 0.0


def test_probe_distances_beyond_float_range_are_a_config_error():
    # |x - x*| overflows long before the radius does (dim 4 here, from about
    # 1e154); the probes would all be pulled onto the equilibrium and every
    # margin read 0
    game = random_game(3, 2, 2, seed=71)
    scheme = SamplingScheme.single_element(3)
    pts = V.sample_points(np.zeros(4), 5, 1e150, numerics.make_rng(2))
    assert np.isfinite(pts).all() and np.linalg.norm(pts, axis=1).max() > 0.0
    for radius in (1e200, 1e308):
        with pytest.raises(ConfigError, match=re.escape(f"radius {radius} ")):
            V.check_ec(game, scheme, 1.0, points=2, radius=radius, rng=numerics.make_rng(2))


@pytest.mark.parametrize("radius", [-1.0, -1e-300, float("nan")])
def test_sample_points_rejects_a_radius_below_zero(radius):
    with pytest.raises(ConfigError, match="radius must be >= 0"):
        V.sample_points(np.zeros(2), 3, radius, numerics.make_rng(0))


@pytest.mark.parametrize("check", ["ec", "class"])
def test_probe_checks_default_to_the_seed_0_generator(check):
    game = random_game(3, 2, 2, seed=72)
    scheme = SamplingScheme.single_element(3)
    run = {
        "ec": lambda **rng: V.check_ec(game, scheme, 0.5, points=20, **rng),
        "class": lambda **rng: V.check_monotonicity_class(game, 0.5, 4.0, points=20, **rng),
    }[check]
    default, seeded = run(), run(rng=numerics.make_rng(0))
    assert default.worst_margin == seeded.worst_margin
    assert np.array_equal(default.witness, seeded.witness)
    assert repr(default.details) == repr(seeded.details)


@pytest.mark.parametrize("check", ["ec", "class"])
def test_probe_checks_reject_fewer_than_one_point(check):
    # numpy would fail on the empty probe array with its own ValueError
    game = random_game(3, 2, 2, seed=72)
    scheme = SamplingScheme.single_element(3)
    run = {
        "ec": lambda points, rng: V.check_ec(game, scheme, 0.5, points=points, rng=rng),
        "class": lambda points, rng: V.check_monotonicity_class(game, 0.5, 4.0, points=points,
                                                                rng=rng),
    }[check]
    for points in (0, -2):
        rng = numerics.make_rng(3)
        with pytest.raises(ConfigError, match=f"need at least 1 probe point, got {points}$"):
            run(points, rng)
        assert rng.bit_generator.state == numerics.make_rng(3).bit_generator.state
    assert run(1, numerics.make_rng(3)).points == 1


def test_check_ec_needs_equilibrium():
    class NoStar(FiniteSumOperator):
        n = 1
        dim = 1

        def component_value(self, i, x):
            return np.asarray(x, dtype=float)

        def component_jacobian(self, i, x):
            return np.eye(1)

    with pytest.raises(ConfigError, match="has no analytic equilibrium"):
        V.check_ec(NoStar(), SamplingScheme.full_batch(1), 1.0, points=1)


def test_check_ec_never_fails_on_generated_games():
    rng = numerics.make_rng(72)
    for _ in range(6):
        n = int(rng.integers(2, 11))
        game = random_game(n, 2, 2, seed=int(rng.integers(0, 10**6)))
        for scheme in (SamplingScheme.single_element(n), SamplingScheme.minibatch(n, 2)):
            ell_xi = certified_ell_xi(game, scheme)
            report = V.check_ec(
                game, scheme, ell_xi, points=200, rng=numerics.make_rng(n)
            )
            assert report.passed


@pytest.mark.parametrize("radius, loose", [(3.0, False), (0.01, True)],
                         ids=["primary-sets-the-margin", "secondary-sets-the-margin"])
def test_check_ec_margins_at_one_probe(radius, loose):
    # The normalized margin against its definition, with expectations over
    # the enumerated reference support.  Far out, ell_xi puts the secondary
    # bound's numerator at -0.9; next to x*, where sigma^2 outweighs the
    # distance, a loose ell_xi makes that bound's normalized margin the
    # smaller one.  The check reports the primary margin either way: the
    # secondary bound holds wherever the primary one does.
    game = random_game(4, 2, 2, seed=70)
    scheme = SamplingScheme.minibatch(4, 2)
    support = reference.enumerate_support(scheme)

    def mean_sq(y):
        return sum(p * float(np.sum((vec.dense(4) / 4 @ y) ** 2)) for p, vec in support)

    x_star = game.equilibrium()
    (x,) = V.sample_points(x_star, 1, radius, numerics.make_rng(5))
    vals, vals_star = game.component_values(x), game.component_values(x_star)
    inner = float(vals.mean(axis=0) @ (x - x_star))
    sigma_sq, second, second_diff = mean_sq(vals_star), mean_sq(vals), mean_sq(vals - vals_star)
    ell_xi = 1e6 if loose else (second - 2.0 * sigma_sq - 0.9) / (2.0 * inner)
    primary = (ell_xi * inner - second_diff) / (1.0 + abs(ell_xi * inner) + second_diff)
    secondary = ((2.0 * ell_xi * inner + 2.0 * sigma_sq - second)
                 / (1.0 + abs(2.0 * ell_xi * inner) + 2.0 * sigma_sq + second))
    assert (secondary < primary) == loose
    report = V.check_ec(game, scheme, ell_xi, points=1, radius=radius, rng=numerics.make_rng(5))
    assert report.worst_margin == pytest.approx(primary, rel=1e-12)
    assert report.details["sigma_sq"] == pytest.approx(sigma_sq, rel=1e-12)


# ---------------------------------------------------------------------------
# monotonicity-class check
# ---------------------------------------------------------------------------


def test_cosine_class_checks_pass():
    op = CosineOperator(2, 1.0, 4.0)
    report = V.check_monotonicity_class(
        op, mu=1.0, ell_star=4.0, points=400, rng=numerics.make_rng(3)
    )
    assert report.passed


def test_cosine_monotonicity_probe_reports_violation():
    op = CosineOperator(1, 1.0, 4.0)
    gap = V.monotonicity_gap(op, [2 * np.pi + np.pi / 2], [2 * np.pi])
    assert gap == pytest.approx((np.pi**2 / 8) * (5 - 12), abs=1e-9)
    assert gap < 0
    # the informational probe may find violations without failing the check
    report = V.check_monotonicity_class(
        op, mu=1.0, ell_star=4.0, points=500, radius=15.0, rng=numerics.make_rng(4)
    )
    assert report.passed
    assert report.details["monotone_min"] < 0


def test_quadratic_game_class_checks_pass_including_probe():
    game = random_game(4, 2, 2, seed=73)
    gc = C.game_constants(game)
    big_l = numerics.singular_values(game.mean_jacobian())[0]
    report = V.check_monotonicity_class(
        game, mu=gc.mu, ell_star=big_l**2 / gc.mu, points=400, rng=numerics.make_rng(5)
    )
    assert report.passed
    assert report.details["monotone_min"] >= -1e-9


def test_class_check_fails_with_inflated_mu():
    game = random_game(4, 2, 2, seed=74)
    gc = C.game_constants(game)
    report = V.check_monotonicity_class(
        game, mu=gc.mu * 10, ell_star=1e9, points=400, rng=numerics.make_rng(6)
    )
    assert not report.passed
    assert report.witness is not None


@pytest.fixture(scope="module")
def desk_game():
    """The n=20, d1=d2=20 reference game and its constants."""
    game = E.generate_game(E.GameGenConfig(
        n=20, d1=20, d2=20, mu_a=1.0, l_a=1.6, mu_b=1.2, l_b=2.4,
        mu_c=1.0, l_c=1.6, seed=20240601))
    return game, C.game_constants(game)


def test_class_check_fails_with_a_tenth_of_the_cocoercivity_constant(desk_game):
    # mu itself passes sub-check (a), so only sub-check (b),
    # |dv|^2 <= ell* <dv, dx>, can fail here
    game, gc = desk_game
    assert V.check_monotonicity_class(game, gc.mu, gc.ell, points=200).passed
    report = V.check_monotonicity_class(game, gc.mu, 0.1 * gc.ell, points=200)
    assert not report.passed
    assert report.worst_margin < -0.5
    assert report.witness is not None and report.witness.shape == (game.dim,)


def test_class_check_margin_b_at_one_probe(desk_game):
    # one probe, an ell* small enough that sub-check (b) sets the margin
    game, gc = desk_game
    ell_star = 0.1 * gc.ell
    x_star = game.equilibrium()
    (x,) = V.sample_points(x_star, 1, 3.0, numerics.make_rng(5))
    dv = game.full_value(x) - game.full_value(x_star)
    inner = ell_star * float(dv @ (x - x_star))
    norm_sq = float(dv @ dv)
    expect = (inner - norm_sq) / (1.0 + norm_sq + abs(inner))
    report = V.check_monotonicity_class(game, gc.mu, ell_star, points=1, radius=3.0,
                                        rng=numerics.make_rng(5))
    assert expect < 0.0
    assert report.worst_margin == pytest.approx(expect, rel=1e-12)
    assert np.array_equal(report.witness, x)


# ---------------------------------------------------------------------------
# unbiasedness check
# ---------------------------------------------------------------------------


def test_unbiasedness_full_batch_exact_zero():
    game = random_game(3, 2, 2, seed=75)
    report = V.check_unbiasedness(game, SamplingScheme.full_batch(3))
    assert report.passed
    # no randomness: residuals are exactly zero, margins exactly the slack
    assert report.worst_margin == pytest.approx(V.EXACT_TOL, abs=0.0)


def test_unbiasedness_single_element():
    game = random_game(3, 2, 2, seed=76)
    report = V.check_unbiasedness(game, SamplingScheme.single_element(3))
    assert report.passed


def test_unbiasedness_catches_corrupted_weights(monkeypatch):
    game = random_game(3, 2, 2, seed=77)
    scheme = SamplingScheme.single_element(3)
    from stochvi import verify as verify_mod

    def corrupted(s):
        q, e, c = moments(s)
        q[0] += 1e-3 / s.n
        return q, e, c

    monkeypatch.setattr(verify_mod, "moments", corrupted)
    report = V.check_unbiasedness(game, scheme)
    assert not report.passed


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_unbiasedness_margin_is_the_slack_on_single_and_full_batches(n):
    game = random_game(n, 1, 1, seed=n)
    for scheme in (SamplingScheme.single_element(n), SamplingScheme.full_batch(n)):
        report = V.check_unbiasedness(game, scheme)
        assert report.worst_margin == V.EXACT_TOL
        assert (report.name, report.tolerance, report.points) == ("unbiasedness", 0.0, n)
        assert report.witness is None and report.details == {}


def test_unbiasedness_margin_within_rounding_of_the_slack_on_every_small_scheme():
    rng = numerics.make_rng(81)
    for n in range(1, 8):
        game = random_game(n, 1, 1, seed=n)
        schemes = [SamplingScheme.minibatch(n, b) for b in range(1, n + 1)]
        schemes += [SamplingScheme.independent(rng.uniform(0.05, 1.0, n)) for _ in range(5)]
        for scheme in schemes:
            report = V.check_unbiasedness(game, scheme)
            assert report.passed and report.points == n
            assert abs(report.worst_margin - V.EXACT_TOL) <= 1e-15, scheme


class _Unreadable(FiniteSumOperator):
    """One component in dimension 2 with no equilibrium; any read fails."""

    n, dim = 1, 2

    def component_value(self, i, x):
        raise AssertionError("the unbiasedness check read a component value")

    def component_jacobian(self, i, x):
        raise AssertionError("the unbiasedness check read a component Jacobian")


@pytest.mark.parametrize("scheme", [SamplingScheme.single_element(1),
                                    SamplingScheme.independent([0.3])],
                         ids=["single", "independent"])
def test_unbiasedness_reports_depend_on_the_scheme_alone(scheme):
    ops = [random_game(1, 2, 2, seed=84), CosineOperator(3, 1.0, 4.0), _Unreadable()]
    reports = [V.check_unbiasedness(op, scheme) for op in ops]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("dq, worst", [
    ([0.0, -3e-13, 7e-13, -5e-13], 2),
    ([0.0, -3e-13, 5e-13, -7e-13], 3),
], ids=["above", "below"])
def test_unbiasedness_margin_and_witness_from_the_moments(monkeypatch, dq, worst):
    q = 0.25 + np.array(dq)
    monkeypatch.setattr(V, "moments", lambda s: (q.copy(), None, None))
    report = V.check_unbiasedness(random_game(4, 1, 1, seed=85), SamplingScheme.single_element(4))
    assert report.worst_margin == V.EXACT_TOL - 4 * np.max(np.abs(q - 0.25))
    assert not report.passed and report.witness == worst


def test_unbiasedness_rejects_a_scheme_of_another_size():
    with pytest.raises(ConfigError, match="^scheme is for n=3, operator has n=2$"):
        V.check_unbiasedness(random_game(2, 1, 1, seed=86), SamplingScheme.single_element(3))


@pytest.mark.parametrize(
    "scheme",
    [SamplingScheme.single_element(3), SamplingScheme.minibatch(4, 2),
     SamplingScheme.independent([0.5, 0.9, 0.3])],
    ids=["single", "minibatch", "independent"],
)
def test_hamiltonian_pair_sum_factors(scheme):
    # the literal mean over independent (u, v) support pairs, which the
    # unbiasedness check replaces by (sum_i q_i J_i)^T (sum_i q_i val_i)
    game = random_game(scheme.n, 2, 2, seed=79)
    x = numerics.make_rng(3).standard_normal(game.dim) * 5.0
    support = reference.enumerate_support(scheme)
    literal = sum(
        pu * pv * stochastic_hamiltonian_gradient(game, x, u, v)
        for pu, u in support
        for pv, v in support
    )
    q, _, _ = moments(scheme)
    jacs = np.stack([game.component_jacobian(i, x) for i in range(game.n)])
    factored = np.einsum("n,nij->ij", q, jacs).T @ (q @ game.component_values(x))
    target = game.mean_jacobian().T @ game.full_value(x)
    scale = np.linalg.norm(target)
    assert np.linalg.norm(literal - factored) <= 1e-12 * scale
    assert np.linalg.norm(literal - target) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# bound envelopes
# ---------------------------------------------------------------------------


def sgda_traces(game, scheme, alpha, iterations, seeds):
    schedule = ConstantSchedule(alpha=alpha)
    return [run_batch(game, scheme, "sgda", iterations, 1, schedule, s)[0]
            for s in range(seeds)]


def test_envelope_sgda_constant_passes():
    game = random_game(5, 2, 2, seed=78)
    scheme = SamplingScheme.single_element(5)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, scheme, game)
    alpha = 1.0 / (2.0 * ec.ell_xi)
    traces = sgda_traces(game, scheme, alpha, iterations=800, seeds=100)
    params = dict(alpha=alpha, mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)
    report = V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.05)
    assert report.passed


def test_envelope_deterministic_single_trace():
    game = random_game(3, 2, 2, seed=79)
    gc = C.game_constants(game)
    alpha = 1.0 / (2.0 * gc.ell)
    traces = sgda_traces(game, SamplingScheme.full_batch(3), alpha, 200, 1)
    params = dict(alpha=alpha, mu=gc.mu, ell_xi=gc.ell, sigma_sq=0.0)
    report = V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.0 + 1e-9)
    assert report.passed


def _full_batch_envelope(game, stall_at=None):
    """One 500-step full-batch sgda trace at 1/(2 ell) and its envelope
    report; with ``stall_at`` the distances from iteration 100 on are set
    to that value."""
    gc = C.game_constants(game)
    alpha = 1.0 / (2.0 * gc.ell)
    traces = sgda_traces(game, SamplingScheme.full_batch(game.n), alpha, 500, 1)
    if stall_at is not None:
        dist_sq = traces[0].dist_sq.copy()
        dist_sq[100:] = stall_at
        traces[0] = traces[0]._replace(dist_sq=dist_sq)
    params = dict(alpha=alpha, mu=gc.mu, ell_xi=gc.ell, sigma_sq=0.0)
    return traces[0], V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.05)


@pytest.mark.parametrize("shape", [(3, 2, 2), (1, 1, 1), (6, 3, 3)])
def test_envelope_noiseless_run_at_the_rounding_floor_passes(shape):
    # the run settles where rounding stops it, while (1 - alpha mu)^k r0^2
    # falls on towards 0: the bound is held to the rounding floor there
    trace, report = _full_batch_envelope(random_game(*shape, seed=85))
    assert report.passed and report.worst_margin == pytest.approx(0.05, abs=1e-3)
    assert 0.0 < trace.dist_sq[-100:].max() < report.details["floor"]


def test_envelope_noiseless_stall_above_the_floor_fails():
    # a distance of 1e-20 is far above rounding for a unit start
    _, report = _full_batch_envelope(random_game(3, 2, 2, seed=85), stall_at=1e-20)
    assert not report.passed and report.details["floor"] < 1e-26
    assert report.passed == (report.worst_margin >= -report.tolerance)
    assert report.worst_margin < -1e3 and report.witness > 100


def test_envelope_rejects_too_few_noisy_seeds():
    game = random_game(3, 2, 2, seed=80)
    scheme = SamplingScheme.single_element(3)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, scheme, game)
    traces = sgda_traces(game, scheme, 1.0 / (2 * ec.ell_xi), 50, 5)
    params = dict(
        alpha=1.0 / (2 * ec.ell_xi), mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq
    )
    with pytest.raises(ConfigError, match="too few seeds: need >= 30 traces"):
        V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.05)


def test_envelope_step_size_gate_propagates():
    game = random_game(3, 2, 2, seed=81)
    scheme = SamplingScheme.single_element(3)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, scheme, game)
    alpha = 4.0 / ec.ell_xi
    traces = sgda_traces(game, scheme, alpha, 30, 30)
    params = dict(alpha=alpha, mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)
    with pytest.raises(NumericalError, match="step size out of range: alpha must satisfy"):
        V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.05)


def test_envelope_switching_schedule_long_range():
    from stochvi.solvers import SgdaSwitchingSchedule

    game = random_game(5, 2, 2, seed=82)
    scheme = SamplingScheme.single_element(5)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, scheme, game)
    sched = SgdaSwitchingSchedule(ell_xi=ec.ell_xi, mu=gc.mu)
    horizon = 50 * sched.switch_point
    traces = [run_batch(game, scheme, "sgda", horizon, 1, sched, s)[0] for s in range(100)]
    params = dict(mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)
    report = V.check_bound_envelope(traces, C.SGDA_SWITCHING, params, slack=1.1)
    assert report.passed
    assert report.details["k_range"][0] == sched.switch_point


def test_envelope_fails_on_staggered_divergence():
    # seeds diverge at different iterations and others run to the end; the
    # check neither drops the diverged seeds nor cuts the survivors short
    game = random_game(4, 2, 2, seed=3)
    scheme = SamplingScheme.single_element(4)
    traces = run_batch(game, scheme, "sgda", 300, 40, ConstantSchedule(alpha=0.75))
    stops = [(t.seed, len(t.dist_sq) - 1) for t in traces if t.diverged]
    assert len({k for _, k in stops}) >= 3 and len(stops) < len(traces)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, scheme, game)
    params = dict(alpha=1.0 / (2.0 * ec.ell_xi), mu=gc.mu, ell_xi=ec.ell_xi,
                  sigma_sq=ec.sigma_sq)
    report = V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.05)
    assert not report.passed
    assert report.passed == (report.worst_margin >= -report.tolerance)
    assert report.witness == min(k for _, k in stops)
    assert report.details["diverged"] == tuple(stops)


def test_envelope_rejects_unequal_lengths_without_divergence():
    game = random_game(3, 2, 2, seed=84)
    scheme = SamplingScheme.single_element(3)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, scheme, game)
    alpha = 1.0 / (2.0 * ec.ell_xi)
    traces = run_batch(game, scheme, "sgda", 40, 30, ConstantSchedule(alpha=alpha))
    traces[7] = traces[7]._replace(dist_sq=traces[7].dist_sq[:-5])
    params = dict(alpha=alpha, mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)
    with pytest.raises(ConfigError):
        V.check_bound_envelope(traces, C.SGDA_CONSTANT, params, slack=1.05)


def test_envelope_needs_traces_that_reach_the_bound():
    with pytest.raises(ConfigError, match="too few seeds: no traces supplied"):
        V.check_bound_envelope([], C.SGDA_CONSTANT, {"sigma_sq": 0.0}, slack=1.05)
    game = random_game(3, 2, 2, seed=86)
    traces = sgda_traces(game, SamplingScheme.full_batch(3), 0.01, 10, 1)
    # ell_xi / mu = 10, so the switching bound starts at iteration 40
    params = dict(mu=1.0, ell_xi=10.0, sigma_sq=0.0)
    with pytest.raises(ConfigError, match="the traces end at iteration 10, "
                                          "before the bound starts at 40"):
        V.check_bound_envelope(traces, C.SGDA_SWITCHING, params, slack=1.1)


def test_reports_are_self_certifying():
    game = random_game(3, 2, 2, seed=83)
    scheme = SamplingScheme.single_element(3)
    ell_xi = certified_ell_xi(game, scheme)
    reports = [
        V.check_ec(game, scheme, ell_xi, points=50, rng=numerics.make_rng(10)),
        V.check_ec(game, scheme, ell_xi / 4, points=50, rng=numerics.make_rng(10)),
        V.check_unbiasedness(game, scheme),
    ]
    for rep in reports:
        assert rep.passed == (rep.worst_margin >= -rep.tolerance)


def test_a_report_passes_exactly_down_to_minus_its_tolerance():
    tol = V.INEQUALITY_TOL
    assert V.CheckReport("edge", -tol, tol, 1).passed
    below = math.nextafter(-tol, -math.inf)
    assert not V.CheckReport("edge", below, tol, 1).passed
    assert V.CheckReport("exact", 0.0, 0.0, 1).passed
    assert not V.CheckReport("exact", -5e-324, 0.0, 1).passed
    assert not V.CheckReport("nan", math.nan, tol, 1).passed
    with pytest.raises(TypeError):
        V.CheckReport("edge", -tol, tol, 1, passed=True)
