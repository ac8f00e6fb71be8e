from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochvi import constants as C
from stochvi import experiments as E
from stochvi import numerics
from stochvi.errors import ConfigError, NumericalError
from stochvi.operators import FiniteSumOperator, QuadraticGame
from stochvi.sampling import SamplingScheme, draw_many
from stochvi.solvers import (
    BLOCK,
    DETERMINISTIC_METHODS,
    DIVERGENCE_FACTOR,
    METHODS,
    TERMS,
    ConstantSchedule,
    SwitchingSchedule,
    _applied_steps,
    _BatchEstimator,
    run_batch,
)

from reference import (
    draw,
    enumerate_support,
    reference_run,
    sampled_jacobian,
    sampled_value,
    solver_step,
    stochastic_hamiltonian_gradient,
)
from test_operators import random_game


def identity_game():
    # value(x) = x, equilibrium at the origin
    return QuadraticGame([[[1.0]]], [[[0.0]]], [[[1.0]]], [[0.0]], [[0.0]])


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_sgda_switching_constant_branch():
    sched = SwitchingSchedule.sgda(ell_xi=10.0, mu=1.0)
    assert sched.switch_point == 40
    assert sched.at(40) == (0.05, 0.0)


def test_sgda_switching_decreasing_branch():
    sched = SwitchingSchedule.sgda(ell_xi=10.0, mu=1.0)
    alpha, gamma = sched.at(41)
    assert alpha == pytest.approx(83 / 1764, rel=1e-15)
    assert gamma == 0.0


def test_sco_switching_constant_branch():
    sched = SwitchingSchedule.sco(ell_xi=4.0, cal_l_h=16.0, mu=1.0, mu_h=1.0)
    assert sched.switch_point == 64
    assert sched.at(64) == (1 / 64, 1 / 64)


def test_switching_continuity_and_monotone_tail():
    # both rules, sco also with mu = 0: (schedule, modulus, constant step,
    # whether gamma steps alike); sco's constant step is 1/(4 psi)
    for sched, modulus, ceiling, shared in [
        (SwitchingSchedule.sgda(ell_xi=7.3, mu=0.9), 0.9, 1 / (2 * 7.3), False),
        (SwitchingSchedule.sco(ell_xi=7.3, cal_l_h=2.0, mu=0.9, mu_h=0.4), 1.3, 1 / (4 * 7.3),
         True),
        (SwitchingSchedule.sco(ell_xi=2.0, cal_l_h=5.5, mu=0.0, mu_h=0.7), 0.7, 1 / (4 * 5.5),
         True),
    ]:
        s = sched.switch_point
        alpha_next, _ = sched.at(s + 1)
        assert alpha_next == pytest.approx(
            (2 * (s + 1) + 1) / ((s + 2) ** 2 * modulus), rel=1e-15
        )
        prev = alpha_next
        for k in range(s + 2, s + 200):
            alpha, gamma = sched.at(k)
            assert alpha <= prev + 1e-18
            assert alpha <= ceiling + 1e-15
            assert gamma == (alpha if shared else 0.0)
            prev = alpha


def test_sco_switching_mu_zero_branch():
    sched = SwitchingSchedule.sco(ell_xi=2.0, cal_l_h=8.0, mu=0.0, mu_h=0.5)
    assert sched.switch_point == int(np.ceil(8 * 8.0 / 0.5))
    alpha, gamma = sched.at(sched.switch_point + 1)
    assert alpha == gamma


def test_constant_schedule_validation():
    with pytest.raises(ConfigError):
        ConstantSchedule(alpha=-0.1)


@pytest.mark.parametrize("make, error, match", [
    (lambda: SwitchingSchedule.sgda(ell_xi=0.0, mu=1.0), ConfigError,
     "needs ell_xi > 0 and mu > 0"),
    (lambda: SwitchingSchedule.sgda(ell_xi=1.0, mu=0.0), ConfigError,
     "needs ell_xi > 0 and mu > 0"),
    (lambda: SwitchingSchedule.sco(ell_xi=0.0, cal_l_h=1.0, mu=1.0, mu_h=1.0), ConfigError,
     "needs positive smoothness constants"),
    (lambda: SwitchingSchedule.sco(ell_xi=1.0, cal_l_h=0.0, mu=1.0, mu_h=1.0), ConfigError,
     "needs positive smoothness constants"),
    (lambda: SwitchingSchedule.sco(ell_xi=1.0, cal_l_h=1.0, mu=-1.0, mu_h=1.0), ConfigError,
     "needs mu >= 0 and mu_h > 0"),
    (lambda: SwitchingSchedule.sco(ell_xi=1.0, cal_l_h=1.0, mu=1.0, mu_h=0.0), ConfigError,
     "needs mu >= 0 and mu_h > 0"),
    (lambda: SwitchingSchedule.sgda(ell_xi=float("nan"), mu=1.0), ConfigError,
     "both finite"),
    (lambda: SwitchingSchedule.sgda(ell_xi=1.0, mu=float("inf")), ConfigError,
     "both finite"),
    (lambda: SwitchingSchedule.sgda(ell_xi=float("inf"), mu=1.0), ConfigError,
     "both finite"),
    (lambda: SwitchingSchedule.sco(ell_xi=float("inf"), cal_l_h=1.0, mu=1.0, mu_h=1.0),
     ConfigError, "both finite"),
    (lambda: SwitchingSchedule.sco(ell_xi=1.0, cal_l_h=float("inf"), mu=1.0, mu_h=1.0),
     ConfigError, "both finite"),
    (lambda: SwitchingSchedule.sco(ell_xi=1.0, cal_l_h=float("nan"), mu=1.0, mu_h=1.0),
     ConfigError, "both finite"),
    (lambda: SwitchingSchedule.sco(ell_xi=1.0, cal_l_h=1.0, mu=float("inf"), mu_h=1.0),
     ConfigError, "both finite"),
    # ell_xi / mu and 8 psi / (mu_h + mu) overflow to inf
    (lambda: SwitchingSchedule.sgda(ell_xi=1e308, mu=1e-308), NumericalError, "overflow"),
    (lambda: SwitchingSchedule.sco(ell_xi=1e308, cal_l_h=1.0, mu=0.0, mu_h=1e-308),
     NumericalError, "overflow"),
], ids=["sgda_ell_xi_zero", "sgda_mu_zero", "sco_ell_xi_zero",
        "sco_cal_l_h_zero", "sco_mu_negative", "sco_mu_h_zero", "sgda_ell_xi_nan",
        "sgda_mu_inf", "sgda_ell_xi_inf", "sco_ell_xi_inf", "sco_cal_l_h_inf",
        "sco_cal_l_h_nan", "sco_mu_inf", "sgda_k_star_overflow", "sco_k_star_overflow"])
def test_switching_schedules_reject_constants_outside_their_range(make, error, match):
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize("field", ["alpha", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_constant_schedule_rejects_non_finite_steps(field, value):
    with pytest.raises(ConfigError):
        ConstantSchedule(**{"alpha": 0.1, "gamma": 0.1, field: value})


# ---------------------------------------------------------------------------
# Hamiltonian-gradient estimator
# ---------------------------------------------------------------------------


def test_hamiltonian_gradient_deterministic_limit():
    game = random_game(1, 2, 2, seed=1)
    scheme = SamplingScheme.full_batch(1)
    vec = draw(scheme, numerics.make_rng(0))
    x = numerics.make_rng(2).standard_normal(game.dim)
    grad = stochastic_hamiltonian_gradient(game, x, vec, vec)
    expect = game.mean_jacobian().T @ game.full_value(x)
    assert np.allclose(grad, expect, rtol=1e-12, atol=1e-12)


def test_hamiltonian_gradient_swap_symmetric():
    game = random_game(4, 2, 2, seed=2)
    scheme = SamplingScheme.single_element(4)
    rng = numerics.make_rng(3)
    u, v = draw(scheme, rng), draw(scheme, rng)
    x = numerics.make_rng(4).standard_normal(game.dim)
    a = stochastic_hamiltonian_gradient(game, x, u, v)
    b = stochastic_hamiltonian_gradient(game, x, v, u)
    assert a.tobytes() == b.tobytes()


def test_hamiltonian_gradient_unbiased_over_product_support():
    rng = numerics.make_rng(5)
    for n in (2, 3, 5):
        game = random_game(n, 2, 1, seed=n)
        scheme = SamplingScheme.single_element(n)
        support = enumerate_support(scheme)
        for _ in range(20):
            x = rng.standard_normal(game.dim) * 2.0
            mean = np.zeros(game.dim)
            for pu, u in support:
                for pv, v in support:
                    mean += pu * pv * stochastic_hamiltonian_gradient(game, x, u, v)
            target = game.mean_jacobian().T @ game.full_value(x)
            assert np.linalg.norm(mean - target) <= 1e-12 * (
                1 + np.linalg.norm(target)
            )


def test_sampled_value_and_jacobian_full_batch():
    game = random_game(3, 2, 2, seed=6)
    vec = draw(SamplingScheme.full_batch(3), numerics.make_rng(0))
    x = np.ones(game.dim)
    assert np.allclose(sampled_value(game, x, vec), game.full_value(x), rtol=1e-12)
    assert np.allclose(sampled_jacobian(game, x, vec), game.mean_jacobian(), rtol=1e-12)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_sgda_step_scalar_contraction():
    game = identity_game()
    vec = draw(SamplingScheme.full_batch(1), numerics.make_rng(0))
    out = solver_step("sgda", game, np.array([1.0, 0.0]), vec, None, 0.5, 0.0)
    assert np.allclose(out, [0.5, 0.0])


def test_sco_step_with_zero_gamma_equals_sgda_step():
    game = random_game(3, 2, 2, seed=7)
    vec = draw(SamplingScheme.single_element(3), numerics.make_rng(1))
    x = numerics.make_rng(2).standard_normal(game.dim)
    a = solver_step("sgda", game, x, vec, None, 0.07, 0.0)
    b = solver_step("sco", game, x, vec, None, 0.07, 0.0)
    assert a.tobytes() == b.tobytes()


def test_sco_step_with_zero_alpha_equals_shgd_step():
    game = random_game(3, 2, 2, seed=8)
    rng = numerics.make_rng(3)
    v, u = draw(SamplingScheme.single_element(3), rng), draw(
        SamplingScheme.single_element(3), rng
    )
    x = numerics.make_rng(4).standard_normal(game.dim)
    a = solver_step("shgd", game, x, v, u, 0.0, 0.02)
    b = solver_step("sco", game, x, v, u, 0.0, 0.02)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "method, batch, values, jacobians",
    [
        ("sgda", "single", 1, 0),
        ("shgd", "single", 2, 2),
        ("sco", "single", 2, 2),
        ("gda", "full", 4, 0),
        ("co", "full", 8, 8),
    ],
)
def test_component_evaluations_per_step(method, batch, values, jacobians):
    # sco/co evaluate value_v once for both terms: 2 value calls per draw
    # pair, not 3 (n = 4, so the full batch costs n and 2n)
    game = random_game(4, 2, 2, seed=10)
    calls = {"value": 0, "jacobian": 0}
    value, jacobian = game.component_value, game.component_jacobian

    def counted_value(i, x):
        calls["value"] += 1
        return value(i, x)

    def counted_jacobian(i, x):
        calls["jacobian"] += 1
        return jacobian(i, x)

    game.component_value, game.component_jacobian = counted_value, counted_jacobian
    scheme = SamplingScheme.full_batch(4) if batch == "full" else SamplingScheme.single_element(4)
    rng = numerics.make_rng(0)
    v, u = draw(scheme, rng), draw(scheme, rng)
    solver_step(method, game, np.ones(game.dim), v, u, 0.1, 0.1)
    assert (calls["value"], calls["jacobian"]) == (values, jacobians)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def batch_of(cfg, seeds, record_iterates=False):
    """run_batch from seed cfg["seed"] on the run that the reference_run
    keywords ``cfg`` describe."""
    return run_batch(cfg["operator"], cfg["scheme"], cfg["method"], cfg["iterations"], seeds,
                     cfg["schedule"], cfg["seed"], x0=cfg.get("x0"),
                     record_iterates=record_iterates)


def test_gda_geometric_decay_trace():
    game = identity_game()
    trace = run_batch(game, SamplingScheme.full_batch(1), "gda", 4, 1,
                      ConstantSchedule(alpha=0.5))[0]
    assert trace.dist_sq[0] == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(trace.dist_sq, [1.0, 0.25, 0.0625, 0.015625, 0.00390625], rtol=1e-10)


def test_run_is_deterministic_bitwise():
    game = random_game(4, 3, 3, seed=10)
    cfg = dict(
        method="sco",
        operator=game,
        scheme=SamplingScheme.single_element(4),
        schedule=ConstantSchedule(alpha=0.01, gamma=0.005),
        iterations=200,
        seed=123,
    )
    t1, t2 = batch_of(cfg, 1, record_iterates=True)[0], batch_of(cfg, 1)[0]
    assert t1.dist_sq.tobytes() == t2.dist_sq.tobytes()
    assert t1.iterates.tobytes() == reference_run(**cfg)[1].tobytes()
    assert t1.final_x.tobytes() == t2.final_x.tobytes()


def test_sco_gamma_zero_couples_to_sgda():
    game = random_game(5, 2, 2, seed=11)
    scheme = SamplingScheme.single_element(5)
    for seed in range(3):
        sgda = run_batch(game, scheme, "sgda", 500, 1, ConstantSchedule(alpha=0.02), seed)[0]
        sco = run_batch(game, scheme, "sco", 500, 1,
                        ConstantSchedule(alpha=0.02, gamma=0.0), seed)[0]
        assert sgda.dist_sq.tobytes() == sco.dist_sq.tobytes()


def test_sco_alpha_zero_couples_to_shgd():
    game = random_game(5, 2, 2, seed=12)
    scheme = SamplingScheme.single_element(5)
    for seed in range(3):
        schedule = ConstantSchedule(alpha=0.0, gamma=0.003)
        shgd = run_batch(game, scheme, "shgd", 500, 1, schedule, seed)[0]
        sco = run_batch(game, scheme, "sco", 500, 1, schedule, seed)[0]
        assert shgd.dist_sq.tobytes() == sco.dist_sq.tobytes()


def test_gda_per_step_contraction_bound():
    # per-step squared-distance factor <= 1 - alpha mu at alpha = 1/(2 ell)
    rng = numerics.make_rng(13)
    for _ in range(10):
        game = random_game(int(rng.integers(2, 6)), 2, 2, seed=int(rng.integers(0, 10**6)))
        gc = C.game_constants(game)
        alpha = 1.0 / (2.0 * gc.ell)
        trace = run_batch(game, SamplingScheme.full_batch(game.n), "gda", 200, 1,
                          ConstantSchedule(alpha=alpha), 1)[0]
        factor = 1.0 - alpha * gc.mu
        for k in range(200):
            assert trace.dist_sq[k + 1] <= factor * trace.dist_sq[k] + 1e-12 * trace.dist_sq[0]


def test_co_per_step_contraction_bound():
    rng = numerics.make_rng(14)
    for _ in range(10):
        game = random_game(int(rng.integers(2, 6)), 2, 2, seed=int(rng.integers(0, 10**6)))
        gc = C.game_constants(game)
        ham = C.hamiltonian_constants(game, SamplingScheme.full_batch(game.n))
        alpha = 1.0 / (4.0 * gc.ell)
        gamma = 1.0 / (4.0 * ham.l_h)
        trace = run_batch(game, SamplingScheme.full_batch(game.n), "co", 200, 1,
                          ConstantSchedule(alpha=alpha, gamma=gamma), 2)[0]
        factor = 1.0 - gamma * ham.mu_h - alpha * gc.mu
        for k in range(200):
            assert trace.dist_sq[k + 1] <= factor * trace.dist_sq[k] + 1e-12 * trace.dist_sq[0]


def test_divergence_guard_truncates_and_flags():
    game = identity_game()
    trace = run_batch(game, SamplingScheme.full_batch(1), "gda", 50, 1,
                      ConstantSchedule(alpha=25.0))[0]
    assert trace.diverged
    assert len(trace.dist_sq) < 51
    assert trace.dist_sq[-1] > 1e12 * trace.dist_sq[0]


def test_run_applies_step_sizes_and_x0_override():
    # on value(x) = x a step of alpha scales |x|^2 by (1 - alpha)^2
    game = identity_game()
    x0 = np.array([3.0, 4.0])
    sched = SwitchingSchedule.sgda(ell_xi=2.0, mu=1.0)
    trace = run_batch(game, SamplingScheme.full_batch(1), "sgda", 12, 1, sched, x0=x0)[0]
    assert trace.dist_sq[0] == pytest.approx(25.0, rel=1e-12)
    assert len(trace.dist_sq) - 1 == 12
    alphas, gammas = zip(*(_applied_steps("sgda", *sched.at(k)) for k in range(12)))
    assert alphas[0] == pytest.approx(0.25)
    assert max(gammas) == 0.0
    assert alphas[9] == pytest.approx((2 * 9 + 1) / (10**2 * 1.0), rel=1e-12)
    for k, alpha in enumerate(alphas):
        assert trace.dist_sq[k + 1] == pytest.approx((1.0 - alpha) ** 2 * trace.dist_sq[k],
                                                     rel=1e-12)


class NoStar(FiniteSumOperator):
    n, dim = 3, 2

    def component_value(self, i, x):
        return x

    def component_jacobian(self, i, x):
        return np.eye(2)


@pytest.mark.parametrize("change, message", [
    ({"method": "gdaa"}, "unknown method"),
    ({"iterations": -1}, "iterations must be >= 0"),
    ({"seeds": 0}, "at least one seed"),
    ({"scheme": SamplingScheme.full_batch(4)}, "scheme is for n=4"),
    ({"scheme": SamplingScheme.single_element(3)}, "gda requires the full-batch scheme"),
    ({"method": "co", "scheme": SamplingScheme.minibatch(3, 2)},
     "co requires the full-batch scheme"),
    ({"operator": NoStar()}, "NoStar has no analytic equilibrium"),
    ({"x0": np.zeros(3)}, "x0 has the wrong dimension"),
    ({"schedule": "bogus"}, "^schedule must be a schedule object, got 'bogus'$"),
    ({"schedule": None}, "^schedule must be a schedule object, got None$"),
    ({"schedule": 0.1}, r"^schedule must be a schedule object, got 0\.1$"),
    ({"schedule": SimpleNamespace(at=0.1)},
     r"^schedule must be a schedule object, got namespace\(at=0\.1\)$"),
], ids=["unknown_method", "negative_iterations", "no_seeds", "scheme_size", "gda_stochastic",
        "co_stochastic", "no_equilibrium", "x0_shape", "schedule_name", "schedule_none",
        "schedule_number", "schedule_at_not_callable"])
def test_run_batch_rejects_bad_input_before_it_draws(monkeypatch, change, message):
    good = dict(operator=random_game(3, 1, 1, seed=15), scheme=SamplingScheme.full_batch(3),
                method="gda", iterations=5, seeds=2, schedule=ConstantSchedule(alpha=0.1))
    made = []

    def make_rng(seed, real=numerics.make_rng):
        made.append(seed)
        return real(seed)

    monkeypatch.setattr(numerics, "make_rng", make_rng)
    with pytest.raises(ConfigError, match=message):
        run_batch(**{**good, **change})
    assert made == []
    run_batch(**good)  # the count sees a run's generators
    assert made == [0, 1]


def test_trace_lengths_and_finiteness():
    game = random_game(3, 2, 2, seed=16)
    cfg = dict(
        method="sgda", operator=game, scheme=SamplingScheme.minibatch(3, 2),
        schedule=ConstantSchedule(alpha=0.05), iterations=100, seed=3,
    )
    trace = batch_of(cfg, 1, record_iterates=True)[0]
    assert len(trace.dist_sq) == 101
    assert trace.iterates.shape == (101, game.dim)
    assert np.all(np.isfinite(trace.dist_sq))
    assert trace.iterates.tobytes() == reference_run(**cfg)[1].tobytes()


# ---------------------------------------------------------------------------
# seed batches
# ---------------------------------------------------------------------------


BATCH_CASES = {
    "sgda-single": ("sgda", lambda n: SamplingScheme.single_element(n),
                    ConstantSchedule(alpha=0.05)),
    "sco-single": ("sco", lambda n: SamplingScheme.single_element(n),
                   ConstantSchedule(alpha=0.03, gamma=0.004)),
    "shgd-single": ("shgd", lambda n: SamplingScheme.single_element(n),
                    ConstantSchedule(alpha=0.0, gamma=0.004)),
    "sgda-minibatch3": ("sgda", lambda n: SamplingScheme.minibatch(n, 3),
                        ConstantSchedule(alpha=0.05)),
    "sgda-minibatch5": ("sgda", lambda n: SamplingScheme.minibatch(n, 5),
                        ConstantSchedule(alpha=0.05)),
    "sco-minibatch3": ("sco", lambda n: SamplingScheme.minibatch(n, 3),
                       ConstantSchedule(alpha=0.03, gamma=0.004)),
    "gda-full": ("gda", lambda n: SamplingScheme.full_batch(n),
                 ConstantSchedule(alpha=0.05)),
    "co-full": ("co", lambda n: SamplingScheme.full_batch(n),
                ConstantSchedule(alpha=0.03, gamma=0.004)),
    "sgda-independent": ("sgda", lambda n: SamplingScheme.independent(
        [0.2 + 0.1 * i for i in range(n)]), ConstantSchedule(alpha=0.05)),
    "sco-independent": ("sco", lambda n: SamplingScheme.independent(
        [0.2 + 0.1 * i for i in range(n)]), ConstantSchedule(alpha=0.03, gamma=0.004)),
    "sgda-switching": ("sgda", lambda n: SamplingScheme.single_element(n),
                       SwitchingSchedule.sgda(ell_xi=8.0, mu=1.0)),
    "sco-switching": ("sco", lambda n: SamplingScheme.single_element(n),
                      SwitchingSchedule.sco(ell_xi=8.0, cal_l_h=30.0, mu=1.0, mu_h=0.5)),
}

# Twelve components pass the 8 terms from which numpy sums one-element terms
# pairwise.
WIDE_CASES = {
    "sgda-minibatch9": ("sgda", lambda n: SamplingScheme.minibatch(n, 9),
                        ConstantSchedule(alpha=0.05)),
    "sco-minibatch9": ("sco", lambda n: SamplingScheme.minibatch(n, 9),
                       ConstantSchedule(alpha=0.03, gamma=0.004)),
    "gda-full": BATCH_CASES["gda-full"],
    "co-full": BATCH_CASES["co-full"],
    "sgda-independent": ("sgda", lambda n: SamplingScheme.independent(
        [0.2 + 0.05 * i for i in range(n)]), ConstantSchedule(alpha=0.05)),
    "sco-independent": ("sco", lambda n: SamplingScheme.independent(
        [0.2 + 0.05 * i for i in range(n)]), ConstantSchedule(alpha=0.03, gamma=0.004)),
}


def assert_same_trace(got, want):
    assert (got.seed, got.diverged) == (want.seed, want.diverged)
    for field in ("dist_sq", "final_x"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("case, n", [
    *(pytest.param(BATCH_CASES[c], 6, id=c) for c in sorted(BATCH_CASES)),
    *(pytest.param(WIDE_CASES[c], 12, id=f"{c}-n12") for c in sorted(WIDE_CASES)),
])
def test_seed_batch_equals_separate_runs(case, n):
    method, make_scheme, schedule = case
    game = random_game(n, 3, 2, seed=20)
    scheme = make_scheme(game.n)
    batch = run_batch(game, scheme, method, 150, 5, schedule, 7, record_iterates=True)
    assert [t.seed for t in batch] == list(range(7, 12))
    for trace in batch:
        cfg = dict(method=method, operator=game, scheme=scheme, schedule=schedule,
                   iterations=150, seed=trace.seed)
        single = batch_of(cfg, 1, record_iterates=True)[0]
        assert_same_trace(trace, single)
        dist_sq, xs, final_x = reference_run(**cfg)
        assert trace.dist_sq.tobytes() == dist_sq.tobytes()
        assert single.iterates.tobytes() == xs.tobytes()
        if trace.seed == 7:  # the batch keeps its first seed's iterates
            assert trace.iterates.tobytes() == xs.tobytes()
        assert trace.final_x.tobytes() == final_x.tobytes()


def test_diverging_seeds_leave_the_batch_alone():
    # at this step some seeds diverge, each at its own iteration, and the
    # others run to the end
    game = random_game(4, 2, 2, seed=3)
    scheme = SamplingScheme.single_element(4)
    schedule = ConstantSchedule(alpha=0.75)
    batch = run_batch(game, scheme, "sgda", 300, 8, schedule)
    stops = {len(t.dist_sq) - 1 for t in batch if t.diverged}
    assert len(stops) >= 3 and any(not t.diverged for t in batch)
    for trace in batch:
        cfg = dict(method="sgda", operator=game, scheme=scheme, schedule=schedule,
                   iterations=300, seed=trace.seed)
        single = batch_of(cfg, 1, record_iterates=True)[0]
        assert_same_trace(trace, single)
        dist_sq, xs, final_x = reference_run(**cfg)
        assert trace.dist_sq.tobytes() == dist_sq.tobytes()
        assert single.iterates.tobytes() == xs.tobytes()
        assert trace.final_x.tobytes() == final_x.tobytes()


class Delegating(FiniteSumOperator):
    """A game seen only through the per-component protocol, so runs take the
    operator base class's batched read."""

    def __init__(self, game):
        self.game, self.n, self.dim = game, game.n, game.dim

    def component_value(self, i, x):
        return self.game.component_value(i, x)

    def component_jacobian(self, i, x):
        return self.game.component_jacobian(i, x)

    def equilibrium(self):
        return self.game.equilibrium()


class Line(FiniteSumOperator):
    """A one-dimensional operator: component i is scales[i] * x + shifts[i],
    so every estimator term has one element."""

    dim = 1
    affine = True

    def __init__(self, n, seed):
        rng = numerics.make_rng(seed)
        self.n = n
        self.scales = rng.uniform(0.5, 3.0, n)
        self.shifts = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)

    def component_value(self, i, x):
        return self.scales[i] * x + self.shifts[i]

    def component_jacobian(self, i, x):
        return np.array([[self.scales[i]]])

    def equilibrium(self):
        return np.array([-self.shifts.sum() / self.scales.sum()])


@pytest.mark.parametrize("case, make_op", [
    *(pytest.param(BATCH_CASES[c], lambda: Delegating(random_game(6, 3, 2, seed=21)), id=c)
      for c in ["sco-single", "sco-minibatch3", "co-full", "sco-independent"]),
    *(pytest.param(WIDE_CASES[c], lambda: Line(12, seed=21), id=f"{c}-1d")
      for c in ["co-full", "sco-minibatch9", "sco-independent"]),
])
def test_seed_batch_of_a_generic_operator(case, make_op):
    method, make_scheme, schedule = case
    op = make_op()
    scheme = make_scheme(op.n)
    batch = run_batch(op, scheme, method, 60, 3, schedule)
    for trace in batch:
        cfg = dict(method=method, operator=op, scheme=scheme, schedule=schedule,
                   iterations=60, seed=trace.seed)
        dist_sq, xs, final_x = reference_run(**cfg)
        assert trace.dist_sq.tobytes() == dist_sq.tobytes()
        assert batch_of(cfg, 1, record_iterates=True)[0].iterates.tobytes() == xs.tobytes()
        assert trace.final_x.tobytes() == final_x.tobytes()


class NegativeZeros(FiniteSumOperator):
    """Every component value and Jacobian entry is -0.0."""

    n = 12

    def __init__(self, dim):
        self.dim = dim

    def component_value(self, i, x):
        return np.full(self.dim, -0.0)

    def component_jacobian(self, i, x):
        return np.full((self.dim, self.dim), -0.0)


@pytest.mark.parametrize("dim", [1, 3])
def test_batch_estimator_keeps_signed_zeros_and_empty_draws(dim):
    # a sum of -0.0 terms is -0.0, and an independent draw that selects
    # nothing is the +0.0 of the one-point estimate
    op = NegativeZeros(dim)
    xs = np.zeros((40, dim))
    schemes = [SamplingScheme.minibatch(12, 9), SamplingScheme.full_batch(12),
               SamplingScheme.independent([0.1] * 12)]
    for scheme in schemes:
        rows = draw_many(scheme, numerics.make_rng(0), len(xs))
        rng = numerics.make_rng(0)
        vecs = [draw(scheme, rng) for _ in xs]
        vals, jacs = _BatchEstimator(op, scheme).evaluate(rows, xs, jacobian=True)
        for x, vec, val, jac in zip(xs, vecs, vals, jacs):
            assert val.tobytes() == sampled_value(op, x, vec).tobytes()
            assert jac.tobytes() == sampled_jacobian(op, x, vec).tobytes()
        selected = [bool(vec.indices) for vec in vecs]
        assert np.signbit(vals).all(axis=1).tolist() == selected
        if scheme.batch_size is None:  # some draws select nothing, some do
            assert 0 < sum(selected) < len(selected)


def count_calls(obj, name, calls):
    """Make obj.<name> add one to calls[name] per call."""
    fn = getattr(obj, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    setattr(obj, name, counted)


def test_full_batch_co_evaluates_the_batch_once_per_step():
    # with no draw, u's estimate is v's: 10 co steps of 3 seeds take one
    # batched read each, after the one read of the game's constant Jacobian
    # when the estimator is built, and an operator seen through its
    # components evaluates each of its 4 components once per seed and step
    game, op = random_game(4, 2, 2, seed=10), Delegating(random_game(4, 2, 2, seed=10))
    calls = dict.fromkeys(("batch_terms", "component_value", "component_jacobian"), 0)
    count_calls(game, "batch_terms", calls)
    count_calls(op, "component_value", calls)
    count_calls(op, "component_jacobian", calls)
    schedule = ConstantSchedule(alpha=0.03, gamma=0.004)
    for target in (game, op):
        run_batch(target, SamplingScheme.full_batch(4), "co", 10, 3, schedule)
    construction, steps = 1, 10
    assert calls == {"batch_terms": construction + steps, "component_value": 120,
                     "component_jacobian": 120}


PAIR_SCHEMES = {
    "single": SamplingScheme.single_element,
    "minibatch3": lambda n: SamplingScheme.minibatch(n, 3),
    "independent": lambda n: SamplingScheme.independent([0.1] * n),
}


@pytest.mark.parametrize("scheme_id", sorted(PAIR_SCHEMES))
@pytest.mark.parametrize("make_op", [
    pytest.param(lambda: random_game(6, 3, 2, seed=21), id="game"),
    pytest.param(lambda: Delegating(random_game(6, 3, 2, seed=21)), id="per_entry"),
    pytest.param(lambda: Line(12, seed=21), id="line"),
])
def test_a_pair_block_is_bitwise_two_one_draw_evaluations(make_op, scheme_id):
    # a Hamiltonian step evaluates its v and u draws as one (2, S, ...)
    # block; each row of the result is that draw's own evaluation
    op = make_op()
    scheme = PAIR_SCHEMES[scheme_id](op.n)
    pair = np.stack([draw_many(scheme, numerics.make_rng(s), 2) for s in range(8)], axis=1)
    xs = numerics.make_rng(9).standard_normal((8, op.dim))
    estimator = _BatchEstimator(op, scheme)
    vals, jacs = estimator.evaluate(pair, xs, jacobian=True)
    assert vals.shape == (2, 8, op.dim) and jacs.shape == (2, 8, op.dim, op.dim)
    for draws, val, jac in zip(pair, vals, jacs):
        one_val, one_jac = estimator.evaluate(draws, xs, jacobian=True)
        assert val.tobytes() == one_val.tobytes()
        assert jac.tobytes() == one_jac.tobytes()
    if scheme_id == "independent":  # some draws select nothing, some do
        assert 0 < pair.any(axis=2).sum() < pair.shape[0] * pair.shape[1]


class CountingGame(QuadraticGame):
    """A quadratic game that counts its batched reads."""

    reads = 0

    def batch_terms(self, xs, idx=None, jacobian=False):
        self.reads += 1
        return super().batch_terms(xs, idx, jacobian)


@pytest.mark.parametrize("scheme_id", sorted(PAIR_SCHEMES))
@pytest.mark.parametrize("method", ["sco", "shgd"])
def test_a_hamiltonian_step_reads_the_operator_once(method, scheme_id):
    # under independent sampling too, where each read holds all n components
    game = random_game(6, 3, 2, seed=10)
    op = CountingGame(game.A, game.B, game.C, game.a, game.c)
    run_batch(op, PAIR_SCHEMES[scheme_id](op.n), method, 12, 3,
              ConstantSchedule(alpha=0.03, gamma=0.004))
    assert op.reads == 12


@pytest.mark.parametrize("scheme", ["single", "minibatch3", "full", "independent"])
@pytest.mark.parametrize("method", ["sco", "shgd", "sgda"])
def test_runs_leave_the_game_data_unchanged(method, scheme):
    # the estimator scales the terms it reads in place only when the read
    # returned them fresh, never the game's own Jacobians or offsets
    game = random_game(6, 3, 2, seed=10)
    make = {**PAIR_SCHEMES, "full": SamplingScheme.full_batch}[scheme]
    data = (game.component_jacobians, game._offsets, game.mean_jacobian(), game.mean_offset(),
            game.A, game.B, game.C, game.a, game.c)
    before = [arr.tobytes() for arr in data]
    for m in (method, "co", "gda") if scheme == "full" else (method,):
        run_batch(game, make(game.n), m, 20, 3, ConstantSchedule(alpha=0.03, gamma=0.004))
    assert [arr.tobytes() for arr in data] == before


class Cliff(FiniteSumOperator):
    """Component i is scales[i] * x, which contracts toward x* = 0, until
    |x|^2 < 1e-4; below that its first entry is ``edge`` (nan or inf), so
    the next iterate is not finite, at an iteration the draws decide."""

    n, dim = 2, 2
    scales = (0.4, 1.0)

    def __init__(self, edge):
        self.edge = edge

    def component_value(self, i, x):
        if x @ x < 1e-4:
            return np.array([self.edge, 0.0])
        return self.scales[i] * x

    def component_jacobian(self, i, x):
        return self.scales[i] * np.eye(2)

    def equilibrium(self):
        return np.zeros(2)


def assert_guard_matches_reference(batch, cfg):
    for trace in batch:
        dist_sq, xs, final_x = reference_run(**{**cfg, "seed": trace.seed})
        d0, d = dist_sq[0], dist_sq[-1]
        stopped = not np.isfinite(xs[-1]).all() or d0 > 0.0 and d > DIVERGENCE_FACTOR * d0
        assert trace.diverged == stopped
        assert len(trace.dist_sq) == len(xs)
        assert trace.dist_sq.tobytes() == dist_sq.tobytes()
        assert trace.final_x.tobytes() == final_x.tobytes()


@pytest.mark.parametrize("edge", [np.nan, np.inf], ids=["nan", "inf"])
def test_guard_stops_a_seed_at_its_first_non_finite_iterate(edge):
    op = Cliff(edge)
    cfg = dict(method="sgda", operator=op, scheme=SamplingScheme.single_element(2),
               schedule=ConstantSchedule(alpha=0.5), iterations=40, seed=0)
    with np.errstate(invalid="ignore"):
        batch = batch_of(cfg, 6)
        assert_guard_matches_reference(batch, cfg)
    assert all(t.diverged and not np.isfinite(t.final_x).all() for t in batch)
    assert len({len(t.dist_sq) for t in batch}) >= 2


def test_guard_from_the_equilibrium_waits_for_a_non_finite_iterate():
    # d0 = 0, so only a non-finite iterate stops a seed: the squared
    # distance overflows to inf first and the run goes on
    game = random_game(4, 2, 2, seed=5)
    cfg = dict(method="sgda", operator=game, scheme=SamplingScheme.single_element(4),
               schedule=ConstantSchedule(alpha=60.0), iterations=400, seed=0,
               x0=game.equilibrium())
    with np.errstate(over="ignore", invalid="ignore"):
        batch = batch_of(cfg, 3)
        assert_guard_matches_reference(batch, cfg)
    for trace in batch:
        assert trace.diverged and trace.dist_sq[0] == 0.0
        assert not np.isfinite(trace.final_x).all()
        assert np.isinf(trace.dist_sq[:-1]).any()


class Fuse(FiniteSumOperator):
    """Component 0 is -1e7 x, so an sgda step of alpha = 1 that draws it
    takes the iterate 1e14 times its squared distance from x* = 0, past
    DIVERGENCE_FACTOR; every other component is 0 and leaves the iterate
    where it is.  A seed stops at its first draw of component 0."""

    dim = 2

    def __init__(self, n):
        self.n = n

    def component_value(self, i, x):
        return (-1e7 if i == 0 else 0.0) * x

    def component_jacobian(self, i, x):
        return (-1e7 if i == 0 else 0.0) * np.eye(2)

    def equilibrium(self):
        return np.zeros(2)


def fuse_run(n, iterations, seed=0):
    return dict(method="sgda", operator=Fuse(n), scheme=SamplingScheme.single_element(n),
                schedule=ConstantSchedule(alpha=1.0), iterations=iterations, seed=seed)


def first_seed_stopping_at(cfg, stop):
    """The smallest seed whose one-point run of cfg diverges at iteration
    ``stop``."""
    for seed in range(5000):
        dist_sq = reference_run(**{**cfg, "seed": seed})[0]
        if len(dist_sq) == stop + 1 and dist_sq[-1] > DIVERGENCE_FACTOR * dist_sq[0]:
            return seed
    raise AssertionError(f"no seed below 5000 stops at iteration {stop}")


def assert_batch_matches_reference(cfg, seeds):
    """batch_of(cfg, seeds) with the first seed's iterates, against the
    one-point loop bit for bit; returns the traces."""
    batch = batch_of(cfg, seeds, record_iterates=True)
    assert_guard_matches_reference(batch, cfg)
    assert batch[0].iterates.tobytes() == reference_run(**cfg)[1].tobytes()
    return batch


@pytest.mark.parametrize("iterations, stop", [
    (3 * BLOCK, 1),
    (3 * BLOCK, BLOCK + 1),
    (3 * BLOCK, 2 * BLOCK + 1),
    (3 * BLOCK, BLOCK),
    (3 * BLOCK, 2 * BLOCK),
    (2 * BLOCK + 3, 2 * BLOCK + 2),
    (2 * BLOCK + 3, 2 * BLOCK + 3),
    (BLOCK - 3, BLOCK - 5),
], ids=["iteration-1", "block-2-first", "block-3-first", "block-1-last", "block-2-last",
        "partial-block", "partial-block-last", "under-one-block"])
def test_guard_at_block_boundaries(iterations, stop):
    # the first seed of each batch stops at ``stop``, the others wherever
    # their draws take them: every trace ends at its first offending iterate
    cfg = fuse_run(4, iterations)
    cfg = {**cfg, "seed": first_seed_stopping_at(cfg, stop)}
    batch = assert_batch_matches_reference(cfg, 5)
    assert batch[0].diverged and len(batch[0].dist_sq) - 1 == stop


def test_guard_with_no_iterations():
    batch = assert_batch_matches_reference(fuse_run(4, 0), 3)
    assert all(len(t.dist_sq) == 1 and not t.diverged for t in batch)


def test_guard_stops_every_seed_in_one_block():
    # each seed of the first batch stops at its own iteration of block 1,
    # and a full-batch run that grows every seed by the same factor stops
    # them all at iteration BLOCK + 3 of a run of four blocks
    batch = assert_batch_matches_reference(fuse_run(2, 4 * BLOCK), 6)
    stops = [len(t.dist_sq) - 1 for t in batch]
    assert all(t.diverged for t in batch) and max(stops) <= BLOCK and len(set(stops)) > 1
    g = 10.0 ** (6.0 / (BLOCK + 2.5))  # g^(2k) passes 1e12 at k = BLOCK + 3
    grow = QuadraticGame([[[1.0 - g]]], [[[0.0]]], [[[1.0 - g]]], [[0.0]], [[0.0]])
    cfg = dict(method="gda", operator=grow, scheme=SamplingScheme.full_batch(1),
               schedule=ConstantSchedule(alpha=1.0), iterations=4 * BLOCK, seed=0)
    batch = assert_batch_matches_reference(cfg, 4)
    assert all(t.diverged and len(t.dist_sq) - 1 == BLOCK + 3 for t in batch)


def test_run_ends_at_the_block_where_the_last_seed_stops(monkeypatch):
    # at alpha 1e200 both seeds overflow at iteration 1, so a 50-step sgda
    # run on the n=20 figure game takes the one evaluation per step of its
    # first block and no more
    game = E.generate_game(E.GameGenConfig(n=20, d1=20, d2=20, mu_a=1.0, l_a=1.6, mu_b=1.2,
                                           l_b=2.4, mu_c=1.0, l_c=1.6, seed=0))
    monkeypatch.setattr(_BatchEstimator, "evaluate", _BatchEstimator.evaluate)  # restored after
    calls = {"evaluate": 0}
    count_calls(_BatchEstimator, "evaluate", calls)
    batch = run_batch(game, SamplingScheme.single_element(20), "sgda", 50, 2,
                      ConstantSchedule(alpha=1e200))
    assert all(t.diverged and len(t.dist_sq) == 2 for t in batch)
    assert calls == {"evaluate": BLOCK}


class Bounce(FiniteSumOperator):
    """One component that, with a gda step of alpha = 1, doubles the
    iterate until |x|^2 >= 100, then takes it 1e14 times further from x* = 0
    and, once |x|^2 > 1e6, back to 1e-9 times where it was."""

    n, dim = 1, 2

    def component_value(self, i, x):
        r = x @ x
        if r > 1e6:
            return (1.0 - 1e-9) * x
        return (-1e7 if r >= 100.0 else -1.0) * x

    def component_jacobian(self, i, x):
        return np.eye(2)

    def equilibrium(self):
        return np.zeros(2)


def test_guard_stops_a_seed_that_comes_back_within_its_block():
    # from distance 1, iteration 5 is beyond the limit and iteration 6 back
    # within it, as is the last of the block: each seed still stops at 5
    cfg = dict(method="gda", operator=Bounce(), scheme=SamplingScheme.full_batch(1),
               schedule=ConstantSchedule(alpha=1.0), iterations=3 * BLOCK, seed=0)
    batch = assert_batch_matches_reference(cfg, 3)
    assert all(t.diverged and len(t.dist_sq) - 1 == 5 for t in batch)


def test_guard_stops_the_recorded_seed_mid_block():
    # seed 0 of the batch, whose iterates are kept, stops mid-block; its
    # iterates end at the offending one while the others run on
    cfg = fuse_run(16, 3 * BLOCK)
    cfg = {**cfg, "seed": first_seed_stopping_at(cfg, BLOCK + BLOCK // 2)}
    batch = assert_batch_matches_reference(cfg, 6)
    assert len(batch[0].iterates) == BLOCK + BLOCK // 2 + 1
    assert any(len(t.dist_sq) - 1 > BLOCK + BLOCK // 2 for t in batch[1:])


@st.composite
def drawn_runs(pick):
    """(reference_run keywords, seed count) over a drawn operator, scheme,
    method and schedule.  n runs past the 8 terms from which numpy sums one-element
    terms pairwise, tiny inclusion probabilities leave some draws empty,
    zero steps skip a term, the large steps diverge and the largest
    overflows, also from a start at the equilibrium."""
    n = pick(st.integers(1, 16))
    seed = pick(st.integers(0, 2**16))
    if pick(st.integers(0, 4)) == 0:
        op = Line(n, seed)
    else:
        op = random_game(n, pick(st.integers(1, 4)), pick(st.integers(1, 4)), seed=seed)
    method = pick(st.sampled_from(METHODS))
    kind = "full" if method in DETERMINISTIC_METHODS else pick(
        st.sampled_from(("single", "minibatch", "full", "independent")))
    if kind == "single":
        scheme = SamplingScheme.single_element(n)
    elif kind == "minibatch":
        scheme = SamplingScheme.minibatch(n, pick(st.integers(1, n)))
    elif kind == "full":
        scheme = SamplingScheme.full_batch(n)
    else:
        probs = st.sampled_from((1.0, 0.5, 0.2, 1e-3))
        scheme = SamplingScheme.independent(pick(st.lists(probs, min_size=n, max_size=n)))
    constants = st.sampled_from((0.5, 2.0, 8.0))
    if pick(st.booleans()):
        steps = st.sampled_from((0.0, 0.004, 0.05, 0.3, 40.0, 1e200))
        schedule = ConstantSchedule(alpha=pick(steps), gamma=pick(steps))
    elif TERMS[method][1]:  # the update has a Hamiltonian term
        schedule = SwitchingSchedule.sco(ell_xi=pick(constants), cal_l_h=pick(constants),
                                         mu=pick(st.sampled_from((0.0, 1.0))),
                                         mu_h=pick(constants))
    else:
        schedule = SwitchingSchedule.sgda(ell_xi=pick(constants), mu=pick(constants))
    x0 = op.equilibrium() if pick(st.integers(0, 3)) == 0 else None
    cfg = dict(method=method, operator=op, scheme=scheme, schedule=schedule,
               iterations=pick(st.integers(0, 30)), seed=pick(st.integers(0, 1000)), x0=x0)
    return cfg, pick(st.integers(1, 6))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(drawn_runs())
def test_run_batch_equals_the_one_point_reference(drawn):
    # every seed of a batch, and its iterates in a batch of its own, are
    # bitwise the one-point loop's, divergence and stop iteration included
    cfg, seeds = drawn
    with np.errstate(over="ignore", invalid="ignore"):
        batch = batch_of(cfg, seeds, record_iterates=True)
        assert_guard_matches_reference(batch, cfg)
        for trace in batch:
            one = {**cfg, "seed": trace.seed}
            xs = reference_run(**one)[1]
            assert batch_of(one, 1, record_iterates=True)[0].iterates.tobytes() == xs.tobytes()
            if trace.seed == cfg["seed"]:
                assert trace.iterates.tobytes() == xs.tobytes()
