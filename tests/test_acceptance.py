"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Statistical criteria pin their seeds, so every run is reproducible.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stochvi import constants as C
from stochvi import experiments as E
from stochvi import numerics
from stochvi import verify as V
from stochvi.operators import CosineOperator
from stochvi.sampling import SamplingScheme
from stochvi.solvers import (
    ConstantSchedule,
    SwitchingSchedule,
    run_batch,
)

from reference import enumerate_support, reference_run


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def battery():
    """20 random games with n <= 8 and small blocks."""
    rng = numerics.make_rng(777)
    games = []
    for _ in range(20):
        cfg = E.GameGenConfig(
            n=int(rng.integers(2, 9)),
            d1=int(rng.integers(1, 4)),
            d2=int(rng.integers(1, 4)),
            mu_a=float(rng.uniform(0.5, 1.5)),
            l_a=float(rng.uniform(2.0, 5.0)),
            mu_b=0.0,
            l_b=float(rng.uniform(0.5, 3.0)),
            mu_c=float(rng.uniform(0.5, 1.5)),
            l_c=float(rng.uniform(2.0, 5.0)),
            seed=int(rng.integers(0, 10**6)),
        )
        games.append(E.generate_game(cfg))
    return games


@pytest.fixture(scope="module")
def desk_game():
    """The n=20, d1=d2=20 single-element reference game (kappa ~ 5)."""
    cfg = E.GameGenConfig(
        n=20, d1=20, d2=20, mu_a=1.0, l_a=1.6, mu_b=1.2, l_b=2.4,
        mu_c=1.0, l_c=1.6, seed=20240601,
    )
    game = E.generate_game(cfg)
    scheme = SamplingScheme.single_element(20)
    prof = E.profile(game, scheme)
    return game, scheme, prof


@pytest.fixture(scope="module")
def envelope_traces(desk_game):
    """All four 100-seed trace batches for the envelope criteria, timed."""
    game, scheme, prof = desk_game
    gc, ec, ham = prof.game_constants, prof.ec, prof.hamiltonian
    t0 = time.monotonic()

    alpha = 1.0 / (2.0 * ec.ell_xi)
    const = ConstantSchedule(alpha=alpha)
    sgda = run_batch(game, scheme, "sgda", 5000, 100, const)
    a2, g2 = 1.0 / (4.0 * ec.ell_xi), 1.0 / (4.0 * ham.cal_l_h)
    const2 = ConstantSchedule(alpha=a2, gamma=g2)
    sco = run_batch(game, scheme, "sco", 5000, 100, const2)
    sw = SwitchingSchedule.sgda(ell_xi=ec.ell_xi, mu=gc.mu)
    sgda_sw = run_batch(game, scheme, "sgda", 20 * sw.switch_point, 100, sw)
    sw2 = SwitchingSchedule.sco(ell_xi=ec.ell_xi, cal_l_h=ham.cal_l_h,
                                mu=gc.mu, mu_h=ham.mu_h)
    sco_sw = run_batch(game, scheme, "sco", 20 * sw2.switch_point, 100, sw2)
    elapsed = time.monotonic() - t0
    return dict(sgda=sgda, sco=sco, sgda_sw=sgda_sw, sco_sw=sco_sw,
                const=const, const2=const2, sw=sw, sw2=sw2, elapsed=elapsed)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_constants_oracle_equivalence(battery):
    with criterion(1, "closed-form noise equals support enumeration to 1e-10"):
        t0 = time.monotonic()
        for game in battery:
            gc = C.game_constants(game)
            x_star = game.equilibrium()
            vals = game.component_values(x_star)
            for b in range(1, game.n + 1):
                scheme = SamplingScheme.minibatch(game.n, b)
                ec = C.ec_constants(gc, scheme, game)
                oracle = 0.0
                for p, vec in enumerate_support(scheme):
                    est = vec.dense(game.n) @ vals / game.n
                    oracle += p * float(est @ est)
                # floor guards the b = n case where both values are zero
                scale = max(abs(oracle), abs(ec.sigma_sq), 1e-12 * gc.sigma1_sq)
                assert abs(ec.sigma_sq - oracle) <= 1e-10 * scale
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_ec_certification(battery):
    with criterion(2, "EC check passes with the certified constant, fails halved"):
        t0 = time.monotonic()
        halved_failures = 0
        for idx, game in enumerate(battery):
            n = game.n
            gc = C.game_constants(game)
            for scheme in (SamplingScheme.single_element(n), SamplingScheme.minibatch(n, 2)):
                ec = C.ec_constants(gc, scheme, game)
                report = V.check_ec(
                    game, scheme, ec.ell_xi, points=500, rng=numerics.make_rng(idx)
                )
                assert report.passed
                half = V.check_ec(
                    game, scheme, ec.ell_xi / 2.0, points=500, rng=numerics.make_rng(idx)
                )
                if not half.passed:
                    halved_failures += 1
        assert halved_failures >= 1
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_unbiasedness(battery):
    with criterion(3, "estimator enumeration means match targets to 1e-12"):
        small = [g for g in battery if g.n <= 5][:3]
        assert small, "battery has no games with n <= 5"
        for game in small:
            for scheme in (
                SamplingScheme.single_element(game.n),
                SamplingScheme.minibatch(game.n, 2),
            ):
                report = V.check_unbiasedness(game, scheme)
                assert report.passed


def test_criterion_4_deterministic_rates():
    with criterion(4, "per-step contraction factors for full-batch runs"):
        rng = numerics.make_rng(404)
        for _ in range(10):
            cfg = E.GameGenConfig(
                n=int(rng.integers(2, 7)), d1=int(rng.integers(2, 4)),
                d2=int(rng.integers(2, 4)), mu_a=1.0, l_a=float(rng.uniform(2, 4)),
                mu_b=0.0, l_b=float(rng.uniform(0.5, 2)), mu_c=1.0,
                l_c=float(rng.uniform(2, 4)), seed=int(rng.integers(0, 10**6)),
            )
            game = E.generate_game(cfg)
            gc = C.game_constants(game)
            ham = C.hamiltonian_constants(game, SamplingScheme.full_batch(game.n))
            full = SamplingScheme.full_batch(game.n)

            # additive 1e-12 * dist0 slack: near x* the squared distance
            # floors at the equilibrium solve's rounding level (~1e-32),
            # where raw per-step ratios compare noise against noise
            alpha = 1.0 / (2.0 * gc.ell)
            trace = run_batch(game, full, "gda", 200, 1, ConstantSchedule(alpha=alpha), 1)[0]
            factor = 1.0 - alpha * gc.mu
            for k in range(200):
                assert (
                    trace.dist_sq[k + 1]
                    <= factor * trace.dist_sq[k] + 1e-12 * trace.dist_sq[0]
                )

            alpha2, gamma2 = 1.0 / (4.0 * gc.ell), 1.0 / (4.0 * ham.l_h)
            trace = run_batch(game, full, "co", 200, 1,
                              ConstantSchedule(alpha=alpha2, gamma=gamma2), 1)[0]
            factor = 1.0 - gamma2 * ham.mu_h - alpha2 * gc.mu
            for k in range(200):
                assert (
                    trace.dist_sq[k + 1]
                    <= factor * trace.dist_sq[k] + 1e-12 * trace.dist_sq[0]
                )


def test_criterion_5_stochastic_bound_envelopes(desk_game, envelope_traces):
    with criterion(5, "100-seed means inside the four closed-form envelopes"):
        game, scheme, prof = desk_game
        gc, ec, ham = prof.game_constants, prof.ec, prof.hamiltonian

        alpha = 1.0 / (2.0 * ec.ell_xi)
        params = dict(alpha=alpha, mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)
        rep = V.check_bound_envelope(
            envelope_traces["sgda"], C.SGDA_CONSTANT, params, slack=1.05,
        )
        assert rep.passed and rep.details["k_range"] == (0, 5000)

        a2, g2 = 1.0 / (4.0 * ec.ell_xi), 1.0 / (4.0 * ham.cal_l_h)
        params = dict(alpha=a2, gamma=g2, mu=gc.mu, mu_h=ham.mu_h, ell_xi=ec.ell_xi,
                      cal_l_h=ham.cal_l_h, sigma_sq=ec.sigma_sq,
                      sigma_h_sq=ham.sigma_h_sq)
        rep = V.check_bound_envelope(
            envelope_traces["sco"], C.SCO_CONSTANT, params, slack=1.05,
        )
        assert rep.passed and rep.details["k_range"] == (0, 5000)

        sw = envelope_traces["sw"]
        params = dict(mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)
        rep = V.check_bound_envelope(
            envelope_traces["sgda_sw"], C.SGDA_SWITCHING, params, slack=1.1,
        )
        assert rep.passed and rep.details["k_range"] == (sw.switch_point, 20 * sw.switch_point)

        sw2 = envelope_traces["sw2"]
        params = dict(mu=gc.mu, mu_h=ham.mu_h, ell_xi=ec.ell_xi, cal_l_h=ham.cal_l_h,
                      sigma_sq=ec.sigma_sq, sigma_h_sq=ham.sigma_h_sq)
        rep = V.check_bound_envelope(
            envelope_traces["sco_sw"], C.SCO_SWITCHING, params, slack=1.1,
        )
        assert rep.passed
        assert rep.details["k_range"] == (sw2.switch_point, 20 * sw2.switch_point)

        assert envelope_traces["elapsed"] < 120.0


def test_bound_plan_gives_criterion_5_runs_and_parameters(desk_game, envelope_traces):
    # criterion 5's hand-built parameters and slacks, restated, with the
    # fixture's schedules: the one table must reproduce each of them
    game, scheme, prof = desk_game
    gc, ec, ham = prof.game_constants, prof.ec, prof.hamiltonian
    a2, g2 = 1.0 / (4.0 * ec.ell_xi), 1.0 / (4.0 * ham.cal_l_h)
    both = dict(mu=gc.mu, mu_h=ham.mu_h, ell_xi=ec.ell_xi, cal_l_h=ham.cal_l_h,
                sigma_sq=ec.sigma_sq, sigma_h_sq=ham.sigma_h_sq)
    expected = {
        C.SGDA_CONSTANT: ("sgda", "const", 1.05, dict(
            alpha=1.0 / (2.0 * ec.ell_xi), mu=gc.mu, ell_xi=ec.ell_xi, sigma_sq=ec.sigma_sq)),
        C.SCO_CONSTANT: ("sco", "const2", 1.05, dict(alpha=a2, gamma=g2, **both)),
        C.SGDA_SWITCHING: ("sgda", "sw", 1.1, dict(mu=gc.mu, ell_xi=ec.ell_xi,
                                                   sigma_sq=ec.sigma_sq)),
        C.SCO_SWITCHING: ("sco", "sw2", 1.1, both),
    }
    for bound, (method, schedule, slack, params) in expected.items():
        plan = E.bound_plan(bound, prof)
        assert plan == (method, scheme, envelope_traces[schedule], params, slack), bound


def test_criterion_6_switching_beats_plateau(desk_game, envelope_traces):
    with criterion(6, "switching mean at 20x the switch point under 0.1x plateau"):
        game, scheme, prof = desk_game
        gc, ec = prof.game_constants, prof.ec
        sw = envelope_traces["sw"]
        k = 20 * sw.switch_point
        mean_final = float(np.mean([t.dist_sq[k] for t in envelope_traces["sgda_sw"]]))
        alpha = 1.0 / (2.0 * ec.ell_xi)
        plateau = 2.0 * alpha * ec.sigma_sq / gc.mu
        assert mean_final <= 0.1 * plateau


def test_criterion_7_non_monotone_fixture():
    with criterion(7, "radial cosine fixture: class checks and probe value"):
        op = CosineOperator(1, 1.0, 4.0)
        report = V.check_monotonicity_class(
            op, mu=1.0, ell_star=4.0, points=10**4, radius=100.0,
            rng=numerics.make_rng(7),
        )
        assert report.passed
        gap = V.monotonicity_gap(op, [2 * np.pi + np.pi / 2], [2 * np.pi])
        assert gap < 0.0
        # With s(r) = (L - mu)/2 cos r + (L + mu)/2: s(5 pi/2) = 5/2 and
        # s(2 pi) = 4, so value(x) - value(y) = 25 pi/4 - 8 pi = -7 pi/4 and
        # the gap is -7 pi/4 * pi/2 = -7 pi^2/8.  This is the closed form
        # (pi^2/8)(L + mu - 4k(L - mu)) at k = 1 that tests/test_operators.py
        # and tests/test_verify.py assert for the same pair.
        mu, big_l, k = op.mu, op.big_l, 1
        expect = (math.pi**2 / 8.0) * (big_l + mu - 4 * k * (big_l - mu))
        assert abs(gap - expect) <= 1e-9


def test_criterion_8_degenerate_limit_identities():
    with criterion(8, "consensus degenerate limits are bitwise identical"):
        cfg = E.GameGenConfig(
            n=5, d1=2, d2=2, mu_a=1.0, l_a=3.0, mu_b=0.5, l_b=1.5,
            mu_c=1.0, l_c=3.0, seed=88,
        )
        game = E.generate_game(cfg)
        scheme = SamplingScheme.single_element(5)
        for seed in range(10):
            a = run_batch(game, scheme, "sgda", 1000, 1, ConstantSchedule(alpha=0.02), seed)[0]
            b = run_batch(game, scheme, "sco", 1000, 1,
                          ConstantSchedule(alpha=0.02, gamma=0.0), seed)[0]
            assert a.dist_sq.tobytes() == b.dist_sq.tobytes()
            assert a.final_x.tobytes() == b.final_x.tobytes()

            a = run_batch(game, scheme, "shgd", 1000, 1,
                          ConstantSchedule(alpha=0.0, gamma=0.01), seed)[0]
            b = run_batch(game, scheme, "sco", 1000, 1,
                          ConstantSchedule(alpha=0.0, gamma=0.01), seed)[0]
            assert a.dist_sq.tobytes() == b.dist_sq.tobytes()
            assert a.final_x.tobytes() == b.final_x.tobytes()


def test_criterion_9_hamiltonian_constants(battery):
    with criterion(9, "extreme squared singular values match the Gram spectrum"):
        for game in battery:
            ham = C.hamiltonian_constants(game, SamplingScheme.full_batch(game.n))
            j = game.mean_jacobian()
            gram = np.linalg.eigvalsh(j.T @ j)
            positive = gram[gram > 1e-12 * max(gram[-1], 1.0)]
            assert ham.mu_h == pytest.approx(positive[0], rel=1e-9)
            assert ham.l_h == pytest.approx(gram[-1], rel=1e-9)


def test_criterion_10_determinism_and_round_trip(tmp_path):
    with criterion(10, "seeded generation, runs and emitted files are bit-exact"):
        cfg = E.GameGenConfig(
            n=6, d1=3, d2=3, mu_a=1.0, l_a=2.5, mu_b=0.5, l_b=1.5,
            mu_c=1.0, l_c=2.5, seed=1001,
        )
        g1, g2 = E.generate_game(cfg), E.generate_game(cfg)
        for a, b in ((g1.A, g2.A), (g1.B, g2.B), (g1.C, g2.C), (g1.a, g2.a), (g1.c, g2.c)):
            assert a.tobytes() == b.tobytes()

        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        E.write_game(p1, g1, cfg)
        loaded, gen = E.read_game(p1)
        E.write_game(p2, loaded, gen)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in ((g1.A, loaded.A), (g1.B, loaded.B), (g1.C, loaded.C),
                     (g1.a, loaded.a), (g1.c, loaded.c)):
            assert a.tobytes() == b.tobytes()

        scheme = SamplingScheme.single_element(6)
        t1, _ = E.run_experiment(g1, scheme, ("sgda", "sco"), iterations=100, seeds=5,
                                 schedule="theory", base_seed=0)
        t2, _ = E.run_experiment(g1, scheme, ("sgda", "sco"), iterations=100, seeds=5,
                                 schedule="theory", base_seed=0)
        c1, c2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        s1, s2 = tmp_path / "t1.svg", tmp_path / "t2.svg"
        E.emit_csv(t1, c1)
        E.emit_csv(t2, c2)
        E.emit_svg(t1, s1)
        E.emit_svg(t2, s2)
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

        schedule = ConstantSchedule(alpha=0.05)
        r1 = run_batch(g1, scheme, "sgda", 50, 1, schedule, 9, record_iterates=True)[0]
        r2 = run_batch(g1, scheme, "sgda", 50, 1, schedule, 9)[0]
        assert r1.dist_sq.tobytes() == r2.dist_sq.tobytes()
        xs = reference_run(method="sgda", operator=g1, scheme=scheme, schedule=schedule,
                           iterations=50, seed=9)[1]
        assert r1.iterates.tobytes() == xs.tobytes()
