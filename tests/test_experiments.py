import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stochvi import constants as C
from stochvi import experiments as E
from stochvi import numerics
from stochvi.cli import main
from stochvi.errors import ConfigError, NumericalError, UnsupportedSchemeError
from stochvi.sampling import SamplingScheme
from stochvi.solvers import ConstantSchedule, SwitchingSchedule, run_batch

from reference import generate_game as reference_generate_game
from test_operators import random_game


def small_cfg(seed=5, n=4, d1=3, d2=3):
    return E.GameGenConfig(
        n=n, d1=d1, d2=d2, mu_a=1.0, l_a=4.0, mu_b=0.0, l_b=1.0,
        mu_c=1.0, l_c=4.0, seed=seed,
    )


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generate_game_deterministic():
    g1 = E.generate_game(small_cfg())
    g2 = E.generate_game(small_cfg())
    for a, b in ((g1.A, g2.A), (g1.B, g2.B), (g1.C, g2.C), (g1.a, g2.a), (g1.c, g2.c)):
        assert a.tobytes() == b.tobytes()


def test_generated_spectra_in_range():
    cfg = small_cfg(seed=6)
    game = E.generate_game(cfg)
    for i in range(cfg.n):
        eig_a = np.linalg.eigvalsh(game.A[i])
        eig_c = np.linalg.eigvalsh(game.C[i])
        assert eig_a[0] >= cfg.mu_a - 1e-9 and eig_a[-1] <= cfg.l_a + 1e-9
        assert eig_c[0] >= cfg.mu_c - 1e-9 and eig_c[-1] <= cfg.l_c + 1e-9


def test_generated_forced_extremes():
    cfg = small_cfg(seed=7, n=5)
    game = E.generate_game(cfg)
    assert np.linalg.eigvalsh(game.A[0])[0] == pytest.approx(
        cfg.mu_a, abs=1e-9
    )
    assert np.linalg.eigvalsh(game.C[0])[0] == pytest.approx(
        cfg.mu_c, abs=1e-9
    )
    assert np.linalg.eigvalsh(game.A[-1])[-1] == pytest.approx(
        cfg.l_a, abs=1e-9
    )
    assert np.linalg.eigvalsh(game.C[-1])[-1] == pytest.approx(
        cfg.l_c, abs=1e-9
    )


@pytest.mark.parametrize("n, d1, d2, mu_b", [
    (1, 3, 2, 0.5), (5, 1, 4, 0.0), (3, 4, 1, 1.2), (1, 1, 1, 0.0),
    (20, 6, 3, 0.0), (37, 5, 5, 1.2), (100, 2, 3, 0.3),
])
def test_generate_game_equals_the_per_component_loop(n, d1, d2, mu_b):
    # n = 37 and 100 span several stacked chunks; d = 1 and mu_b = 0 are the
    # degenerate factors.
    cfg = E.GameGenConfig(n=n, d1=d1, d2=d2, mu_a=0.5, l_a=2.0, mu_b=mu_b, l_b=1.5,
                          mu_c=0.7, l_c=3.0, seed=n + 10 * d1 + d2)
    got, want = E.generate_game(cfg), reference_generate_game(cfg)
    for name in ("A", "B", "C", "a", "c"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_generated_b_singular_values_in_range_many_games():
    rng = numerics.make_rng(8)
    for _ in range(50):
        cfg = E.GameGenConfig(
            n=2, d1=int(rng.integers(1, 4)), d2=int(rng.integers(1, 4)),
            mu_a=1.0, l_a=2.0, mu_b=0.25, l_b=1.5, mu_c=1.0, l_c=2.0,
            seed=int(rng.integers(0, 10**6)),
        )
        game = E.generate_game(cfg)
        for i in range(cfg.n):
            sv = numerics.singular_values(game.B[i])
            assert sv.max() <= cfg.l_b + 1e-9
            assert sv.min() >= cfg.mu_b - 1e-9


def test_generated_mu_matches_block_diagonal_eigensolve():
    cfg = small_cfg(seed=9)
    game = E.generate_game(cfg)
    gc = C.game_constants(game)
    sym = np.zeros((game.dim, game.dim))
    sym[: game.d1, : game.d1] = game.A.mean(axis=0)
    sym[game.d1 :, game.d1 :] = game.C.mean(axis=0)
    assert gc.mu == pytest.approx(np.linalg.eigvalsh(sym)[0], abs=1e-8)


def test_generator_rejects_bad_ranges():
    with pytest.raises(ConfigError, match="need 0 < mu_a <= l_a"):
        E.GameGenConfig(n=1, d1=1, d2=1, mu_a=0.0, l_a=1.0, mu_b=0.0, l_b=1.0,
                        mu_c=1.0, l_c=2.0, seed=0)
    with pytest.raises(ConfigError, match="need 0 <= mu_b <= l_b"):
        E.GameGenConfig(n=1, d1=1, d2=1, mu_a=1.0, l_a=1.0, mu_b=0.5, l_b=0.4,
                        mu_c=1.0, l_c=2.0, seed=0)


# ---------------------------------------------------------------------------
# game files
# ---------------------------------------------------------------------------


def test_game_file_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg(seed=10)
    game = E.generate_game(cfg)
    path = tmp_path / "game.json"
    E.write_game(path, game, cfg)
    loaded, gen = E.read_game(path)
    assert gen == cfg
    for a, b in (
        (game.A, loaded.A), (game.B, loaded.B), (game.C, loaded.C),
        (game.a, loaded.a), (game.c, loaded.c),
    ):
        assert a.tobytes() == b.tobytes()


def test_game_file_rewrite_identical_bytes(tmp_path):
    cfg = small_cfg(seed=11)
    game = E.generate_game(cfg)
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    E.write_game(p1, game, cfg)
    loaded, gen = E.read_game(p1)
    E.write_game(p2, loaded, gen)
    assert p1.read_bytes() == p2.read_bytes()


def _game_doc(game, gen):
    """The game file document, as json.dump would be given it."""
    return {
        "format_version": 1, "n": game.n, "d1": game.d1, "d2": game.d2,
        "seed": None if gen is None else gen.seed,
        "generator": None if gen is None else gen._asdict(),
        "A": [m.reshape(-1).tolist() for m in game.A],
        "B": [m.reshape(-1).tolist() for m in game.B],
        "C": [m.reshape(-1).tolist() for m in game.C],
        "a": game.a.tolist(),
        "c": game.c.tolist(),
    }


def _one_entry_game(value, sym=1.0):
    # n = 1, d1 = d2 = 1 with ``value`` in B, a and c
    return E.QuadraticGame([[[sym]]], [[[value]]], [[[sym]]], [[value]], [[-value]])


@pytest.mark.parametrize("case", ["n1_d1", "no_generator", "negative_zero", "subnormal",
                                  "huge_and_tiny", "mirrored_signed_zero", "one_ulp_asymmetry"])
def test_write_game_bytes_are_json_dump_indent_1(tmp_path, case):
    gen = small_cfg(seed=3)
    game = E.generate_game(gen)
    if case == "n1_d1":
        gen = small_cfg(seed=4, n=1, d1=1, d2=1)
        game = E.generate_game(gen)
    elif case == "no_generator":
        gen = None
    elif case == "negative_zero":
        game, gen = _one_entry_game(-0.0, sym=-0.0), None
    elif case == "subnormal":
        game = _one_entry_game(5e-324, sym=2.2e-308)
    elif case == "huge_and_tiny":
        game = E.QuadraticGame(
            [[[1e300, -1e-300], [-1e-300, 1e-300]]], [[[1e300], [-1e300]]], [[[-1e-300]]],
            [[1e-300, -1e300]], [[1e300]])
    elif case == "mirrored_signed_zero":
        # equal values, different bits: each entry keeps its own text
        game = E.QuadraticGame([[[1.0, 0.0], [-0.0, 1.0]]], [[[1.0], [2.0]]], [[[1.0]]],
                               [[0.5, -0.5]], [[0.25]])
    elif case == "one_ulp_asymmetry":
        a_mats = game.A.copy()
        a_mats[0, 1, 0] = np.nextafter(a_mats[0, 0, 1], np.inf)
        game, gen = E.QuadraticGame(a_mats, game.B, game.C, game.a, game.c), None
    path = tmp_path / "game.json"
    E.write_game(path, game, gen)
    want = json.dumps(_game_doc(game, gen), indent=1) + "\n"
    assert path.read_bytes() == want.encode()
    if case == "mirrored_signed_zero":
        assert '\n   0.0,\n   -0.0,\n' in want
    elif case == "one_ulp_asymmetry":
        assert repr(game.A[0, 1, 0]) != repr(game.A[0, 0, 1])


def test_game_file_version_gate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ConfigError):
        E.read_game(path)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_single_method_single_seed_equals_trace():
    game = E.generate_game(small_cfg(seed=12))
    scheme = SamplingScheme.single_element(game.n)
    rows, _ = E.run_experiment(game, scheme, ("sgda",), iterations=50, seeds=1,
                               schedule="theory", base_seed=3)
    prof = E.profile(game, scheme)
    row = rows[0]
    schedule = E.method_plan(prof, ("sgda",))["sgda"][1]
    trace = run_batch(game, scheme, "sgda", 50, 1, schedule, 3)[0]
    rel = trace.dist_sq / trace.dist_sq[0]
    assert row.mean.tobytes() == rel.tobytes()
    assert np.array_equal(row.ci_low, row.mean)
    assert np.array_equal(row.ci_high, row.mean)


def test_recorded_iterates_only_for_first_seed():
    game = E.generate_game(small_cfg(seed=12))
    _, traces = E.run_experiment(
        game, SamplingScheme.single_element(game.n), ("sgda", "gda"),
        iterations=30, seeds=3, schedule="theory", base_seed=2, record_traces=True,
    )
    for method, method_traces in traces.items():
        first, *later = method_traces
        assert first.seed == 2 and first.iterates.shape == (31, game.dim)
        assert len(later) == 2
        assert all(t.iterates is None for t in later)


def test_iteration_zero_mean_is_one():
    game = E.generate_game(small_cfg(seed=13))
    rows, _ = E.run_experiment(
        game, SamplingScheme.single_element(game.n), ("sgda", "shgd", "sco"),
        iterations=20, seeds=4, schedule="theory", base_seed=0,
    )
    for row in rows:
        assert row.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert row.ci_low[0] <= row.mean[0] <= row.ci_high[0]


def test_deterministic_methods_use_full_batch_constants():
    # theory step for a full-batch method is 1/(2 ell), not 1/(2 ell_xi) of the
    # stochastic scheme the other methods run on: each method's theory step,
    # written out by hand, from the constants of its own scheme
    game = E.generate_game(small_cfg(seed=17))
    gc = C.game_constants(game)
    scheme = SamplingScheme.single_element(game.n)
    _, traces = E.run_experiment(game, scheme, ("gda", "sgda"), iterations=10, seeds=1,
                                 schedule="theory", base_seed=0, record_traces=True)
    prof = E.profile(game, scheme)
    ell_xi, cal_l_h = prof.ec.ell_xi, prof.hamiltonian.cal_l_h
    l_h = C.hamiltonian_constants(game, SamplingScheme.full_batch(game.n)).l_h
    steps = {"sgda": ConstantSchedule(1.0 / (2.0 * ell_xi)),
             "shgd": ConstantSchedule(0.0, 1.0 / (2.0 * cal_l_h)),
             "sco": ConstantSchedule(1.0 / (4.0 * ell_xi), 1.0 / (4.0 * cal_l_h)),
             "gda": ConstantSchedule(1.0 / (2.0 * gc.ell)),
             "co": ConstantSchedule(1.0 / (4.0 * gc.ell), 1.0 / (4.0 * l_h))}
    for method, schedule in steps.items():
        assert E.method_plan(prof, (method,))[method][1] == schedule
    plan = E.method_plan(prof, ("gda", "sgda"))
    for method, (own, schedule) in plan.items():  # the runs took these steps
        want = run_batch(game, own, method, 10, 1, schedule)[0]
        assert traces[method][0].dist_sq.tobytes() == want.dist_sq.tobytes()
    assert prof.ec.ell_xi != pytest.approx(gc.ell, rel=1e-6)


@pytest.mark.parametrize("bound", [C.SGDA_CONSTANT, C.SCO_CONSTANT, C.SHGD_CONSTANT])
def test_theory_steps_are_the_constant_bounds_ceilings(bound):
    # each bound takes its theory steps, and steps up to a relative 1e-12 above
    # them (the slop's edge included), but no step a relative 1e-11 above them
    game = E.generate_game(small_cfg(seed=17))
    params = E.bound_plan(bound, E.profile(game, SamplingScheme.single_element(game.n)))[3]
    assert math.isfinite(C.theoretical_bound(bound, 5, 1.0, **params))
    for step in ("alpha", "gamma"):
        if step in params:
            edge = {**params, step: params[step] * (1 + 1e-12)}
            assert math.isfinite(C.theoretical_bound(bound, 5, 1.0, **edge))
            with pytest.raises(NumericalError, match=f"^step size out of range: {step} "):
                C.theoretical_bound(bound, 5, 1.0, **{**params, step: params[step] * (1 + 1e-11)})


def test_sweep_deterministic_methods_match_run_experiment_theory_rows():
    # gda@1 and co@1 are the theory steps from the full-batch constants, the
    # stochastic methods' from the single-element ones: every method@1 row is
    # the run theory row, bit for bit
    game = E.generate_game(small_cfg(seed=17))
    scheme = SamplingScheme.single_element(game.n)
    methods = ("gda", "co", "sgda", "sco", "shgd")
    rows, _ = E.run_experiment(game, scheme, methods, iterations=20, seeds=2,
                               schedule="theory", base_seed=0)
    swept = E.sweep_step_sizes(game, scheme, methods, (1.0,), iterations=20, seeds=2)
    assert [row.method for row in swept] == [f"{m}@1" for m in methods]
    for got, want in zip(swept, rows, strict=True):
        for field in ("mean", "ci_low", "ci_high"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_profile_leaves_hamiltonian_constants_to_their_first_read():
    game = E.generate_game(small_cfg(seed=19))
    prof = E.profile(game, SamplingScheme.minibatch(game.n, 3))
    assert prof.ec.ell_xi > 0.0
    with pytest.raises(UnsupportedSchemeError, match="single-element or full-batch"):
        prof.hamiltonian


def test_sweep_cli_with_minibatch_scheme(tmp_path):
    # sgda needs no Hamiltonian constants, which minibatch sampling lacks
    path = tmp_path / "game.json"
    E.write_game(path, E.generate_game(small_cfg(seed=18, n=6)))
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--game", str(path), "--methods", "sgda", "--scheme", "minibatch",
        "--b", "4", "--multipliers", "0.5,1", "--iters", "20", "--seeds", "2",
        "--out", str(out),
    ]) == 0
    assert [row.method for row in E.read_csv(out)] == ["sgda@0.5", "sgda@1"]


def test_sweep_builds_every_schedule_before_any_run(tmp_path, monkeypatch):
    # sgda@-1 is a negative step: the sweep stops before sgda@1 runs
    path = tmp_path / "game.json"
    E.write_game(path, E.generate_game(small_cfg(seed=18, n=6)))
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[2])
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(E, "run_batch", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--game", str(path), "--methods", "sgda,sco",
                 "--multipliers", "1,-1", "--iters", "5", "--seeds", "2",
                 "--out", str(out)]) == 2
    assert runs == [] and not out.exists()


def test_constant_step_plateau_near_theory():
    # final mean within 1.5x of the predicted plateau 2 alpha sigma^2 / mu
    cfg_gen, kappa = E.find_generator_for_kappa(5.0, n=8, d1=4, d2=4,
                                              scheme=SamplingScheme.single_element(8), seed=21)
    game = E.generate_game(cfg_gen)
    scheme = SamplingScheme.single_element(game.n)
    prof = E.profile(game, scheme)
    alpha = 1.0 / (2.0 * prof.ec.ell_xi)
    rows, _ = E.run_experiment(game, scheme, ("sgda",), iterations=5000, seeds=5,
                               schedule="theory", base_seed=0)
    plateau = 2.0 * alpha * prof.ec.sigma_sq / prof.game_constants.mu
    tail = rows[0].mean[-200:].mean()
    assert tail <= 1.5 * plateau


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def aggregate_fixture():
    game = E.generate_game(small_cfg(seed=15))
    rows, _ = E.run_experiment(
        game, SamplingScheme.single_element(game.n), ("sgda", "shgd"),
        iterations=30, seeds=3, schedule="theory", base_seed=0,
    )
    return rows


def test_csv_schema_and_roundtrip(tmp_path):
    table = aggregate_fixture()
    path = tmp_path / "agg.csv"
    E.emit_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,iteration,mean_rel_dist,ci_low,ci_high,seeds"
    assert len(lines) == 1 + 2 * 31
    loaded = E.read_csv(path)
    for src, dst in zip(table, loaded):
        assert src.method == dst.method
        assert src.running[0] == dst.running[0]
        assert src.mean.tobytes() == dst.mean.tobytes()
        assert src.ci_low.tobytes() == dst.ci_low.tobytes()
        assert src.ci_high.tobytes() == dst.ci_high.tobytes()
    # a run whose step overflows at once writes non-finite statistics
    text = E.CSV_HEADER + "\nsgda,0,1.0,1.0,1.0,3\nsgda,1,inf,nan,nan,3\n"
    path.write_text(text)
    E.emit_csv(E.read_csv(path), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == text


def test_aggregate_rejects_a_run_started_at_the_equilibrium():
    game = random_game(3, 2, 2, seed=12)
    scheme = SamplingScheme.single_element(3)
    traces = [run_batch(game, scheme, "sgda", 10, 1, ConstantSchedule(alpha=0.05), seed,
                        x0=game.equilibrium() if seed == 4 else None)[0]
              for seed in (3, 4)]
    assert traces[1].dist_sq[0] == 0.0
    with pytest.raises(ConfigError, match="seed 4"):
        E.aggregate_traces("sgda", traces)


def test_aggregate_over_running_seeds(tmp_path):
    # seeds diverge at different iterations and some run to the end: each
    # iteration averages the seeds whose traces reach it
    game = random_game(4, 2, 2, seed=3)
    traces = run_batch(game, SamplingScheme.single_element(4), "sgda", 300, 8,
                       ConstantSchedule(alpha=0.75))
    row = E.aggregate_traces("sgda", traces)
    assert len({len(t.dist_sq) for t in traces}) > 2
    assert row.mean.size == 301 and row.running[0] == 8
    for k in range(301):
        alive = [t.dist_sq[k] / t.dist_sq[0] for t in traces if len(t.dist_sq) > k]
        assert row.running[k] == len(alive)
        assert row.mean[k] == pytest.approx(np.mean(alive), rel=1e-12)
    assert row.running[0] == 8 and 0 < row.running[-1] < 8
    path = tmp_path / "ragged.csv"
    E.emit_csv([row], path)
    loaded = E.read_csv(path)[0]
    assert loaded.running[0] == 8
    assert np.array_equal(loaded.running, row.running)
    assert loaded.mean.tobytes() == row.mean.tobytes()


@pytest.mark.parametrize("line", ["sgda,x,1,1,1,1", "sgda,0,1,1,1", "sgda,0,1,1,1,2.5",
                                  "sgda,3,1.0,1.0,1.0,2",
                                  "sgda,0,1.0,1.0,1.0,2\nsgda,0,1.0,1.0,1.0,2",
                                  "sgda,0,1.0,1.0,1.0,100000000000000000000000000",
                                  "sgda,0,nan,1.0,1.0,-3"])
def test_read_csv_rejects_malformed_row(tmp_path, line):
    path = tmp_path / "bad.csv"
    path.write_text(E.CSV_HEADER + "\n" + line + "\n")
    with pytest.raises(ConfigError):
        E.read_csv(path)
    assert main(["plot", "--csv", str(path), "--svg", str(tmp_path / "bad.svg")]) == 2


def test_emission_deterministic(tmp_path):
    table = aggregate_fixture()
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    E.emit_csv(table, c1)
    E.emit_csv(table, c2)
    E.emit_svg(table, s1)
    E.emit_svg(table, s2)
    assert c1.read_bytes() == c2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    svg = s1.read_text()
    assert svg.startswith("<svg")
    assert "sgda" in svg and "shgd" in svg
    assert "polyline" in svg and "polygon" in svg


def test_svg_axis_starts_at_the_smallest_positive_mean(tmp_path):
    # a run that lands exactly on x* has mean 0.0, which no log axis holds:
    # the lowest decade is that of the smallest positive mean, 3e-4
    mean = np.array([1.0, 3e-2, 3e-4, 0.0])
    row = E.MethodAggregate("sgda", mean, mean, mean, np.full(4, 2))
    path = tmp_path / "zero.svg"
    E.emit_svg([row], path)
    labels = re.findall(r">1e(-?\d+)</text>", path.read_text())
    assert labels == ["-4", "-3", "-2", "-1", "0"]


@pytest.mark.parametrize("xs, ys", [
    ([-0.0, 0.0, -0.004, -0.005, 0.004999], [0.0, -0.0, -0.0049, 1e-300, -1e-300]),
    ([0.125, 0.375, 0.625, 2.675, 1.005], [0.5, 1.5, 72.125, 455.875, 479.995]),
    ([1e20, -1e20, 1.7976931348623157e308, 123456789.125], [3e15, 1e300, -1e200, 0.015]),
    ([np.inf, -np.inf, np.nan], [np.nan, np.inf, -np.inf]),
    ([], []),
], ids=["signed-zeros", "halves", "large", "non-finite", "empty"])
def test_svg_path_formats_as_the_per_point_join(xs, ys):
    # the one-format path is byte for byte the per-point f-string join, also
    # over reversed views as emit_svg passes for the lower band
    xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
    for a, b in ((xs, ys), (xs[::-1], ys[::-1])):
        want = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(a.tolist(), b.tolist()))
        assert E._path(a, b) == want


def test_empty_table_rejected(tmp_path):
    with pytest.raises(ConfigError):
        E.emit_csv([], tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        E.emit_svg([], tmp_path / "x.svg")


# ---------------------------------------------------------------------------
# ordering analogues and sweep
# ---------------------------------------------------------------------------


def test_method_plateau_ordering_at_desk_scale():
    # with theory steps: descent-ascent and consensus plateau below pure
    # Hamiltonian descent; tail means over the last fifth of 1000 iterations.
    # Needs nontrivial coupling: with near-decoupled blocks the Hamiltonian
    # noise is small and the ordering genuinely reverses.
    cfg_gen = E.GameGenConfig(
        n=10, d1=10, d2=10, mu_a=1.0, l_a=1.6, mu_b=1.2, l_b=2.4,
        mu_c=1.0, l_c=1.6, seed=33,
    )
    game = E.generate_game(cfg_gen)
    prof = E.profile(game, SamplingScheme.single_element(game.n))
    assert prof.kappa_g == pytest.approx(5.0, abs=1.0)
    rows, _ = E.run_experiment(
        game, SamplingScheme.single_element(game.n), ("sgda", "sco", "shgd"),
        iterations=1000, seeds=5, schedule="theory", base_seed=0,
    )
    tails = {row.method: row.mean[-200:].mean() for row in rows}
    assert tails["sgda"] <= tails["shgd"]
    assert tails["sco"] <= tails["shgd"]


def test_switching_beats_constant_plateau():
    cfg_gen, _ = E.find_generator_for_kappa(4.0, n=6, d1=3, d2=3,
                                          scheme=SamplingScheme.single_element(6), seed=44)
    game = E.generate_game(cfg_gen)
    scheme = SamplingScheme.single_element(game.n)
    prof = E.profile(game, scheme)
    sched = E.method_plan(prof, ("sgda",), "switching")["sgda"][1]
    horizon = 20 * sched.switch_point
    rows, _ = E.run_experiment(game, scheme, ("sgda",), iterations=horizon, seeds=20,
                               schedule="switching", base_seed=0)
    alpha = 1.0 / (2.0 * prof.ec.ell_xi)
    plateau = 2.0 * alpha * prof.ec.sigma_sq / prof.game_constants.mu
    assert rows[0].mean[horizon] <= 0.1 * plateau


def test_sco_switching_experiment_runs_the_hand_built_schedule():
    game = E.generate_game(small_cfg(seed=17))
    scheme = SamplingScheme.single_element(game.n)
    gc = C.game_constants(game)
    ham = C.hamiltonian_constants(game, scheme)
    sched = SwitchingSchedule.sco(ell_xi=C.ec_constants(gc, scheme, game).ell_xi,
                                  cal_l_h=ham.cal_l_h, mu=gc.mu, mu_h=ham.mu_h)
    iterations = 3 * sched.switch_point
    _, traces = E.run_experiment(game, scheme, ("sco",), iterations=iterations, seeds=3,
                                 schedule="switching", record_traces=True)
    assert E.method_plan(E.profile(game, scheme), ("sco",), "switching")["sco"][1] == sched
    expected = run_batch(game, scheme, "sco", iterations, 3, sched)
    for got, want in zip(traces["sco"], expected, strict=True):
        assert got.dist_sq.tobytes() == want.dist_sq.tobytes()
        assert got.final_x.tobytes() == want.final_x.tobytes()


@pytest.mark.parametrize("bound", list(C.BOUNDS))
def test_bound_plan_params_are_the_keys_its_bound_reads(bound):
    # each id names its method, and a switching bound's envelope has the
    # wider slack; the plan's params evaluate the bound, each is read (None
    # in its place is a TypeError) and each is needed (without it, a ConfigError)
    game = E.generate_game(small_cfg(seed=17))
    prof = E.profile(game, SamplingScheme.single_element(game.n))
    method, _, _, params, slack = E.bound_plan(bound, prof)
    assert method == bound.split("_")[0]
    assert slack == (1.1 if bound.endswith("_switching") else 1.05)
    assert tuple(params) == C.BOUNDS[bound][3]
    k = C.bound_start(bound, params) + 3
    assert math.isfinite(C.theoretical_bound(bound, k, 1.0, **params))
    for key in params:
        with pytest.raises(TypeError):
            C.theoretical_bound(bound, k, 1.0, **{**params, key: None})
        rest = {other: value for other, value in params.items() if other != key}
        with pytest.raises(ConfigError, match=f"^{bound} needs {key}$"):
            C.theoretical_bound(bound, k, 1.0, **rest)


def test_bound_plan_reads_only_the_records_its_bound_names():
    # shgd_constant names no game constant, and this game's game constants
    # raise NumericalError: one component is not co-coercive
    game = E.read_game(Path(__file__).with_name("nonmonotone_game.json"))[0]
    prof = E.profile(game, SamplingScheme.single_element(game.n))
    E.bound_plan(C.SHGD_CONSTANT, prof)
    assert "game_constants" not in prof.__dict__
    with pytest.raises(NumericalError, match="not co-coercive"):
        prof.game_constants
    # the sgda bounds name no Hamiltonian constant, which a minibatch lacks
    game = E.generate_game(small_cfg())
    prof = E.profile(game, SamplingScheme.minibatch(game.n, 3))
    for bound in (C.SGDA_CONSTANT, C.SGDA_CONSTANT_GENERAL, C.SGDA_SWITCHING):
        assert E.bound_plan(bound, prof)[1] == prof.scheme
    with pytest.raises(UnsupportedSchemeError):
        prof.hamiltonian


@pytest.mark.parametrize("bound", ["sgda_constnat", "sgda"])
def test_bound_plan_rejects_an_unknown_bound(bound):
    prof = E.profile(E.generate_game(small_cfg()), SamplingScheme.single_element(4))
    with pytest.raises(ConfigError, match=f"unknown bound id '{bound}'"):
        E.bound_plan(bound, prof)


def test_sweep_step_sizes_labels_and_shape():
    game = E.generate_game(small_cfg(seed=16))
    table = E.sweep_step_sizes(
        game, SamplingScheme.single_element(game.n),
        methods=("sgda",), multipliers=(0.5, 1.0), iterations=40, seeds=2,
    )
    assert [row.method for row in table] == ["sgda@0.5", "sgda@1"]
    assert all(row.mean.size == 41 for row in table)


def test_run_and_sweep_reject_an_empty_method_list():
    game = E.generate_game(small_cfg(seed=16))
    scheme = SamplingScheme.single_element(game.n)
    with pytest.raises(ConfigError, match="need at least one method"):
        E.run_experiment(game, scheme, (), iterations=5, seeds=1)
    with pytest.raises(ConfigError, match="need at least one method"):
        E.sweep_step_sizes(game, scheme, (), (1.0,), iterations=5, seeds=1)


@pytest.mark.parametrize("method", ["gda", "sgda"])
@pytest.mark.parametrize("schedule", ["theory", ConstantSchedule(0.01)])
def test_run_experiment_rejects_a_scheme_for_another_n(method, schedule):
    # gda's full batch is the scheme's size, so the mismatch reaches it too
    game = E.generate_game(small_cfg(seed=16))
    with pytest.raises(ConfigError, match="^scheme is for n=5, (constants for|operator has) n=4$"):
        E.run_experiment(game, SamplingScheme.single_element(5), (method,), 3, 1, schedule)


@pytest.mark.parametrize("schedule", ["bogus", None, 0.1, []])
def test_run_experiment_rejects_a_schedule_it_cannot_read(schedule):
    game = E.generate_game(small_cfg(seed=16))
    with pytest.raises(ConfigError, match=f"^schedule must be a schedule object, got "
                                          f"{re.escape(repr(schedule))}$"):
        E.run_experiment(game, SamplingScheme.single_element(game.n), ("sgda",), 5, 1, schedule)


def test_find_generator_hits_target_kappa():
    cfg, kappa = E.find_generator_for_kappa(25.0, n=6, d1=4, d2=4,
                                         scheme=SamplingScheme.single_element(6), seed=2)
    assert abs(kappa - 25.0) / 25.0 <= 0.1
    game = E.generate_game(cfg)
    gc = C.game_constants(game)
    ec = C.ec_constants(gc, SamplingScheme.single_element(6), game)
    assert ec.ell_xi / gc.mu == pytest.approx(kappa, rel=1e-12)
