import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stochvi
from stochvi import numerics, solvers, verify
from stochvi import constants as C
from stochvi import experiments as E
from stochvi.cli import main
from stochvi.errors import ConfigError
from stochvi.solvers import METHODS


@pytest.fixture()
def game_file(tmp_path):
    path = tmp_path / "game.json"
    code = main([
        "generate", "--n", "4", "--d1", "2", "--d2", "2",
        "--mu-a", "1.0", "--l-a", "3.0", "--mu-b", "0.5", "--l-b", "1.5",
        "--mu-c", "1.0", "--l-c", "3.0", "--out", str(path),
    ])
    assert code == 0
    return path


def test_generate_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    args = ["--seed", "9", "generate", "--n", "3", "--d1", "2", "--d2", "2", "--out"]
    assert main(args + [str(p1)]) == 0
    assert main(args + [str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_constants_prints_flat_keys(game_file, capsys):
    assert main(["constants", str(game_file), "--scheme", "minibatch", "--b", "2",
                 "--epsilon", "0.1"]) == 0
    out = capsys.readouterr().out
    keys = {line.split(":")[0] for line in out.strip().splitlines()}
    assert {"mu", "ell", "ell_max", "sigma1_sq", "ell_xi", "sigma_sq",
            "kappa_g", "b_star", "b_star_real"} <= keys


@pytest.mark.parametrize("flags, label", [
    (["--scheme", "single"], "single_element_uniform"),
    (["--scheme", "single_element"], "single_element_uniform"),
    (["--scheme", "single_element_uniform"], "single_element_uniform"),
    (["--scheme", "full"], "full_batch"),
    (["--scheme", "full_batch"], "full_batch"),
    (["--scheme", "minibatch", "--b", "2"], "minibatch(b=2)"),
    (["--scheme", "minibatch", "--b", "1"], "single_element_uniform"),
    (["--scheme", "minibatch", "--b", "4"], "full_batch"),
], ids=["single", "single_element", "single_element_uniform", "full", "full_batch",
        "minibatch", "minibatch_b1", "minibatch_bn"])
def test_constants_accepts_every_scheme_name(game_file, capsys, flags, label):
    assert main(["constants", str(game_file), *flags]) == 0
    assert f"scheme: {label}" in capsys.readouterr().out.splitlines()


def test_constants_reports_hamiltonian_for_single_element(game_file, capsys):
    assert main(["constants", str(game_file), "--scheme", "single"]) == 0
    out = capsys.readouterr().out
    assert "mu_h:" in out and "cal_l_h:" in out and "sigma_h_sq:" in out


def test_run_emits_csv_and_svg(game_file, tmp_path):
    csv = tmp_path / "agg.csv"
    svg = tmp_path / "agg.svg"
    code = main([
        "run", "--game", str(game_file), "--method", "sgda,sco",
        "--scheme", "single", "--schedule", "theory",
        "--iters", "50", "--seeds", "3", "--out", str(csv), "--svg", str(svg),
    ])
    assert code == 0
    table = E.read_csv(csv)
    assert [r.method for r in table] == ["sgda", "sco"]
    assert svg.read_text().startswith("<svg")


def test_run_deterministic_outputs(game_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "--seed", "4", "run", "--game", str(game_file), "--method", "sgda",
        "--scheme", "single", "--iters", "40", "--seeds", "2",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_dump_iterates(game_file, tmp_path):
    csv = tmp_path / "agg.csv"
    dump = tmp_path / "iterates.csv"
    code = main([
        "run", "--game", str(game_file), "--method", "gda",
        "--scheme", "full", "--iters", "10", "--seeds", "1",
        "--out", str(csv), "--dump-iterates", str(dump),
    ])
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("method,iteration,x0")
    assert len(lines) == 1 + 11


def test_dump_iterates_holds_the_first_seed(game_file, tmp_path):
    # the dump is the iterates of the batch's first seed, --seed, not seed 0
    dump = tmp_path / "iterates.csv"
    assert main([
        "--seed", "3", "run", "--game", str(game_file), "--method", "sgda",
        "--scheme", "single", "--schedule", "constant", "--alpha", "0.05",
        "--iters", "20", "--seeds", "2", "--out", str(tmp_path / "agg.csv"),
        "--dump-iterates", str(dump),
    ]) == 0
    dumped = np.array([[float(v) for v in line.split(",")[2:]]
                       for line in dump.read_text().splitlines()[1:]])
    game = E.read_game(game_file)[0]

    def first_seed(base_seed):
        return solvers.run_batch(game, stochvi.SamplingScheme.single_element(game.n), "sgda",
                                 20, 2, solvers.ConstantSchedule(alpha=0.05), base_seed,
                                 record_iterates=True)[0].iterates

    assert dumped.tobytes() == first_seed(3).tobytes()
    assert dumped.tobytes() != first_seed(0).tobytes()


def test_verify_passes_and_writes_report(game_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "verify", str(game_file), "--scheme", "single",
        "--checks", "ec,class,unbiased", "--points", "100", "--out", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3
    doc = json.loads(report.read_text())
    assert all(entry["passed"] for entry in doc)


def test_verify_class_check_certifies_the_game_ell(game_file, monkeypatch, capsys):
    seen = []
    check = verify.check_monotonicity_class
    monkeypatch.setattr(verify, "check_monotonicity_class",
                        lambda op, mu, ell_star, *rest: seen.append((mu, ell_star))
                        or check(op, mu, ell_star, *rest))
    assert main(["verify", str(game_file), "--scheme", "single", "--checks", "class",
                 "--points", "5"]) == 0
    game = E.read_game(game_file)[0]
    gc = E.profile(game, stochvi.SamplingScheme.single_element(game.n)).game_constants
    assert seen == [(gc.mu, gc.ell)]


def test_verify_envelope_check(game_file, capsys):
    code = main([
        "verify", str(game_file), "--scheme", "single", "--checks", "envelope",
        "--envelope-seeds", "30", "--envelope-iters", "150",
    ])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_full_batch_envelope_at_the_default_iterations(game_file, capsys):
    # the 500-iteration run reaches the rounding floor long before its end
    assert main(["verify", str(game_file), "--scheme", "full", "--checks", "envelope"]) == 0
    assert "[PASS] bound_envelope[sgda_constant]" in capsys.readouterr().out


def test_verify_exit_code_on_failure(tmp_path, capsys):
    # a deliberately mis-specified check: huge mu makes the class check fail
    path = tmp_path / "game.json"
    main(["generate", "--n", "2", "--d1", "1", "--d2", "1", "--out", str(path)])
    # craft failure via ec check with halved constant is not reachable from
    # the CLI; instead corrupt the game file offsets so no equilibrium checks
    # fail but the class check still passes; use unknown check for exit 2.
    code = main(["verify", str(path), "--checks", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("shape, argv", [
    (("24", "1", "1"), ["--b", "12", "--checks", "unbiased"]),
    (("40", "5", "5"), ["--b", "10", "--checks", "ec,unbiased"]),
], ids=["n24-b12", "n40-b10"])
def test_verify_reads_moments_not_the_support(tmp_path, capsys, shape, argv):
    # C(24, 12) = 2,704,156 and C(40, 10) = 847,660,528 subsets: the checks
    # take their expectations from the scheme's moments, never its support
    n, d1, d2 = shape
    path = tmp_path / "game.json"
    assert main(["generate", "--n", n, "--d1", d1, "--d2", d2, "--out", str(path)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["verify", str(path), "--scheme", "minibatch", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.count("[PASS]") == len(argv[-1].split(","))
    assert peak < 20 * 2**20


def test_exit_code_numerical_error(tmp_path):
    # bilinear game: symmetric part vanishes, constants must refuse
    game = E.QuadraticGame([[[0.0]]], [[[2.0]]], [[[0.0]]], [[0.0]], [[0.0]])
    path = tmp_path / "bilinear.json"
    E.write_game(path, game)
    assert main(["constants", str(path)]) == 3


def test_exit_code_missing_file():
    assert main(["constants", "does-not-exist.json"]) == 2


def _game_text(**changes):
    # a valid one-component game (d1 = d2 = 1) with the given keys replaced
    doc = {"format_version": 1, "n": 1, "d1": 1, "d2": 1, "A": [[1.0]], "B": [[0.5]],
           "C": [[1.0]], "a": [[0.0]], "c": [[0.0]]}
    doc.update(changes)
    return json.dumps(doc)


_GENERATOR = {"n": 1, "d1": 1, "d2": 1, "mu_a": 1.0, "l_a": 1.0, "mu_b": 0.5, "l_b": 0.5,
              "mu_c": 1.0, "l_c": 1.0, "seed": 4}


@pytest.mark.parametrize(
    "content",
    [
        '{"format_version": 1, "n": 1, "d1": 1, "d2": 1}',
        '{"format_version": 1, "n": ',
        "[]",
        _game_text(n="1"),
        _game_text(A=[[1.0, 2.0]]),
        _game_text(A=[[float("nan")]]),
        _game_text(d1=2, A=[[1.0, 2.0, 0.0, 1.0]], B=[[0.5, 0.5]], a=[[0.0, 0.0]]),
        _game_text(A=[["1.5"]]),
        _game_text(A=[[True]]),
        _game_text(generator=_GENERATOR, seed=5),
        _game_text(generator=_GENERATOR, seed="4"),
        _game_text(generator={**_GENERATOR, "n": 5, "d1": 7, "d2": 9}),
        b'{"n": \xff}',
        "[" * 200000 + "]" * 200000,
        _game_text(A=[[10**400]]),
    ],
    ids=["missing_key", "invalid_json", "not_an_object", "non_integer_header",
         "size_mismatch", "nan_entry", "asymmetric", "numeric_string", "boolean",
         "seed_mismatch", "string_seed", "generator_shape_mismatch", "not_utf8",
         "nested_past_recursion_limit", "integer_beyond_float_range"],
)
def test_malformed_game_file_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main(["constants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("changes", [{}, {"seed": None}, {"generator": _GENERATOR},
                                     {"generator": _GENERATOR, "seed": 4}],
                         ids=["no_seed", "null_seed", "generator", "matching_seed"])
def test_game_file_seed_repeating_the_generator_loads(tmp_path, changes):
    path = tmp_path / "game.json"
    path.write_text(_game_text(**changes))
    assert main(["constants", str(path)]) == 0


def test_run_constant_schedule_needs_a_step(game_file, tmp_path, capsys):
    out = tmp_path / "agg.csv"
    code = main([
        "run", "--game", str(game_file), "--method", "sgda", "--scheme", "single",
        "--schedule", "constant", "--iters", "10", "--seeds", "1", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_sweep_multipliers(game_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--game", str(game_file), "--methods", "sgda",
        "--multipliers", "0.5,1", "--iters", "30", "--seeds", "2",
        "--out", str(out),
    ])
    assert code == 0
    table = E.read_csv(out)
    assert [r.method for r in table] == ["sgda@0.5", "sgda@1"]


@pytest.mark.parametrize("argv, named", [
    (["run", "--method", "sgda,sgda"], "method 'sgda'"),
    (["sweep", "--methods", "sgda,sgda", "--multipliers", "1"], "method 'sgda'"),
    (["sweep", "--methods", "sgda", "--multipliers", "1,1"], "label 'sgda@1'"),
    # :g keeps six significant digits, so both label as sgda@1
    (["sweep", "--methods", "sgda", "--multipliers", "1,1.0000001"], "label 'sgda@1'"),
], ids=["run-methods", "sweep-methods", "sweep-multipliers", "sweep-labels"])
def test_repeated_rows_are_config_errors(game_file, tmp_path, capsys, argv, named):
    # each would write a CSV whose repeated rows plot rejects
    out = tmp_path / "agg.csv"
    code = main([*argv, "--game", str(game_file), "--scheme", "single",
                 "--iters", "7", "--seeds", "2", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0]


def test_sweep_target_kappa(tmp_path):
    out = tmp_path / "kappa_game.json"
    code = main([
        "sweep", "--target-kappa", "5", "--n", "6", "--d1", "3", "--d2", "3",
        "--out", str(out),
    ])
    assert code == 0
    game, gen = E.read_game(out)
    assert gen is not None
    from stochvi import constants as C
    from stochvi.sampling import SamplingScheme

    gc = C.game_constants(game)
    ec = C.ec_constants(gc, SamplingScheme.single_element(game.n), game)
    assert abs(ec.ell_xi / gc.mu - 5.0) / 5.0 <= 0.1


def test_plot_roundtrip(game_file, tmp_path):
    csv = tmp_path / "agg.csv"
    svg1 = tmp_path / "direct.svg"
    svg2 = tmp_path / "replot.svg"
    main([
        "run", "--game", str(game_file), "--method", "sgda", "--scheme", "single",
        "--iters", "30", "--seeds", "2", "--out", str(csv), "--svg", str(svg1),
    ])
    assert main(["plot", "--csv", str(csv), "--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_plot_of_a_csv_that_is_not_utf8_is_config_error(tmp_path, capsys):
    csv, svg = tmp_path / "agg.csv", tmp_path / "agg.svg"
    csv.write_bytes(E.CSV_HEADER.encode() + b"\n\xff,0,1.0,1.0,1.0,1\n")
    code, line = _one_line_exit(["plot", "--csv", str(csv), "--svg", str(svg)], capsys)
    assert code == 2 and line.startswith("configuration error: ")
    assert not svg.exists()


@pytest.mark.parametrize("label", ["a\x00b", "a\x01b", "a\x0bb", "a\x0cb", "a\x1fb",
                                   "a\ufffeb", "a\uffffb"])
def test_plot_rejects_a_label_xml_cannot_hold(tmp_path, capsys, label):
    # no XML escape exists for these characters, so the SVG could not parse
    csv, svg = tmp_path / "agg.csv", tmp_path / "agg.svg"
    csv.write_text(f"{E.CSV_HEADER}\nok,0,1.0,1.0,1.0,1\n{label},0,1.0,1.0,1.0,1\n",
                   encoding="utf-8")
    code, line = _one_line_exit(["plot", "--csv", str(csv), "--svg", str(svg)], capsys)
    assert code == 2 and line.startswith(f"configuration error: {csv}: line 3 ")
    assert not svg.exists()


def test_plot_keeps_a_tab_in_a_label(tmp_path):
    csv, svg = tmp_path / "agg.csv", tmp_path / "agg.svg"
    csv.write_text(f"{E.CSV_HEADER}\na\tb,0,1.0,1.0,1.0,1\n", encoding="utf-8")
    assert main(["plot", "--csv", str(csv), "--svg", str(svg)]) == 0
    texts = [el.text for el in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-1] == "a\tb"


def test_plot_escapes_markup_in_row_labels(tmp_path):
    csv, svg = tmp_path / "agg.csv", tmp_path / "agg.svg"
    csv.write_text(f"{E.CSV_HEADER}\na&b<c>,0,1.0,1.0,1.0,1\na&b<c>,1,0.5,0.4,0.6,1\n")
    assert main(["plot", "--csv", str(csv), "--svg", str(svg)]) == 0
    texts = [el.text for el in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-1] == "a&b<c>"


def test_sweep_svg_is_the_plot_of_its_csv(game_file, tmp_path):
    csv, svg, replot = tmp_path / "sweep.csv", tmp_path / "sweep.svg", tmp_path / "plot.svg"
    assert main(["sweep", "--game", str(game_file), "--methods", "sgda,sco",
                 "--multipliers", "0.5,2", "--iters", "20", "--seeds", "2",
                 "--out", str(csv), "--svg", str(svg)]) == 0
    assert main(["plot", "--csv", str(csv), "--svg", str(replot)]) == 0
    assert svg.read_bytes() == replot.read_bytes()


@pytest.mark.parametrize("seeds", ["1", "3"])
def test_run_and_plot_draw_non_finite_statistics(game_file, tmp_path, seeds):
    # the first step overflows: iteration 1 reads inf (and nan bands over
    # several seeds), which both commands draw at the plot's top edge
    csv, svg, replot = tmp_path / "agg.csv", tmp_path / "run.svg", tmp_path / "plot.svg"
    with np.errstate(all="ignore"):
        assert main(["run", "--game", str(game_file), "--method", "sgda",
                     "--schedule", "constant", "--alpha", "1e200", "--iters", "5",
                     "--seeds", seeds, "--out", str(csv), "--svg", str(svg)]) == 0
    row = E.read_csv(csv)[0]
    assert row.mean[1] == math.inf and not np.isfinite(row.ci_high[1])
    assert main(["plot", "--csv", str(csv), "--svg", str(replot)]) == 0
    assert svg.read_bytes() == replot.read_bytes()
    polyline = re.search(r'<polyline points="([^"]*)"', svg.read_text()).group(1)
    assert polyline.split()[1].endswith(",24.00")
    assert "nan" not in svg.read_text() and "inf" not in svg.read_text()


_RUN = ["run", "--game", "{game}", "--method", "sgda", "--scheme", "single",
        "--iters", "10", "--seeds", "1", "--out", "agg.csv"]
_SWEEP = ["sweep", "--game", "{game}", "--iters", "5", "--seeds", "1", "--out", "s.csv"]


@pytest.mark.parametrize("argv, name", [
    (["generate", "--n", "3", "--d1", "1", "--d2", "1", "--out", "g.json"], "g.json"),
    (_RUN, "agg.csv"),
    (_RUN + ["--svg", "agg.svg"], "agg.svg"),
    (_RUN + ["--dump-iterates", "it.csv"], "it.csv"),
    (["verify", "{game}", "--checks", "ec", "--points", "2", "--out", "v.json"], "v.json"),
    (_SWEEP, "s.csv"),
    (_SWEEP + ["--svg", "s.svg"], "s.svg"),
    (["sweep", "--target-kappa", "5", "--n", "3", "--d1", "1", "--d2", "1",
      "--out", "k.json"], "k.json"),
    (["plot", "--csv", "{csv}", "--svg", "p.svg"], "p.svg"),
], ids=["generate_out", "run_out", "run_svg", "run_dump_iterates", "verify_out",
        "sweep_game_out", "sweep_game_svg", "sweep_target_kappa_out", "plot_svg"])
def test_out_dir_flag(game_file, tmp_path, capsys, argv, name):
    # every file the CLI writes at a relative path lands under --out-dir,
    # named by one "wrote" line
    out_dir = tmp_path / "results"
    csv = tmp_path / "agg.csv"
    csv.write_text(f"{E.CSV_HEADER}\nsgda,0,1.0,1.0,1.0,1\n", encoding="utf-8")
    argv = [a.replace("{game}", str(game_file)).replace("{csv}", str(csv)) for a in argv]
    assert main(["--out-dir", str(out_dir), *argv]) == 0
    assert (out_dir / name).is_file()
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.split(" (")[0] == f"wrote {out_dir / name}"]
    assert len(wrote) == 1


def test_well_formed_game_text_is_accepted(tmp_path):
    # the malformed cases above differ from this file in one key each
    path = tmp_path / "good.json"
    path.write_text(_game_text())
    assert main(["constants", str(path)]) == 0


def test_game_constants_computed_once_per_run(game_file, tmp_path, monkeypatch):
    # gda runs on the full batch beside sgda on single-element sampling: two
    # profiles, one set of scheme-free game constants
    calls = []
    original = C.game_constants

    def counted(game):
        calls.append(game)
        return original(game)

    monkeypatch.setattr(C, "game_constants", counted)
    assert main([
        "run", "--game", str(game_file), "--method", "gda,sgda", "--scheme", "single",
        "--iters", "5", "--seeds", "1", "--out", str(tmp_path / "agg.csv"),
    ]) == 0
    assert len(calls) == 1


def test_constant_step_run_computes_no_game_constants(game_file, tmp_path, monkeypatch):
    # the same two profiles, but a constant step reads no constant
    calls = []
    original = C.game_constants

    def counted(game):
        calls.append(game)
        return original(game)

    monkeypatch.setattr(C, "game_constants", counted)
    assert main([
        "run", "--game", str(game_file), "--method", "gda,sgda", "--scheme", "single",
        "--schedule", "constant", "--alpha", "0.1",
        "--iters", "5", "--seeds", "1", "--out", str(tmp_path / "agg.csv"),
    ]) == 0
    assert len(calls) == 0


# Two components with d1 = d2 = 1: A_0 = -1 makes component 0 non-monotone,
# while the mean's symmetric part is the identity and expected co-coercivity
# holds.  The paper's rates allow such components.
NONMONOTONE_GAME = Path(__file__).with_name("nonmonotone_game.json")


@pytest.mark.parametrize("argv, code", [
    (["run", "--game", "{game}", "--method", "sgda", "--schedule", "constant", "--alpha", "0.1",
      "--iters", "20", "--seeds", "2", "--out", "{out}"], 0),
    (["verify", "{game}", "--checks", "unbiased"], 0),
    (["run", "--game", "{game}", "--method", "sgda", "--iters", "20", "--out", "{out}"], 3),
], ids=["constant_step_run", "verify_unbiased", "theory_steps"])
def test_nonmonotone_component_is_certified_only_where_read(tmp_path, capsys, argv, code):
    # theory steps read every component's ell_i; the other two read no constant
    out = tmp_path / "agg.csv"
    argv = [a.replace("{game}", str(NONMONOTONE_GAME)).replace("{out}", str(out)) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numerical error: not co-coercive: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == ""


@pytest.mark.parametrize("methods, flags, calls", [
    ("sgda", ["--scheme", "minibatch", "--b", "3"], 0),
    ("sgda,sco,shgd", ["--scheme", "single"], 1),
    ("gda,co", ["--scheme", "full"], 1),
])
def test_hamiltonian_constants_computed_once_when_read(game_file, tmp_path, monkeypatch,
                                                      methods, flags, calls):
    counted = []
    original = C.hamiltonian_constants

    def counting(game, scheme):
        counted.append(scheme)
        return original(game, scheme)

    monkeypatch.setattr(C, "hamiltonian_constants", counting)
    assert main(["run", "--game", str(game_file), "--method", methods, *flags,
                 "--iters", "5", "--seeds", "1", "--out", str(tmp_path / "r.csv")]) == 0
    assert len(counted) == calls


@pytest.mark.parametrize("argv", [
    ["run", "--game", "{game}", "--method", "sgda,sco", "--iters", "5"],
    ["sweep", "--game", "{game}", "--methods", "sgda,sco", "--iters", "5"],
])
def test_unsupported_scheme_stops_before_any_run(game_file, tmp_path, capsys, monkeypatch,
                                                 argv):
    def no_run(*args, **kwargs):
        raise AssertionError("run_batch was called")

    monkeypatch.setattr(E, "run_batch", no_run)
    monkeypatch.setattr(solvers, "run_batch", no_run)
    out = tmp_path / "r.csv"
    argv = [a.replace("{game}", str(game_file)) for a in argv]
    err = _config_error_exit(argv + ["--scheme", "minibatch", "--b", "3", "--out", str(out)],
                             capsys)
    assert "hamiltonian constants support single-element or full-batch" in err
    assert not out.exists()


def _divergence_reports(err):
    """{row label: [(seed, iteration), ...]} from the stderr warnings."""
    reports = {}
    for line in err.strip().splitlines():
        match = re.fullmatch(r"warning: (\S+) diverged: (.*)", line)
        assert match, line
        stops = re.findall(r"seed (\d+) at iteration (\d+)", match.group(2))
        reports[match.group(1)] = [(int(seed), int(k)) for seed, k in stops]
    return reports


def test_run_reports_diverged_seeds(game_file, tmp_path, capsys):
    out = tmp_path / "div.csv"
    code = main([
        "run", "--game", str(game_file), "--method", "sgda,sco", "--schedule", "constant",
        "--alpha", "5", "--iters", "200", "--seeds", "3", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}\n"
    reports = _divergence_reports(captured.err)
    assert list(reports) == ["sgda", "sco"]
    for row in E.read_csv(out):
        stops = reports[row.method]
        assert [seed for seed, _ in stops] == [0, 1, 2]
        # the table keeps the iterations every seed reached
        assert min(k for _, k in stops) == row.mean.size - 1 < 200


def test_sweep_reports_only_diverged_rows(game_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--game", str(game_file), "--methods", "sgda", "--multipliers", "1,40",
        "--iters", "100", "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    reports = _divergence_reports(capsys.readouterr().err)
    assert list(reports) == ["sgda@40"]
    assert [seed for seed, _ in reports["sgda@40"]] == [0, 1]


def test_overflowing_run_prints_only_the_divergence_line(game_file, tmp_path, capsys):
    # every seed overflows at its first step; the guard's line reports it and
    # numpy raises no RuntimeWarning of its own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "run", "--game", str(game_file), "--method", "sgda", "--schedule", "constant",
            "--alpha", "1e200", "--iters", "5", "--seeds", "3",
            "--out", str(tmp_path / "div.csv"), "--svg", str(tmp_path / "div.svg"),
        ])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert _divergence_reports(err) == {"sgda": [(0, 1), (1, 1), (2, 1)]}


def test_cli_import_leaves_scipy_out():
    src = str(Path(stochvi.__file__).resolve().parents[1])
    code = "import sys, stochvi.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def _config_error_exit(argv, capsys):
    """Run argv; assert exit 2 through one ``configuration error:`` line or
    argparse's usage error, never a traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected an option value
        code = exc.code
        err = capsys.readouterr().err
        assert re.match(r"stochvi( \w+)?: error: ", err.strip().splitlines()[-1]), err
    else:
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:"), err
    assert code == 2
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{game}", "--points", "0"],
        ["sweep", "--game", "{game}", "--multipliers", "", "--out", "{out}/s.csv"],
        ["--seed", "-1", "run", "--game", "{game}", "--method", "sgda", "--iters", "5",
         "--out", "{out}/r.csv"],
        ["sweep", "--target-kappa", "nan", "--n", "3", "--d1", "1", "--d2", "1",
         "--out", "{out}/k.json"],
        ["verify", "{game}", "--radius", "nan"],
        ["sweep", "--out", "{out}/s.csv"],
        ["run", "--game", "{game}", "--method", "sgda", "--iters", "5", "--out", "{out}"],
        ["run", "--game", "{game}", "--method", "sgda", "--scheme", "single", "--b", "3",
         "--iters", "5", "--out", "{out}/r.csv"],
        ["constants", "{game}", "--scheme", "full", "--b", "2"],
        ["run", "--game", "{game}", "--method", "sgda", "--schedule", "theory",
         "--alpha", "0.1", "--iters", "5", "--out", "{out}/r.csv"],
        ["run", "--game", "{game}", "--method", "sco", "--schedule", "switching",
         "--gamma", "0.1", "--iters", "5", "--out", "{out}/r.csv"],
        ["verify", "{game}", "--radius", "-1"],
        ["verify", "{game}", "--checks", "ec,ec", "--points", "3", "--out", "{out}/v.json"],
        ["verify", "{game}", "--checks", "ec,bogus", "--points", "3", "--out", "{out}/v.json"],
        ["verify", "{game}", "--checks", "envelope", "--radius", "-1", "--points", "3"],
        ["sweep", "--game", "{game}", "--methods", "sgda", "--target-kappa", "5",
         "--n", "3", "--d1", "1", "--d2", "1", "--out", "{out}/k.json"],
        ["sweep", "--target-kappa", "5", "--n", "3", "--d1", "1", "--d2", "1",
         "--out", "{out}/k.json", "--svg", "{out}/k.svg"],
        *(["sweep", "--game", "{game}", flag, "3", "--iters", "5", "--out", "{out}/s.csv"]
          for flag in ("--n", "--d1", "--d2")),
        *(["sweep", "--target-kappa", "5", "--n", "3", "--d1", "1", "--d2", "1", flag, value,
           "--out", "{out}/k.json"]
          for flag, value in (("--methods", "sgda"), ("--multipliers", "1"),
                              ("--iters", "5"), ("--seeds", "2"))),
        ["run", "--game", "{game}", "--method", "shgd", "--schedule", "switching",
         "--iters", "5", "--out", "{out}/r.csv"],
        ["run", "--game", "{game}", "--method", "gda", "--scheme", "full",
         "--schedule", "switching", "--iters", "5", "--out", "{out}/r.csv"],
        ["verify", "{game}", "--checks", "envelope", "--points", "3",
         "--out", "{out}/v.json"],
        ["verify", "{game}", "--checks", "envelope", "--radius", "0.5",
         "--out", "{out}/v.json"],
        ["verify", "{game}", "--checks", "ec,class", "--envelope-seeds", "2",
         "--out", "{out}/v.json"],
        ["verify", "{game}", "--checks", "unbiased", "--envelope-iters", "5",
         "--out", "{out}/v.json"],
        ["verify", "{game}", "--scheme", "full", "--b", "2", "--out", "{out}/v.json"],
        ["sweep", "--game", "{game}", "--scheme", "single", "--b", "2", "--iters", "5",
         "--out", "{out}/s.csv"],
        ["sweep", "--target-kappa", "5", "--n", "3", "--d1", "1", "--d2", "1",
         "--scheme", "full", "--b", "2", "--out", "{out}/k.json"],
        *([*argv, "--scheme", "minibatch"] for argv in (
            ["constants", "{game}"],
            ["run", "--game", "{game}", "--method", "sgda", "--iters", "5",
             "--out", "{out}/r.csv"],
            ["verify", "{game}", "--out", "{out}/v.json"],
            ["sweep", "--game", "{game}", "--iters", "5", "--out", "{out}/s.csv"],
            ["sweep", "--target-kappa", "5", "--n", "3", "--d1", "1", "--d2", "1",
             "--out", "{out}/k.json"],
        )),
        ["run", "--game", "{game}", "--method", "sgda", "--iters", "5", "--out", "{game}"],
        ["sweep", "--game", "{game}", "--iters", "5", "--out", "{game}"],
        ["verify", "{game}", "--checks", "ec", "--points", "2", "--out", "{game}"],
        ["run", "--game", "{game}", "--method", "sgda", "--iters", "5",
         "--out", "{out}/s.csv", "--svg", "{out}/s.csv"],
        ["run", "--game", "{game}", "--method", "sgda", "--iters", "5",
         "--out", "{out}/s.csv", "--dump-iterates", "{out}/s.csv"],
        ["sweep", "--game", "{game}", "--iters", "5", "--out", "{out}/s.csv",
         "--svg", "{out}/./s.csv"],
        ["plot", "--csv", "{csv}", "--svg", "{csv}"],
        ["--out-dir", "{out}", "run", "--game", "{game}", "--method", "sgda", "--iters", "5",
         "--out", "../game.json"],
        ["run", "--game", "{game}", "--method", "sgda", "--iters", "2",
         "--out", "{out}/a\x00b.csv"],
        ["constants", "{out}/g\x00.json"],
        ["plot", "--csv", "{csv}", "--svg", "{out}/x\x00.svg"],
        ["--out-dir", "{out}/o\x00", "run", "--game", "{game}", "--method", "sgda",
         "--iters", "2", "--out", "r.csv"],
        ["plot", "--csv", "{game}", "--svg", "{out}/p.svg"],
        ["sweep", "--target-kappa", "0.5", "--n", "3", "--d1", "1", "--d2", "1",
         "--out", "{out}/k.json"],
        ["verify", "{game}", "--checks", "unbiased", "--points", "5"],
        ["verify", "{game}", "--checks", "unbiased", "--radius", "1"],
    ],
    ids=["zero_points", "empty_multipliers", "negative_seed", "nan_kappa", "nan_radius",
         "sweep_without_game", "output_is_directory", "b_with_single", "b_with_full",
         "alpha_with_theory", "gamma_with_switching", "negative_radius", "repeated_check",
         "unknown_check_after_known", "negative_radius_envelope", "game_with_target_kappa",
         "svg_with_target_kappa", "n_with_game", "d1_with_game", "d2_with_game",
         "methods_with_target_kappa", "multipliers_with_target_kappa",
         "iters_with_target_kappa", "seeds_with_target_kappa", "shgd_switching",
         "gda_switching", "points_with_envelope_only", "radius_with_envelope_only",
         "envelope_seeds_without_envelope", "envelope_iters_without_envelope",
         "b_with_full_verify", "b_with_single_sweep", "b_with_full_target_kappa",
         "minibatch_without_b_constants", "minibatch_without_b_run",
         "minibatch_without_b_verify", "minibatch_without_b_sweep",
         "minibatch_without_b_target_kappa", "run_out_is_game", "sweep_out_is_game",
         "verify_out_is_game", "svg_is_out", "dump_iterates_is_out", "sweep_svg_is_out",
         "plot_svg_is_csv", "out_dir_out_is_game", "nul_in_out", "nul_in_game",
         "nul_in_svg", "nul_in_out_dir", "plot_of_a_game_file", "target_kappa_below_one",
         "points_with_unbiased_only", "radius_with_unbiased_only"],
)
def test_bad_argv_is_config_error(game_file, tmp_path, capsys, argv):
    out = tmp_path / "outputs"
    out.mkdir()
    csv = tmp_path / "agg.csv"
    csv.write_text(f"{E.CSV_HEADER}\nsgda,0,1.0,1.0,1.0,1\n", encoding="utf-8")
    inputs = {path: path.read_bytes() for path in (game_file, csv)}
    argv = [a.replace("{game}", str(game_file)).replace("{csv}", str(csv))
            .replace("{out}", str(out)) for a in argv]
    _config_error_exit(argv, capsys)
    assert list(out.iterdir()) == []
    assert {path: path.read_bytes() for path in inputs} == inputs


def test_overlapping_paths_name_both_flags(game_file, tmp_path, capsys):
    out = tmp_path / "outputs"
    err = _config_error_exit(["--out-dir", str(out), "verify", str(game_file), "--checks", "ec",
                              "--out", "../game.json"], capsys)
    path = os.path.realpath(game_file)
    assert err == f"configuration error: game and --out name the same file {path!r}\n"
    assert not out.exists()


def _one_line_exit(argv, capsys):
    """(exit code, the one stderr line) of argv; numpy warns of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return code, lines[0]


@pytest.mark.parametrize("flags, code, line", [
    (["--d1", "2", "--d2", "2", "--mu-a", "1.7e308", "--l-a", "1.7e308"], 2,
     "configuration error: game data must be finite"),
    (["--d1", "3", "--d2", "3", "--mu-b", "1.7e308", "--l-b", "1.7e308"], 3,
     "numerical error: the mean Jacobian or offset overflows"),
], ids=["non_finite_blocks", "overflowing_mean"])
def test_overflowing_generator_writes_no_game(tmp_path, capsys, flags, code, line):
    out = tmp_path / "game.json"
    assert _one_line_exit(["generate", "--n", "2", *flags, "--out", str(out)], capsys) == (
        code, line)
    assert not out.exists()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 1.46 TiB"),
     "configuration error: Unable to allocate 1.46 TiB"),
    (MemoryError(), "configuration error: MemoryError"),
], ids=["numpy_message", "bare"])
def test_an_allocation_that_fails_is_config_error(tmp_path, capsys, monkeypatch, exc, line):
    # stands in for numpy's failure at --d1 100000: a real allocation that
    # size may be granted and then faulted in
    def generate_game(cfg):
        raise exc

    monkeypatch.setattr("stochvi.cli.exps.generate_game", generate_game)
    out = tmp_path / "game.json"
    assert _one_line_exit(["generate", "--n", "20", "--d1", "100000", "--d2", "1",
                           "--out", str(out)], capsys) == (2, line)
    assert not out.exists()


def test_game_file_whose_mean_overflows_is_numerical_error(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(_game_text(n=2, A=[[1.0], [1.0]], B=[[1.7e308], [1.7e308]],
                               C=[[1.0], [1.0]], a=[[0.0], [0.0]], c=[[0.0], [0.0]]))
    code, line = _one_line_exit(["constants", str(path)], capsys)
    assert (code, line) == (3, "numerical error: the mean Jacobian or offset overflows")


@pytest.mark.parametrize("argv", [
    ["constants", "{game}"],
    ["constants", "{game}", "--scheme", "full"],
    ["run", "--game", "{game}", "--method", "sgda,sco", "--iters", "3", "--out", "{out}"],
    ["verify", "{game}"],
], ids=["constants", "constants_full", "run", "verify"])
def test_game_near_float_max_is_numerical_error(tmp_path, capsys, argv):
    # finite entries up to 1e308: the Gram matrices overflow, so LAPACK's
    # eigvalsh fails, |J|^2 is inf, and every probe margin of the checks is nan
    game, out = tmp_path / "big.json", tmp_path / "o.csv"
    assert main(["generate", "--n", "2", "--d1", "2", "--d2", "2", "--mu-a", "1e300",
                 "--l-a", "1e308", "--mu-c", "1e300", "--l-c", "1e308",
                 "--out", str(game)]) == 0
    capsys.readouterr()
    argv = [a.replace("{game}", str(game)).replace("{out}", str(out)) for a in argv]
    code, line = _one_line_exit(argv, capsys)
    assert code == 3 and line.startswith("numerical error: ")
    assert not out.exists()


def test_unknown_sweep_method_is_named(game_file, tmp_path, capsys):
    err = _config_error_exit(["sweep", "--game", str(game_file), "--methods", "sgda,foo",
                              "--iters", "5", "--out", str(tmp_path / "s.csv")], capsys)
    assert "unknown method 'foo'" in err


# ---------------------------------------------------------------------------
# property test: any drawn argv maps to a documented exit code
# ---------------------------------------------------------------------------

_EDGE = ("0", "-1", "nan", "inf", "")


@st.composite
def _or_edge(draw, valid):
    """A value of ``valid``, or one time in eight an edge value."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(_EDGE))
    return draw(valid)


def _ints(lo, hi):
    return _or_edge(st.integers(lo, hi).map(str))


def _floats(lo, hi):
    return _or_edge(st.floats(lo, hi).map(repr))


def _choice(items):
    return _or_edge(st.sampled_from(items))


def _joined(items):
    return _or_edge(st.lists(st.sampled_from(items), min_size=1, max_size=3).map(",".join))


@st.composite
def _argv(draw, files):
    """argv for one subcommand, or for one mode of sweep.  Options that bound
    the work (sizes, iterations, seeds, points) are always present; the rest
    may be left out.  Values are attached with "=" so that a negative number
    stays a value."""
    game, out = _choice([files["game"]]), _choice(["out.csv"])
    scheme = {"--scheme": _choice(["single", "full", "minibatch"]), "--b": _ints(1, 4)}
    size = {"--n": _ints(1, 4), "--d1": _ints(1, 2), "--d2": _ints(1, 2)}
    spec = {
        "generate": ([], {**size, "--out": out},
                     {f"--{k}": _floats(0.0, 4.0)
                      for k in ("mu-a", "l-a", "mu-b", "l-b", "mu-c", "l-c")}),
        "constants": ([game], {}, {**scheme, "--epsilon": _floats(0.0, 1.0)}),
        "run": ([], {"--game": game, "--method": _joined(METHODS), "--iters": _ints(0, 50),
                     "--seeds": _ints(1, 3), "--out": out},
                {**scheme, "--schedule": _choice(["theory", "constant", "switching"]),
                 "--alpha": _floats(0.0, 4.0), "--gamma": _floats(0.0, 4.0),
                 "--svg": out, "--dump-iterates": out}),
        "verify": ([game], {"--points": _ints(1, 5), "--envelope-seeds": _ints(1, 3),
                            "--envelope-iters": _ints(0, 50)},
                   {**scheme, "--radius": _floats(0.0, 10.0), "--out": out,
                    "--checks": _joined(("ec", "class", "unbiased", "envelope"))}),
        "sweep --game": ([], {"--game": game, "--iters": _ints(0, 50), "--seeds": _ints(1, 3),
                              "--out": out},
                         {**scheme, "--methods": _joined(METHODS),
                          "--multipliers": _joined(("0.5", "1", "2")), "--svg": out}),
        "sweep --target-kappa": ([], {"--target-kappa": _floats(1.0, 4.0), **size, "--out": out},
                                 scheme),
        "plot": ([], {"--csv": _choice([files["csv"]]), "--svg": out}, {}),
    }
    command = draw(st.sampled_from(sorted(spec)))
    positional, fixed, optional = spec[command]
    argv = [f"--out-dir={files['out_dir']}"]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(_ints(0, 3))}")
    argv += command.split()[:1] + [draw(p) for p in positional]
    for flag, strategy in fixed.items():
        argv.append(f"{flag}={draw(strategy)}")
    for flag, strategy in optional.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(strategy)}")
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_property")
    game, csv = tmp_path / "game.json", tmp_path / "agg.csv"
    assert main(["generate", "--n", "3", "--d1", "1", "--d2", "1", "--out", str(game)]) == 0
    assert main(["run", "--game", str(game), "--method", "sgda", "--iters", "5",
                 "--seeds", "2", "--out", str(csv)]) == 0
    return {"game": str(game), "csv": str(csv), "out_dir": str(tmp_path / "out")}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_maps_to_a_documented_exit_code(cli_files, data):
    argv = data.draw(_argv(cli_files))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            code = 2
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("value", ["5e-324", "1e-320", "1e200", "1e308"])
@pytest.mark.parametrize("command", ["generate", "constants", "run", "verify", "sweep"])
def test_extreme_finite_floats_map_to_documented_exit_codes(tmp_path, command, value):
    game = str(tmp_path / "game.json")
    assert main(["generate", "--n", "3", "--d1", "2", "--d2", "2", "--out", game]) == 0
    out = str(tmp_path / "out.csv")
    argv = {
        "generate": ["generate", "--n", "3", "--d1", "2", "--d2", "2", "--l-a", value,
                     "--out", str(tmp_path / "other.json")],
        "constants": ["constants", game, "--epsilon", value],
        "run": ["run", "--game", game, "--method", "sgda", "--schedule", "constant",
                "--alpha", value, "--iters", "20", "--seeds", "2", "--out", out],
        "verify": ["verify", game, "--radius", value, "--points", "2"],
        "sweep": ["sweep", "--game", game, "--methods", "sgda", "--multipliers", value,
                  "--iters", "20", "--seeds", "2", "--out", out],
    }[command]
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((0, 1, 2, 3) if command == "verify" else (0, 2, 3)), argv
    if (command, value) == ("constants", "1e-320"):
        # the noise term overflows: the argmin is the full batch
        assert code == 0 and "b_star: 3" in stdout.getvalue().splitlines()
    if command == "verify" and float(value) >= 1e200:
        # probes this far out would all land on the equilibrium
        assert code == 2
        assert err.getvalue() == (f"configuration error: radius {float(value)} puts probe "
                                  "distances beyond float range\n")


# ---------------------------------------------------------------------------
# property test: a mutated game file exits 2 exactly when it breaks the schema
# ---------------------------------------------------------------------------

_GAME_AXES = {"A": ("n", "d1", "d1"), "B": ("n", "d1", "d2"), "C": ("n", "d2", "d2"),
              "a": ("n", "d1"), "c": ("n", "d2")}


def _nest_shape(value):
    """Shape of a rectangular nest of lists with JSON numbers at the leaves,
    else None."""
    if type(value) in (int, float):
        return ()
    if not isinstance(value, list):
        return None
    shapes = {_nest_shape(v) for v in value}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value),) + (shapes.pop() if shapes else ())


def _generator_ok(gen):
    names = list(E.GameGenConfig._fields)
    if not isinstance(gen, dict) or sorted(gen) != sorted(names):
        return False
    for name, value in gen.items():
        if name in ("n", "d1", "d2", "seed"):
            if type(value) is not int or value < 0:
                return False
        elif type(value) not in (int, float) or not math.isfinite(value):
            return False
    try:
        E.GameGenConfig(**gen)
    except ConfigError:
        return False
    return True


def _schema_ok(doc):
    """Whether ``doc`` is a game document as read_game documents it."""
    if not isinstance(doc, dict):
        return False
    version = doc.get("format_version")
    if type(version) is not int or version != 1:
        return False
    dims = {key: doc.get(key) for key in ("n", "d1", "d2")}
    if not all(type(v) is int and v >= 1 for v in dims.values()):
        return False
    for key, axes in _GAME_AXES.items():
        shape = [dims[axis] for axis in axes]
        nest = _nest_shape(doc.get(key))
        if nest is None or math.prod(nest) != math.prod(shape):
            return False
        values = np.array(doc[key], dtype=float).reshape(shape)
        if not np.isfinite(values).all():
            return False
        if key in ("A", "C") and any(
            numerics.relative_asymmetry(m) > numerics.SYMMETRY_RTOL for m in values
        ):
            return False
    gen = doc.get("generator")
    if gen is not None and not (_generator_ok(gen)
                                and all(gen[key] == dims[key] for key in dims)):
        return False
    if "seed" not in doc:
        return True
    seed = doc["seed"]
    return seed is None if gen is None else type(seed) is int and seed == gen["seed"]


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def _mutated_game(draw, doc):
    """``doc`` after one to three mutations: a key or entry dropped, a value
    retyped, a list resized, or a number made non-finite or +-1.7e308."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(("drop", "retype", "resize", "non_finite", "huge")))
        if kind == "drop" and len(paths) > 1:
            path = draw(st.sampled_from(paths[1:]))
            del _at(doc, path[:-1])[path[-1]]
        elif kind == "resize" and any(isinstance(_at(doc, p), list) for p in paths):
            path = draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), list)]))
            node = _at(doc, path)
            if node and draw(st.booleans()):
                node.pop(draw(st.integers(0, len(node) - 1)))
            else:
                node.append(copy.deepcopy(node[-1]) if node else 0.5)
        elif kind in ("non_finite", "huge") and any(
            type(_at(doc, p)) in (int, float) for p in paths
        ):
            path = draw(st.sampled_from([p for p in paths if type(_at(doc, p)) in (int, float)]))
            values = ((math.nan, math.inf, -math.inf) if kind == "non_finite"
                      else (1.7e308, -1.7e308))
            doc = _replace(doc, path, draw(st.sampled_from(values)))
        else:
            path = draw(st.sampled_from(paths))
            value = _at(doc, path)
            options = [str(value), True, None, [value], {"value": value}]
            if type(value) is int:
                options.append(float(value))
            doc = _replace(doc, path, copy.deepcopy(draw(st.sampled_from(options))))
    return doc


@pytest.fixture(scope="module")
def valid_game_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("game_doc") / "game.json"
    assert main(["generate", "--n", "2", "--d1", "1", "--d2", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_valid_game_doc_meets_the_schema(valid_game_doc):
    assert _schema_ok(valid_game_doc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_game_file_exits_2_exactly_when_it_breaks_the_schema(
    valid_game_doc, tmp_path_factory, data
):
    doc = data.draw(_mutated_game(valid_game_doc))
    path = tmp_path_factory.getbasetemp() / "mutated_game.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["constants", str(path)])
    assert "Traceback" not in err.getvalue()
    if _schema_ok(doc):
        assert code in (0, 3), doc
    else:
        assert code == 2, doc
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1
