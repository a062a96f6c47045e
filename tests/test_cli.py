import importlib
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cli_help
import golden_reports
import ncfisher
import planted
from ncfisher import cli, conjugate, core_cp, moments, sampling
from ncfisher.cli import run
from ncfisher.conjugate import BasisSpec, solve_family
from ncfisher.model import GeneratorSpec, load_model, two_atom_model
from ncfisher.moments import MAX_WORD_LETTERS
from ncfisher.suite import (
    ALL_CHECK_IDS,
    SuiteContext,
    check_core_identity,
    check_insertion_identity,
)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report


def test_bound_command(capsys):
    code, report = run_json(
        capsys, ["bound", "--alpha", "0.5", "--delta", "0.1"]
    )
    assert code == 0
    assert report["outputs"]["value"] == 25.0
    assert report["command"] == "bound"
    # bound reads no model and no tolerance, so its report names neither
    assert "model_digest" not in report and "tolerance" not in report


def test_moment_alternating_word(capsys):
    code, report = run_json(capsys, ["moment", "--word", "X:0 X:1 X:0 X:1"])
    assert code == 0
    out = report["outputs"]
    lam = math.log(2)
    eta1 = complex(math.cos(lam), math.sin(lam) / 3)
    expected = eta1**2 + abs(eta1) ** 2
    assert out["value"]["re"] == pytest.approx(expected.real, abs=1e-10)
    assert out["value"]["im"] == pytest.approx(expected.imag, abs=1e-10)
    assert out["partition_count"] == 2
    assert out["oracle_diff"] < 1e-10
    assert report["passed"] is True


def test_moment_accepts_partner_letters(capsys):
    code, report = run_json(capsys, ["moment", "--word", "Y:0 X:0 X:0 Y:1"])
    assert code == 0
    assert report["outputs"]["oracle_diff"] < 1e-10


def test_moment_asserts_oracle_agreement(monkeypatch, capsys):
    # past the oracle's 12 letters nothing is asserted
    word = " ".join(["X:0"] * 14)
    code, report = run_json(capsys, ["moment", "--word", word])
    assert (code, report["passed"]) == (0, None)
    assert "oracle_diff" not in report["outputs"]
    monkeypatch.setattr(cli, "brute_force_oracle",
                        lambda m, w: moments.brute_force_oracle(m, w) + 1e-6)
    code, report = run_json(capsys, ["moment", "--word", "X:0 X:1 X:0 X:1"])
    assert (code, report["passed"]) == (1, False)


def test_brownian_rejects_partner_letters(capsys):
    assert run(["brownian", "--word", "Y:0 Y:0"]) == 2


def test_bad_word_token(capsys):
    assert run(["moment", "--word", "Q:0"]) == 2
    assert run(["moment", "--word", "X0"]) == 2


def test_conjugate_default_model(capsys):
    code, report = run_json(
        capsys, ["conjugate", "--grid", "-1,0,1", "--degree", "3"]
    )
    assert code == 0
    out = report["outputs"]
    coeff = {entry["word"]: entry for entry in out["coefficients"]}
    assert coeff["Xg:0"]["re"] == pytest.approx(1.0, abs=1e-8)
    assert out["residual"] < 1e-8
    assert out["phi_star"] == pytest.approx(1.0, abs=1e-8)
    assert out["self_adjoint_defect"] < 1e-8


def test_conjugate_rational_grid(capsys):
    code, report = run_json(
        capsys,
        ["conjugate", "--grid", "-1,-1/2,0,1/2,1", "--degree", "2",
         "--time", "1/2"],
    )
    assert code == 0
    assert report["outputs"]["target_time"] == "1/2"


def test_check_kms(capsys):
    code, report = run_json(capsys, ["check-kms", "--tol", "1e-11"])
    assert code == 0
    gens = report["outputs"]["generators"]
    assert gens[0]["detailed_balance_ok"] is True
    assert report["outputs"]["max_deviation"] < 1e-12


def test_check_kms_is_relative_to_the_mass(tmp_path, capsys):
    # exactly balanced, but |eta(t+i) - eta(-t)| is about 3e-8 at mass 1e8
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0.2, "w": 1e8}]}]}))
    code, report = run_json(capsys, ["check-kms", "--model", str(path)])
    out = report["outputs"]
    assert out["max_deviation"] > 1e-9
    assert out["max_relative_deviation"] < 1e-14
    assert out["generators"][0]["max_relative_deviation"] == pytest.approx(
        out["max_deviation"] / load_model(path).generators[0].v, rel=1e-12)
    assert (code, report["passed"]) == (0, True)


@pytest.mark.parametrize("grid", [",", ""])
def test_check_kms_empty_grid_is_usage_error(capsys, grid):
    assert run(["check-kms", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_fisher_default(capsys):
    code, report = run_json(capsys, ["fisher"])
    assert code == 0
    assert report["outputs"]["phi_star_total"] == pytest.approx(1.0, abs=1e-8)


def test_cramer_rao_command(capsys):
    code, report = run_json(capsys, ["cramer-rao"])
    assert code == 0
    out = report["outputs"]
    assert out["normalized"] is True
    assert out["lhs"] == pytest.approx(1.0, abs=1e-7)
    assert report["passed"] is True


def test_chi_star_command(capsys):
    code, report = run_json(
        capsys,
        ["chi-star", "--tail-cutoff", "2", "--grid", "0", "--degree", "1"],
    )
    assert code == 0
    value = report["outputs"]["value"]
    exact = 0.5 * (math.log(3.0) - 2.0)
    assert value == pytest.approx(exact, abs=1e-12)


def test_chi_star_scales_up_to_the_load_time_bounds(capsys):
    # F c stays a finite double at a cutoff of 1e300; RuntimeWarning is an
    # error
    code, report = run_json(capsys, ["chi-star", "--tail-cutoff", "1e300"])
    assert code == 0
    assert math.isfinite(report["outputs"]["value"])


def test_chi_star_takes_no_eps_flag(capsys):
    # the integral has a closed form, so there is no grid to pass
    with pytest.raises(SystemExit) as exc:
        run(["chi-star", "--eps", "0,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --eps 0,1" in captured.err
    assert "Traceback" not in captured.err


def test_value_flag_without_a_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["conjugate", "--grid"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--grid: expected one argument" in captured.err
    assert "Traceback" not in captured.err


def test_verify_commands_quick(capsys):
    code, report = run_json(
        capsys, ["verify-lemma2", "--count", "10", "--degree", "3"]
    )
    assert code == 0 and report["passed"] is True
    assert report["outputs"]["max_residual"] < 1e-9

    code, report = run_json(
        capsys, ["verify-core", "--count", "10", "--x-degree", "3"]
    )
    assert code == 0 and report["passed"] is True


@pytest.mark.parametrize("command, key", [("verify-core", "x_degree"),
                                          ("verify-lemma2", "degree")])
def test_sampled_checks_default_to_degree_four(capsys, command, key):
    code, report = run_json(capsys, [command, "--count", "1"])
    assert code == 0
    assert report["inputs"][key] == report["outputs"][key] == 4


@pytest.mark.parametrize("command", ["verify-core", "verify-lemma2"])
def test_a_sampled_run_calls_eta_once_per_argument(monkeypatch, capsys,
                                                   command):
    # the run's kernels share one eta table; eta_map takes eta from the
    # generator, once per term of the derivative side, at an argument the
    # kernel of zeta* Q has already met
    eta, eta_map = GeneratorSpec.eta, core_cp.eta_map
    kernel_calls, map_calls = [], []
    calls = kernel_calls

    def counted(g, z):
        calls.append((g.gen_id, z))
        return eta(g, z)

    def counted_map(*args):
        nonlocal calls
        calls = map_calls
        try:
            return eta_map(*args)
        finally:
            calls = kernel_calls

    monkeypatch.setattr(GeneratorSpec, "eta", counted)
    monkeypatch.setattr(core_cp, "eta_map", counted_map)
    code, _ = run_json(capsys, [command])
    assert code == 0
    assert kernel_calls and len(set(kernel_calls)) == len(kernel_calls)
    if command == "verify-core":
        assert map_calls and set(map_calls) <= set(kernel_calls)
    else:
        assert map_calls == []


def test_verify_core_fails_on_eta_at_minus_t(monkeypatch, capsys):
    planted.plant(monkeypatch, "eta_map_at_minus_t")
    code, report = run_json(capsys, ["verify-core", "--count", "10"])
    assert (code, report["passed"]) == (1, False)
    assert report["outputs"]["max_relative_residual"] > 1e-3


def test_verify_core_fails_on_a_short_prefix_read(monkeypatch, capsys):
    code, report = run_json(capsys, ["verify-core", "--count", "10"])
    assert (code, report["passed"]) == (0, True)
    planted.plant(monkeypatch, "short_prefix_read")
    code, report = run_json(capsys, ["verify-core", "--count", "10"])
    assert (code, report["passed"]) == (1, False)
    assert report["outputs"]["max_relative_residual"] > 1e-3


@pytest.mark.parametrize("argv, row", [
    (["check-kms"], "eta_sign"),
    (["moment", "--word", "X:0 X:1 X:0 X:1"], "dropped_kernel_entry"),
    (["conjugate"], "rotated_coefficients"),
    (["cramer-rao"], "scaled_xi"),
    (["covariance"], "pivot_from_time_zero"),
], ids=["check-kms", "moment", "conjugate", "cramer-rao", "covariance"])
def test_tol_check_fails_on_a_planted_defect(monkeypatch, capsys, argv, row):
    code, report = run_json(capsys, argv)
    assert (code, report["passed"]) == (0, True)
    planted.plant(monkeypatch, row)
    code, report = run_json(capsys, argv)
    assert (code, report["passed"]) == (1, False)


def test_verify_commands_match_suite_checks(capsys):
    # at seed 0 the suite's rng(k) is Random(k), and the defaults are the
    # suite's model, count and degree
    ctx = SuiteContext.fresh(0)
    _, report = run_json(capsys, ["verify-lemma2", "--seed", "4"])
    expected = check_insertion_identity(ctx).details["max_residual"]
    assert report["outputs"]["max_residual"] == expected
    _, report = run_json(capsys, ["verify-core", "--seed", "6"])
    expected = check_core_identity(ctx).details["max_residual"]
    assert report["outputs"]["max_residual"] == expected


def test_covariance_command(capsys):
    code, report = run_json(capsys, ["covariance", "--shift", "1/2"])
    assert code == 0
    assert report["outputs"]["residual"] < 1e-8


def test_brownian_command(capsys):
    code, report = run_json(capsys, ["brownian", "--word", "X:0 X:0"])
    assert code == 0
    coeffs = report["outputs"]["coefficients"]
    assert coeffs["0"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert coeffs["1"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert coeffs["1/2"]["re"] == 0.0
    # the expansion is a report: nothing is asserted, no tolerance is read
    assert report["passed"] is None and "tolerance" not in report
    assert sorted(report["outputs"]) == ["coefficients", "word"]


def test_brownian_passes_on_relative_residual(tmp_path, capsys):
    # |state| is 2.7e7 here, within the magnitude bound at mass 0.9
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0.2, "w": 0.7}]}]}))
    word = " ".join(f"Xg:{k % 5}/2" for k in range(96))
    code, report = run_json(capsys, ["brownian", "--model", str(path),
                                     "--order", "0", "--word", word])
    assert (code, report["passed"]) == (0, None)
    assert abs(report["outputs"]["coefficients"]["0"]["re"]) > 1e7


def test_brownian_multi_generator_word(tmp_path, capsys):
    # the word pairs within each generator only: state = eta_a(0) eta_b(0),
    # and its two pairs give c1 = C(2, 1) state
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"generators": [
        {"name": n, "mode": "half",
         "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]} for n in "ab"]}))
    code, report = run_json(capsys, ["brownian", "--model", str(path),
                                     "--word", "Xa:0 Xa:0 Xb:0 Xb:0"])
    assert (code, report["passed"]) == (0, None)
    coeffs = report["outputs"]["coefficients"]
    assert coeffs["0"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert coeffs["1"] == {"re": 2 * coeffs["0"]["re"],
                           "im": 2 * coeffs["0"]["im"]}


def test_brownian_evaluates_the_word_once(monkeypatch, capsys):
    # every coefficient comes from one state value
    evaluated = []

    def counted(model, letters, *args, _original=moments._phi, **kwargs):
        evaluated.append(letters)
        return _original(model, letters, *args, **kwargs)

    monkeypatch.setattr(moments, "_phi", counted)
    code, report = run_json(capsys, ["brownian", "--word",
                                     "X:0 X:1 X:0 X:1/2"])
    assert (code, report["passed"]) == (0, None)
    assert len(evaluated) == 1


def tracial_atom_file(tmp_path, weight):
    """One atom of ``weight`` at 0: the model's mass is ``weight``."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": weight}]}]}))
    return str(path)


@pytest.mark.parametrize("command", ["moment", "brownian"])
def test_word_whose_state_may_overflow_is_refused(tmp_path, monkeypatch,
                                                  capsys, command):
    # 128 letters at mass 1e6: C(64) 1e384 is past the largest double
    path = tracial_atom_file(tmp_path, 1e6)
    evaluated = []
    monkeypatch.setattr(moments, "_phi", lambda *args: evaluated.append(args))
    word = " ".join(["X:0"] * 128)
    assert run([command, "--model", str(path), "--word", word]) == 2
    assert evaluated == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "128 letters" in captured.err and "1000000.0" in captured.err
    assert "JSON" not in captured.err
    # one letter more leaves no pairing: the state is exactly 0
    monkeypatch.undo()
    code, report = run_json(capsys, [command, "--model", str(path),
                                     "--word", word + " X:0"])
    assert code == 0 and report["passed"] is None


def mass_at_log_margin(log_count, h, margin):
    """The mass v at which log_count + h log v is ``margin`` past the log
    of the largest double."""
    return math.exp((math.log(sys.float_info.max) + margin - log_count) / h)


def log_catalan(h):
    return math.log(math.comb(2 * h, h) // (h + 1))


@pytest.mark.parametrize("margin", [-0.05, 0.05])
def test_moment_refusal_sits_at_the_largest_double(tmp_path, capsys, margin):
    # 128 letters at one tracial atom: the bound C(64) v^64 is 0.05 below
    # or above the largest double in logs
    v = mass_at_log_margin(log_catalan(64), 64, margin)
    code = run(["moment", "--model", tracial_atom_file(tmp_path, v),
                "--word", " ".join(["X:0"] * 128)])
    captured = capsys.readouterr()
    if margin < 0:
        assert code == 0
        value = json.loads(captured.out)["outputs"]["value"]["re"]
        assert value == pytest.approx(math.exp(log_catalan(64)) * v**64,
                                      rel=1e-9)
    else:
        assert code == 2
        assert "may reach" in captured.err


def test_brownian_refusal_is_decided_by_the_binomial(tmp_path, capsys):
    # 92 letters, so the printed coefficients reach C(46, min(order, 23))
    # C(46) v^46; C(46, 23) / C(46, 22) = 24/23, and the mass puts the
    # largest double between the two bounds
    log_counts = [log_catalan(46) + math.log(math.comb(46, j))
                  for j in (22, 23)]
    v = mass_at_log_margin(sum(log_counts) / 2, 46, 0.0)
    argv = ["brownian", "--model", tracial_atom_file(tmp_path, v),
            "--word", " ".join(["X:0"] * 92)]
    code, report = run_json(capsys, argv + ["--order", "22"])
    assert (code, report["passed"]) == (0, None)
    assert run(argv + ["--order", "23"]) == 2
    assert "92 letters" in capsys.readouterr().err


def test_brownian_bound_counts_the_largest_printed_binomial(tmp_path,
                                                           capsys):
    # 92 letters at mass 1e6: C(46) 1e276 fits a double, and so does the
    # order-2 coefficient C(46, 2) C(46) 1e276, but C(46, 23) C(46) 1e276
    # does not
    path = tracial_atom_file(tmp_path, 1e6)
    word = " ".join(["X:0"] * 92)
    argv = ["brownian", "--model", str(path), "--word", word]
    code, report = run_json(capsys, argv)
    assert (code, report["passed"]) == (0, None)
    assert run(argv + ["--order", "24"]) == 2
    assert "92 letters" in capsys.readouterr().err


def test_model_file_roundtrip(tmp_path, capsys):
    config = {
        "generators": [
            {"name": "q", "mode": "half",
             "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]}
        ],
        "tolerance": 1e-9,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code, report = run_json(
        capsys, ["moment", "--model", str(path), "--word", "Xq:0 Xq:1"]
    )
    assert code == 0
    lam = math.log(2)
    assert report["outputs"]["value"]["re"] == pytest.approx(
        math.cos(lam), abs=1e-12
    )


def test_unbalanced_model_file_is_config_error(tmp_path):
    config = {
        "generators": [
            {"name": "q", "mode": "full",
             "atoms": [{"x": 0.25, "w": 1.0}, {"x": -0.25, "w": 1.0}]}
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["moment", "--model", str(path), "--word", "Xq:0"]) == 2


def test_missing_model_file(capsys):
    assert run(["moment", "--model", "/nonexistent.json", "--word", "X:0"]) == 2


def test_reports_deterministic_modulo_wall_time(capsys):
    def snap():
        code, report = run_json(
            capsys, ["moment", "--word", "X:0 X:1/2 X:0 X:1/2"]
        )
        assert code == 0
        report.pop("wall_time_s")
        return json.dumps(report, sort_keys=True)

    assert snap() == snap()


def test_conjugate_reports_solver_health(capsys):
    code, report = run_json(capsys, ["conjugate"])
    assert code == 0
    out = report["outputs"]
    assert out["fock_dim"] == 15
    assert out["kept_size"] == 15
    assert out["prune_rounds"] == 1


def test_conjugate_degree_bound_is_usage_error(capsys):
    started = time.perf_counter()
    assert run(["conjugate", "--degree", "9"]) == 2
    assert time.perf_counter() - started < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_brownian_word_over_letter_limit_is_usage_error(monkeypatch, capsys):
    passes = []
    monkeypatch.setattr(moments, "interval_states",
                        lambda *args: passes.append(args))
    word = " ".join(["X:0"] * (MAX_WORD_LETTERS + 1))
    assert run(["brownian", "--word", word]) == 2
    assert passes == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_brownian_long_expansion_is_quick(capsys):
    # 41 coefficients of a 40-letter word, each from one state value
    word = " ".join(f"X:{k}" for k in range(40))
    started = time.perf_counter()
    code, report = run_json(capsys, ["brownian", "--word", word,
                                     "--order", "20"])
    assert time.perf_counter() - started < 5.0
    assert code == 0
    assert len(report["outputs"]["coefficients"]) == 41


def test_linalg_error_is_usage_error(monkeypatch, capsys):
    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(conjugate, "solve_conjugate", unconverged)
    assert run(["conjugate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_overlong_moment_word_is_usage_error(capsys):
    word = " ".join(f"X:{k}" for k in range(MAX_WORD_LETTERS + 1))
    started = time.perf_counter()
    assert run(["moment", "--word", word]) == 2
    assert time.perf_counter() - started < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


HUGE = str(10**320)  # a rational whose double overflows
HALF = 2**1023  # a finite double, but the difference of -HALF and HALF is not


@pytest.mark.parametrize("argv", [
    ["moment", "--word", f"X:0 X:{HUGE}"],
    ["moment", "--word", f"X:-{HALF} X:{HALF}"],
    ["conjugate", "--grid", f"0,{HUGE}"],
    ["conjugate", "--time", HUGE],
    ["covariance", "--shift", HUGE],
], ids=["moment-word", "moment-difference", "conjugate-grid",
        "conjugate-time", "covariance-shift"])
def test_overflowing_time_tag_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "too large for a double" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, model", [
    (["bound", "--alpha", "0.5", "--delta", "1e-200"], None),
    (["cramer-rao"], {"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1e300}]}]}),
], ids=["bound", "cramer-rao"])
def test_overflowing_arithmetic_is_usage_error(tmp_path, capsys, argv, model):
    if model is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        argv = argv + ["--model", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_covariance_phase_bound(capsys):
    # the largest tag the default model takes, then one just past it
    fastest = max(abs(a.x) for a in two_atom_model().generators[0].atoms)
    limit = math.floor(cli.MAX_PHASE_TURNS / fastest)
    code, report = run_json(capsys, ["covariance", "--shift", str(limit)])
    assert code == 0 and report["passed"] is True
    assert run(["covariance", "--shift", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "turns" in captured.err


@pytest.mark.parametrize("argv", [
    ["moment", "--word", "X:0 X:{t}"],
    ["conjugate", "--grid", "0,{t}"],
    ["conjugate", "--grid", "{t},0", "--time", "{t}"],
    ["covariance", "--shift", "-{t}"],
    ["check-kms", "--grid", "0,{t}"],
], ids=["moment-word", "conjugate-grid", "conjugate-time",
        "covariance-shift", "check-kms-grid"])
def test_time_tag_past_the_phase_bound_is_usage_error(capsys, argv):
    fastest = max(abs(a.x) for a in two_atom_model().generators[0].atoms)
    past = str(math.floor(cli.MAX_PHASE_TURNS / fastest) + 1)
    assert run([a.replace("{t}", past) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "turns" in captured.err


@pytest.mark.parametrize("count", [0, -3, cli.MAX_CHECK_COUNT + 1])
@pytest.mark.parametrize("command", ["verify-lemma2", "verify-core"])
def test_check_count_out_of_range_is_usage_error(capsys, command, count):
    started = time.perf_counter()
    assert run([command, "--count", str(count)]) == 2
    assert time.perf_counter() - started < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--count" in captured.err


DEGREE_FLAGS = {"verify-lemma2": ("--degree", cli.MAX_LEMMA2_DEGREE),
                "verify-core": ("--x-degree", cli.MAX_CORE_DEGREE)}


def test_degree_limits_are_the_word_size_limit():
    # p xi q has up to 2d + 1 letters, zeta* Q up to d + 1
    assert 2 * cli.MAX_LEMMA2_DEGREE + 1 <= MAX_WORD_LETTERS
    assert 2 * cli.MAX_LEMMA2_DEGREE + 3 > MAX_WORD_LETTERS
    assert cli.MAX_CORE_DEGREE + 1 == MAX_WORD_LETTERS


@pytest.mark.parametrize("degree", [0, -5, 10**9])
@pytest.mark.parametrize("command", sorted(DEGREE_FLAGS))
def test_check_degree_out_of_range_is_usage_error(capsys, command, degree):
    flag, _ = DEGREE_FLAGS[command]
    started = time.perf_counter()
    assert run([command, "--count", "3", flag, str(degree)]) == 2
    assert time.perf_counter() - started < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and flag in captured.err


@pytest.mark.parametrize("command", sorted(DEGREE_FLAGS))
def test_largest_check_degree_runs(capsys, command):
    flag, top = DEGREE_FLAGS[command]
    code, report = run_json(
        capsys, [command, "--count", "1", "--seed", "1", flag, str(top)])
    # the residuals are absolute, so long words may exceed --tol; a
    # refusal, by the size limits or the overflow bound at this model's
    # mass 1, would be exit 2 with no report
    assert code in (0, 1)
    assert report["outputs"][flag[2:].replace("-", "_")] == top


@pytest.mark.parametrize("argv", [
    ["verify-core", "--x-degree", "250", "--count", "1", "--seed", "6"],
    ["verify-lemma2", "--degree", "127", "--count", "1", "--seed", "4"],
])
def test_check_degree_whose_words_may_overflow_is_refused(tmp_path,
                                                          monkeypatch, capsys,
                                                          argv):
    # one tracial atom of weight 1e6: each draw of these runs has a NaN
    # residual
    path = tracial_atom_file(tmp_path, 1e6)

    def drawn(*args):
        raise AssertionError("drew an input")

    monkeypatch.setattr(sampling, "core_residual", drawn)
    monkeypatch.setattr(sampling, "insertion_residual", drawn)
    assert run([*argv, "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"{argv[1]} {argv[2]} " in captured.err
    assert "mass 1000000.0" in captured.err


def test_cramer_rao_compares_against_its_tolerance(capsys):
    code, report = run_json(capsys, ["cramer-rao"])
    assert code == 0 and report["passed"] is True
    assert report["tolerance"] == report["inputs"]["tol"] == 1e-7
    code, report = run_json(capsys, ["cramer-rao", "--tol", "0"])
    assert code == 1 and report["passed"] is False
    # the other commands keep their own default; fisher reads none
    _, report = run_json(capsys, ["covariance"])
    assert report["tolerance"] == 1e-9
    _, report = run_json(capsys, ["fisher"])
    assert "tolerance" not in report and "tol" not in report["inputs"]


def run_verdict(capsys, argv):
    """Exit code, report and stderr of ``argv``."""
    code = run(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


#: the seven commands judged against --tol, at their defaults; each maps
#: its outputs to the relative residual they state, where they state it
TOL_COMMANDS = {
    "check-kms": (["check-kms"], lambda out: out["max_relative_deviation"]),
    "moment": (["moment", "--word", "X:0 X:1 X:0 X:1"], None),
    "conjugate": (["conjugate"], lambda out: out["self_adjoint_defect"]
                  / max(1.0, math.sqrt(out["xi_norm_sq"]))),
    "cramer-rao": (["cramer-rao"],
                   lambda out: abs(out["lhs"] - out["rhs"]) / out["rhs"]),
    "verify-lemma2": (["verify-lemma2"],
                      lambda out: out["max_relative_residual"]),
    "verify-core": (["verify-core"], lambda out: out["max_relative_residual"]),
    "covariance": (["covariance"], None),
}


def test_tol_table_covers_every_command_that_reads_tol():
    assert set(TOL_COMMANDS) == {c for c, flags in READS.items()
                                 if "--tol" in flags}


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_passed_is_the_relative_residual_below_the_tolerance(capsys,
                                                             command):
    argv, stated = TOL_COMMANDS[command]
    code, report, err = run_verdict(capsys, argv)
    relative, tol = report["relative_residual"], report["tolerance"]
    assert report["passed"] is (relative < tol) is True and code == 0
    if stated is not None:
        assert relative == stated(report["outputs"])
    assert err == (f"[{command}] ok: relative residual {relative:.2g} "
                   f"< tol {tol}\n")


def test_a_failed_verdict_names_its_residual_on_stderr(capsys):
    # moment passes on relative < tol, so an exact 0 fails --tol 0
    code, report, err = run_verdict(capsys,
                                    ["moment", "--word", "X:0 X:0",
                                     "--tol", "0"])
    assert (code, report["passed"]) == (1, False)
    assert report["outputs"]["oracle_diff"] == report["relative_residual"] == 0
    assert err == "[moment] FAIL: relative residual 0 >= tol 0.0\n"


def test_no_relative_residual_where_nothing_is_judged(tmp_path, capsys):
    # moment past the oracle's 12 letters, and cramer-rao off unit mass
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(two_atom_model().scaled(4).config_dict()))
    for argv in (["moment", "--word", " ".join(["X:0"] * 13)],
                 ["cramer-rao", "--model", str(path)]):
        code, report, err = run_verdict(capsys, argv)
        assert (code, report["passed"]) == (0, None)
        assert "tolerance" in report and "relative_residual" not in report
        assert err == f"[{argv[0]}] ok\n"
    # and the commands without --tol
    for argv in (["fisher"], ["chi-star"], ["brownian", "--word", "X:0 X:0"],
                 ["bound", "--alpha", "0.5", "--delta", "0.1"], ["suite"]):
        code, report, err = run_verdict(capsys, argv)
        assert code == 0 and report["passed"] in (True, None)
        assert "relative_residual" not in report
        assert err == f"[{argv[0]}] ok\n"


def half_mode_atom_file(tmp_path, weight):
    """One half-mode atom of ``weight`` at ln2/(2 pi): mass 1.5 weight."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": "ln2/(2pi)", "w": weight}]}]}))
    return str(path)


@pytest.mark.parametrize("command, weight, absolute", [
    # measured: relative 8.5e-15 (self_adjoint_defect 1.0e-9), 8.3e-14
    # (1.0e-6) and 6.6e-16 (residual 8.0e-9)
    ("conjugate", 1e10, "self_adjoint_defect"),
    ("conjugate", 1e14, "self_adjoint_defect"),
    ("covariance", 1e14, "residual"),
])
def test_a_correct_solve_at_large_mass_passes(tmp_path, capsys, command,
                                              weight, absolute):
    # the defect and the covariance distance are judged over |xi|, so
    # rounding at the model's scale does not fail the solve
    code, report, _ = run_verdict(
        capsys, [command, "--model", half_mode_atom_file(tmp_path, weight)])
    assert (code, report["passed"]) == (0, True)
    relative = report["relative_residual"]
    assert relative < 1e-12
    assert relative == pytest.approx(
        report["outputs"][absolute] / math.sqrt(1.5 * weight), rel=1e-6)


def test_solver_residual_is_reported_over_the_rhs(tmp_path, capsys):
    # a correct degree-3 solve at weight 1e6: its residual 0.096 is
    # rounding, 2.6e-15 of |b|
    path = half_mode_atom_file(tmp_path, 1e6)
    code, report, _ = run_verdict(capsys, ["conjugate", "--model", path])
    out = report["outputs"]
    assert code == 0 and out["residual"] > 0.01
    sol = conjugate.solve_conjugate(load_model(path), "g", BasisSpec(
        tuple(Fraction(k, 2) for k in range(-2, 3)), 3))
    assert out["residual_over_rhs"] == sol.residual / np.linalg.norm(sol.rhs)
    assert out["residual_over_rhs"] < 1e-14


@pytest.mark.parametrize("name", ["__init__", *sorted(
    info.name for info in pkgutil.iter_modules(ncfisher.__path__))])
def test_module_exports_exist(name):
    # ``__init__`` stands for the package itself
    module = importlib.import_module(
        "ncfisher" if name == "__init__" else f"ncfisher.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def without_wall_time(text):
    report = json.loads(text)
    report.pop("wall_time_s")
    return report


HELP_SNAPSHOT = json.loads(cli_help.SNAPSHOT.read_text())


@pytest.mark.parametrize("command", sorted(HELP_SNAPSHOT["help"]))
def test_parser_matches_its_snapshot(command):
    # "" is the top-level parser, which has no arguments entry
    now = cli_help.snapshot(cli)
    assert now["help"][command] == HELP_SNAPSHOT["help"][command]
    assert (now["arguments"].get(command)
            == HELP_SNAPSHOT["arguments"].get(command))
    assert set(cli._VALUE_FLAGS) == set(HELP_SNAPSHOT["value_flags"])


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    argvs = [["moment", "--word", "X:0 X:1/2"],
             ["bound", "--alpha", "0.25", "--delta", "0.5"]]
    reports = []
    for argv in argvs:
        assert run(argv) == 0
        reports.append(without_wall_time(capsys.readouterr().out))
    cli._parser.cache_clear()
    assert len(built) == 1
    for argv, report in zip(argvs, reports):
        proc = run_module(argv)
        assert proc.returncode == 0, proc.stderr
        assert without_wall_time(proc.stdout) == report


def pair_model_file(tmp_path):
    config = {
        "generators": [
            {"name": n, "mode": "half",
             "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]}
            for n in ("1", "2")
        ]
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_fisher_total_sums_per_generator(tmp_path, capsys):
    path = pair_model_file(tmp_path)
    code, report = run_json(capsys, ["fisher", "--model", path])
    assert code == 0
    out = report["outputs"]
    assert list(out["per_gen"]) == ["1", "2"]
    assert out["phi_star_total"] == out["per_gen"]["1"] + out["per_gen"]["2"]
    assert out["phi_star_total"] == pytest.approx(2.0, abs=1e-8)


def test_fisher_reports_solver_health(tmp_path, capsys):
    path = pair_model_file(tmp_path)
    code, report = run_json(capsys, ["fisher", "--model", path])
    assert code == 0
    out = report["outputs"]
    assert set(out) == {"gens", "per_gen", "phi_star_total", "solver"}
    sols = solve_family(load_model(path), ["1", "2"],
                        BasisSpec((Fraction(-1, 2), Fraction(0),
                                   Fraction(1, 2)), 2))
    for g, sol in zip(["1", "2"], sols):
        assert out["per_gen"][g] == sol.phi_star
        assert out["solver"][g] == {
            "basis_size": len(sol.basis_words),
            "kept_size": len(sol.kept),
            "prune_rounds": sol.prune_rounds,
            "fock_dim": sol.fock_dim,
            "gram_condition": sol.gram_condition,
            "residual": sol.residual,
            "residual_over_rhs": sol.residual / np.linalg.norm(sol.rhs),
        }
    assert out["solver"]["1"]["basis_size"] == 43
    assert out["solver"]["1"]["fock_dim"] == 21


def test_cramer_rao_reports_solver_health(tmp_path, capsys):
    path = pair_model_file(tmp_path)
    code, report = run_json(capsys, ["cramer-rao", "--model", path])
    assert code == 0
    out = report["outputs"]
    assert set(out) == {"n", "lhs", "rhs", "ratio", "second_moment",
                        "phi_star_tuple", "normalized", "asserted", "note",
                        "solver"}
    sols = solve_family(load_model(path), ["1", "2"],
                        BasisSpec((Fraction(-1, 2), Fraction(0),
                                   Fraction(1, 2)), 2))
    assert list(out["solver"]) == ["1", "2"]
    for g, sol in zip(["1", "2"], sols):
        assert out["solver"][g] == cli._solver_health(g, sol)
    assert out["solver"]["1"]["basis_size"] == 43
    assert out["solver"]["1"]["fock_dim"] == 21


@pytest.mark.parametrize("command", ["fisher", "cramer-rao"])
def test_a_zero_right_hand_side_is_refused_by_name(tmp_path, monkeypatch,
                                                   capsys, command):
    # a family basis over the first generator's letters alone leaves the
    # second one's partner no word to pair with, so its b is exactly 0
    path = pair_model_file(tmp_path)
    planted.plant(monkeypatch, "ignored_b_gens")
    assert run([command, "--model", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: generator '2' has a zero right-hand side: no basis word "
        "pairs with its partner letter\n")


@pytest.mark.parametrize("command", ["fisher", "cramer-rao", "chi-star"])
def test_repeated_generator_ids_are_usage_errors(tmp_path, capsys, command):
    path = pair_model_file(tmp_path)
    assert run([command, "--model", path, "--gens", "1,2,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "repeat" in captured.err
    assert run([command, "--gens", "g,g"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fisher", "cramer-rao", "chi-star"])
def test_gens_skips_empty_tokens(tmp_path, capsys, command):
    # as --b-gens and --grid do
    for model, gen in ([], "g"), (["--model", pair_model_file(tmp_path)], "1"):
        _, want = run_json(capsys, [command, *model, "--gens", gen])
        code, got = run_json(capsys, [command, *model, "--gens", gen + ","])
        assert code == 0 and got["outputs"] == want["outputs"]


@pytest.mark.parametrize("text", [
    '{"generators": [{"name": "q", "mode": "half",'
    ' "atoms": [{"x": NaN, "w": 1}]}]}',
    '{"generators": [{"name": "q", "mode": "half",'
    ' "atoms": [{"x": 0.1, "w": Infinity}]}]}',
    '{"generators": [{"name": "q", "mode": "full",'
    ' "atoms": [{"x": -Infinity, "w": 1}]}]}',
    '{"generators": [{"name": "q", "mode": "half",'
    ' "atoms": [{"x": 0, "w": 1}]}], "tolerance": Infinity}',
])
def test_non_finite_model_numbers_rejected(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert run(["moment", "--model", str(path), "--word", "Xq:0 Xq:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_non_finite_output_is_usage_error(monkeypatch, capsys):
    # the strict-JSON guard is the last line of defence: an output that is
    # not finite, which no input check caught, still exits 2
    monkeypatch.setattr(core_cp, "factoriality_bound", lambda *args: math.inf)
    assert run(["bound", "--alpha", "0.5", "--delta", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Out of range float values")
    assert "Traceback" not in captured.err


def heavy_model(tmp_path):
    """One half-mode atom of weight 1e100 at ln2/(2 pi)."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": "ln2/(2pi)", "w": 1e100}]}]}))
    return path


@pytest.mark.parametrize("command", ["conjugate", "fisher", "cramer-rao",
                                     "chi-star", "covariance"])
def test_solves_whose_squares_may_overflow_are_refused(tmp_path, capsys,
                                                       monkeypatch, command):
    # at degree 3 the squared rhs entries reach about v^4 = 5e401
    def fock_vectors(*args):
        raise AssertionError("the solve ran")

    path = heavy_model(tmp_path)
    monkeypatch.setattr(conjugate, "fock_vectors", fock_vectors)
    assert run([command, "--degree", "3", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    mass = load_model(path).gen("g").v
    assert len(errors) == 1, captured.err
    assert f"degree 3 at mass {mass!r}" in errors[0]
    assert "JSON compliant" not in captured.err


def test_heavy_solve_at_a_lower_degree_runs(tmp_path, capsys):
    code, report = run_json(
        capsys, ["fisher", "--degree", "2", "--model",
                 str(heavy_model(tmp_path))])
    assert code == 0
    assert report["outputs"]["phi_star_total"] == pytest.approx(1.0)


@pytest.mark.parametrize("argv, model, named", [
    (["conjugate"], [{"x": 0, "w": 1e300}], "atom at x=0.0: weight"),
    (["conjugate"], [{"x": 0, "w": 1e-320}], "atom at x=0.0: weight"),
    (["fisher"], [{"x": 0, "w": 1e300}], "atom at x=0.0: weight"),
    (["conjugate"], [{"x": 1e300, "w": 1}], "atom at x=1e+300: frequency"),
    (["chi-star", "--tail-cutoff", "inf"], None, "--tail-cutoff"),
    (["chi-star", "--tail-cutoff", "nan"], None, "--tail-cutoff"),
    (["chi-star", "--tail-cutoff", "-1"], None, "tail cutoff"),
    # F = 2 on two generators, so F times the cutoff is past a double
    (["chi-star", "--tail-cutoff", "1e308"], [{"x": 0, "w": 1}] * 2,
     "tail cutoff 1e+308"),
    (["bound", "--alpha", "0.5", "--delta", "inf"], None, "--delta"),
    (["bound", "--alpha", "nan", "--delta", "1"], None, "--alpha"),
    (["check-kms", "--grid", "0,nan"], None, "--grid"),
    (["moment", "--word", "X:0 X:0", "--tol", "inf"], None, "--tol"),
    (["verify-core", "--tol", "nan"], None, "--tol"),
    (["conjugate", "--time", "abc"], None, "bad time 'abc' in --time"),
    (["conjugate", "--grid", "1/0,0"], None, "bad time '1/0' in --grid"),
    (["check-kms", "--grid", "a,b"], None, "bad number list 'a,b'"),
    (["brownian", "--word", ""], None, "non-empty word"),
    (["conjugate"], [{"x": 0, "w": 1}] * 2, "several generators"),
    (["fisher", "--gens", ","], None, "--gens ',' names no generator"),
    (["chi-star", "--gens", " , "], None, "names no generator"),
    # a model file as raw text
    (["check-kms"], "[]", "must be a JSON object"),
    (["check-kms"], '{"generators": [1]}', "entry must be an object"),
    (["check-kms"], '{"generators": [{"name": 1, "mode": "half", '
     '"atoms": [{"x": 0, "w": 1}]}]}', "name must be a non-empty string"),
    (["check-kms"], '{"generators": [{"name": "q", "mode": "half", '
     '"atoms": [{"x": 0}]}]}', "atoms need x and w fields"),
    (["check-kms"], '{"generators": [{"name": "q", "mode": "half", '
     '"atoms": [{"x": 0, "w": "1"}]}]}', "weight must be a finite number"),
    (["check-kms"], '{"generators": [', "invalid JSON"),
], ids=["conjugate-weight-1e300", "conjugate-weight-1e-320",
        "fisher-weight-1e300", "conjugate-x-1e300", "tail-cutoff-inf",
        "tail-cutoff-nan", "tail-cutoff-negative", "tail-cutoff-1e308",
        "delta-inf", "alpha-nan", "kms-grid-nan", "tol-inf", "tol-nan",
        "time-not-a-number", "grid-zero-denominator", "kms-grid-not-numbers",
        "brownian-empty-word", "conjugate-no-target", "fisher-gens-empty",
        "chi-star-gens-empty", "config-not-an-object",
        "generator-not-an-object", "name-not-a-string", "atom-without-w",
        "weight-a-string", "invalid-json"])
def test_bad_inputs_are_refused_before_the_json_guard(tmp_path, capsys, argv,
                                                      model, named):
    # model: a list of atoms, one generator of one atom each, or the model
    # file's raw text
    if model is not None:
        path = tmp_path / "model.json"
        path.write_text(model if isinstance(model, str) else json.dumps(
            {"generators": [{"name": f"g{i}", "mode": "half", "atoms": [atom]}
                            for i, atom in enumerate(model)]}))
        argv = argv + ["--model", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and named in errors[0], captured.err
    assert "JSON compliant" not in captured.err
    assert "Traceback" not in captured.err


def run_module(argv, stdout=subprocess.PIPE):
    """``python -m ncfisher`` with ``argv`` in a fresh process, its stdout
    on ``stdout``."""
    src = str(Path(ncfisher.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "ncfisher", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60)


def test_python_dash_m_entry_point():
    proc = run_module(["bound", "--alpha", "0.5", "--delta", "0.1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["value"] == 25.0


def assert_one_error_line(proc):
    # the report could not be written: a usage-level failure, exit 2,
    # told in one line, and no traceback at the interpreter's exit either
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_a_report_written_to_a_closed_pipe_exits_2():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(["moment", "--word", "X:0 X:1"], stdout=write)
    finally:
        os.close(write)
    assert_one_error_line(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_a_report_written_to_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = run_module(["moment", "--word", "X:0 X:1"], stdout=full)
    assert_one_error_line(proc)


class Unwritable(io.TextIOBase):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv, code", [
    (["cramer-rao"], 0),
    (["cramer-rao", "--tol", "0"], 1),
    (["moment", "--word", "X:0 Q:1"], 2),
])
def test_a_status_line_stderr_cannot_take_keeps_the_exit_code(
        monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "stderr", Unwritable())
    assert run(argv) == code
    out = capsys.readouterr().out
    if code == 2:
        assert out == ""
    else:
        assert json.loads(out)["passed"] is (code == 0)


def test_long_words_pass_on_the_relative_residual(capsys):
    # p xi q of 56 letters with a state value near 9e11: the absolute
    # residual is rounding far above --tol, the relative one is not
    code, report = run_json(capsys, ["verify-lemma2", "--count", "1",
                                     "--degree", "127", "--seed", "2"])
    out = report["outputs"]
    assert code == 0 and report["passed"] is True
    assert out["max_residual"] > report["tolerance"]
    assert out["max_relative_residual"] < 1e-15


@pytest.mark.parametrize("command", sorted(DEGREE_FLAGS))
def test_relative_residual_is_at_most_the_absolute(capsys, command):
    flag, _ = DEGREE_FLAGS[command]
    code, report = run_json(capsys, [command, "--count", "20", flag, "6"])
    out = report["outputs"]
    assert code == 0
    assert 0 <= out["max_relative_residual"] <= out["max_residual"] < 1e-9


DRAW_WORK = {"verify-lemma2": cli.lemma2_draw_work,
             "verify-core": cli.core_draw_work}

#: draws admitted at the largest degree: a verify-core draw is one cubic
#: pass, a verify-lemma2 draw one per word
TOP_DRAWS = {"verify-lemma2": 1, "verify-core": 128}


@pytest.mark.parametrize("command", sorted(DEGREE_FLAGS))
def test_check_work_budget(command):
    _, top = DEGREE_FLAGS[command]
    work = DRAW_WORK[command]
    draws = TOP_DRAWS[command]
    assert draws * work(top) <= cli.MAX_CHECK_WORK < (draws + 1) * work(top)
    # the defaults and the benchmark's runs (count 100, degree 4 to 6)
    # stay far inside
    assert 100 * work(6) * 1000 < cli.MAX_CHECK_WORK


@pytest.mark.parametrize("command", sorted(DEGREE_FLAGS))
@pytest.mark.parametrize("count", [2, cli.MAX_CHECK_COUNT])
def test_check_work_over_budget_is_usage_error(capsys, command, count):
    flag, top = DEGREE_FLAGS[command]
    # past the draws admitted at the largest degree
    count = max(count, TOP_DRAWS[command] + 1)
    started = time.perf_counter()
    assert run([command, "--count", str(count), flag, str(top)]) == 2
    assert time.perf_counter() - started < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "work" in captured.err


def test_suite_report_times_each_check_outside_outputs(capsys):
    code, first = run_json(capsys, ["suite"])
    _, second = run_json(capsys, ["suite"])
    assert code == 0
    assert sorted(first["timings"]) == sorted(ALL_CHECK_IDS)
    assert all(s >= 0 for s in first["timings"].values())
    assert "timings" not in json.dumps(first["outputs"])
    assert json.dumps(first["outputs"]) == json.dumps(second["outputs"])


#: the common flags each command reads
READS = {
    "check-kms": {"--model", "--tol"},
    "moment": {"--model", "--tol"},
    "conjugate": {"--model", "--tol"},
    "fisher": {"--model"},
    "cramer-rao": {"--model", "--tol"},
    "chi-star": {"--model"},
    "verify-lemma2": {"--model", "--tol", "--seed"},
    "verify-core": {"--model", "--tol", "--seed"},
    "brownian": {"--model"},
    "bound": set(),
    "covariance": {"--model", "--tol"},
    "suite": {"--seed"},
}
REQUIRED = {"moment": ["--word", "X:0 X:1"], "brownian": ["--word", "X:0 X:1"],
            "bound": ["--alpha", "0.5", "--delta", "0.1"]}
#: flag -> (command-line text, parsed value)
COMMON = {"--model": ("model.json", "model.json"), "--tol": ("1", 1.0),
          "--seed": ("1", 1)}


def test_flag_table_covers_every_command():
    assert set(READS) == set(cli._HANDLERS)


@pytest.mark.parametrize("flag", sorted(COMMON))
@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_commands_take_only_the_common_flags_they_read(capsys, command,
                                                       flag):
    text, value = COMMON[flag]
    argv = [command, *REQUIRED.get(command, ()), flag, text]
    if flag in READS[command]:
        args = cli.build_parser().parse_args(argv)
        assert vars(args)[flag[2:]] == value
        return
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ncfisher")
    assert f"unrecognized arguments: {flag} {text}" in captured.err


def readme_commands():
    """Every ``ncfisher`` line of the README's ``sh`` blocks, as argv
    without the program name and without comments."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(),
                        re.M | re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines()
            if line.startswith("ncfisher ")]


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_run(capsys, argv):
    assert run(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=reject_constant)


def test_readme_examples_are_the_first_golden_argvs():
    # so the golden file pins each example's report byte for byte
    assert readme_commands() == golden_reports.ARGVS[:5]
