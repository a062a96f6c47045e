"""Acceptance battery: one test per exit criterion, shared with the CLI
``suite`` subcommand.  Each test prints its own pass/fail line."""

import dataclasses
import json
from fractions import Fraction

import pytest

from ncfisher import cli, conjugate, derivation, moments, suite
from ncfisher.algebra import X_FAMILY, NcPoly, _accumulate, y
from ncfisher.suite import ALL_CHECK_IDS, run_suite
from test_cli import (plant_eta_map_at_minus_t, plant_eta_sign,
                      plant_short_prefix_read)


@pytest.fixture(scope="module")
def results():
    return {r.cid: r for r in run_suite(seed=0)}


@pytest.mark.parametrize("cid", ALL_CHECK_IDS)
def test_criterion(results, cid):
    r = results[cid]
    print(f"{'PASS' if r.passed else 'FAIL'} {cid}: {r.description}")
    if r.asserted:
        assert r.passed, r.details


def test_every_criterion_has_a_check(results):
    assert set(results) == set(ALL_CHECK_IDS)
    assert len(ALL_CHECK_IDS) == 11


def test_suite_deterministic_across_workers():
    first = run_suite(seed=0)
    second = run_suite(seed=0)
    assert [r.cid for r in first] == ALL_CHECK_IDS
    for a, b in zip(first, second):
        assert a.cid == b.cid
        assert a.passed == b.passed
        assert a.details == b.details


def test_covariance_check_solves_each_problem_once(monkeypatch):
    # the unshifted problem, the ten shifted ones and the two larger
    # adjoint solves, each once
    solve = conjugate.solve_conjugate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conjugate, "solve_conjugate", counted)
    monkeypatch.setattr(suite, "solve_conjugate", counted)
    result = suite.check_covariance_selfadjoint(suite.SuiteContext.fresh(1))
    assert result.passed
    assert len(calls) == 13


def test_a_suite_run_solves_each_unshifted_problem_once(monkeypatch):
    # 24 solves without sharing: quasi_free_conjugate's two half-grid
    # problems come back in covariance_selfadjoint, the two-atom one also
    # as the last rung of galerkin_monotonicity, and
    # covariance_selfadjoint's unshifted problem as the ladder's third rung
    solve = conjugate._solve
    runs = []

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        runs[-1].append(out)
        return out

    monkeypatch.setattr(conjugate, "_solve", counted)
    for seed in (0, 0, 1):
        runs.append([])
        results = run_suite(seed)
        assert all(r.passed for r in results)
        assert len(runs[-1]) == 20
    # the memo lives on the run's context: no solution outlives its run
    ids = [{id(sol) for out in run for sol in out} for run in runs]
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


def test_suite_prunes_confirm_the_guess_in_one_round(monkeypatch):
    prune = conjugate._prune_independent
    rounds = []

    def counted(vecs, guess):
        out = prune(vecs, guess)
        rounds.append(out[3])
        return out

    monkeypatch.setattr(conjugate, "_prune_independent", counted)
    run_suite(seed=0)
    assert rounds and set(rounds) == {1}


def test_brownian_check_fails_on_eta_at_minus_t(monkeypatch):
    # a kernel that evaluates eta(-t) for eta(t): every time negated
    word_kernel = moments.word_kernel

    def planted(m, letters, offsets=None, *args, **kwargs):
        letters = tuple(l._replace(time=-l.time) for l in letters)
        if offsets is not None:
            offsets = [-o for o in offsets]
        return word_kernel(m, letters, offsets, *args, **kwargs)

    monkeypatch.setattr(moments, "word_kernel", planted)
    brownian = {r.cid: r for r in run_suite(seed=0)}["brownian"]
    assert brownian.asserted and not brownian.passed


def nan_on_four_letters(evaluate):
    """``evaluate`` with every state of a 4-letter word planted NaN."""
    return lambda m, w, *rest, **kwargs: (
        complex("nan") if len(w) == 4 else evaluate(m, w, *rest, **kwargs))


def test_wick_oracle_check_refuses_nan_states(monkeypatch):
    # max(worst, nan) kept the worst so far: this check used to pass
    monkeypatch.setattr(suite, "evaluate_state",
                        nan_on_four_letters(suite.evaluate_state))
    with pytest.raises(ArithmeticError, match="oracle difference is nan"):
        suite.check_wick_oracle(suite.SuiteContext.fresh(0))


def test_kms_check_refuses_nan_states(monkeypatch):
    monkeypatch.setattr(suite, "evaluate_state_shifted",
                        nan_on_four_letters(suite.evaluate_state_shifted))
    with pytest.raises(ArithmeticError, match="two-word deviation is nan"):
        suite.check_kms(suite.SuiteContext.fresh(0))


def test_covariance_check_refuses_nan_distances(monkeypatch, capsys):
    # max(worst, nan) kept the worst so far: the check reported 0.0 and
    # passed
    monkeypatch.setattr(suite, "covariance_distance",
                        lambda *args: float("nan"))
    assert cli.run(["suite", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "covariance distance is nan" in captured.err


def test_cramer_rao_check_fails_on_a_scaled_norm(monkeypatch):
    # xi_norm_sq off by 1e-6 puts n1.lhs past the check's 1e-7 tolerance
    solve = conjugate._solve

    def planted(*args, **kwargs):
        return [dataclasses.replace(s, xi_norm_sq=s.xi_norm_sq * (1 + 1e-6))
                for s in solve(*args, **kwargs)]

    ctx = suite.SuiteContext.fresh(0)
    assert suite.check_cramer_rao(ctx).passed
    monkeypatch.setattr(conjugate, "_solve", planted)
    result = suite.check_cramer_rao(ctx)
    assert result.asserted and not result.passed
    assert result.details["n1"]["lhs"] == pytest.approx(1.000001, abs=1e-9)


def plant_scaled_z(monkeypatch):
    # the reduced solution z, and so every coefficient, off by 1 + 1e-6
    solve = suite.solve_conjugate

    def planted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, z=sol.z * (1 + 1e-6))

    monkeypatch.setattr(suite, "solve_conjugate", planted)


def plant_dropped_first_kernel_entry(monkeypatch):
    # the interval pass without the first letter's first kernel entry
    word_kernel = moments.word_kernel

    def planted(*args, **kwargs):
        rows = word_kernel(*args, **kwargs)
        if rows:
            rows[0] = rows[0][1:]
        return rows

    monkeypatch.setattr(moments, "word_kernel", planted)


def plant_ignored_b_gens(monkeypatch):
    # a basis over the target's letters alone, whatever b_gens asks for
    enumerate_basis = conjugate.enumerate_basis

    def planted(m, target_gen, spec, b_gens=(), target_time=0):
        return enumerate_basis(m, target_gen, spec, (), target_time)

    monkeypatch.setattr(conjugate, "enumerate_basis", planted)


def plant_all_generator_rhs(monkeypatch):
    # the partner paired with the letters of every generator, as if each
    # letter were one of the target's
    rhs = conjugate._rhs

    def planted(m, target_gen, alphabet, *args):
        return rhs(m, target_gen, [l._replace(gen=target_gen)
                                   for l in alphabet], *args)

    monkeypatch.setattr(conjugate, "_rhs", planted)


@pytest.mark.parametrize("cid, plant, off", [
    # measured at seed 0: coeff_on_target 1.000001, max_oracle_diff 3.42,
    # strip deviation 1.50 and two-word deviation 2.52
    ("quasi_free_conjugate", plant_scaled_z,
     lambda d: d["two_atom"]["coeff_on_target"][0] - 1 > 9e-7),
    ("wick_oracle", plant_dropped_first_kernel_entry,
     lambda d: d["max_oracle_diff"] > 1),
    ("kms", plant_eta_sign,
     lambda d: d["max_eta_strip_deviation"] > 1
     and d["max_two_word_deviation"] > 1),
    # measured at seed 0: max_residual 0.85 and 2.0
    ("core_identity", plant_eta_map_at_minus_t,
     lambda d: d["max_residual"] > 0.5),
    ("core_identity", plant_short_prefix_read,
     lambda d: d["max_residual"] > 0.5),
    # measured at seed 0: 13 basis words with and without the partner
    # generator's letters, and xi_distance 1.0
    ("freeness_invariance", plant_ignored_b_gens,
     lambda d: d["basis_enlarged"] == d["basis_alone"] == 13),
    ("freeness_invariance", plant_all_generator_rhs,
     lambda d: d["xi_distance"] > 0.5),
])
def test_check_fails_on_a_planted_defect(monkeypatch, capsys, cid, plant,
                                         off):
    check = getattr(suite, f"check_{cid}")
    assert check(suite.SuiteContext.fresh(0)).passed
    plant(monkeypatch)
    result = check(suite.SuiteContext.fresh(0))
    assert result.asserted and not result.passed
    assert off(result.details), result.details
    assert cli.run(["suite", "--seed", "0"]) == 1
    checks = json.loads(capsys.readouterr().out)["outputs"]["checks"]
    # a strict JSON false: a numpy bool used to print as "False"
    assert cid in [c["id"] for c in checks if c["passed"] is False]


@pytest.mark.parametrize("seed", range(4))
def test_core_identity_fails_on_eta_map_at_minus_t(monkeypatch, seed):
    # measured: max_residual 0.85 to 1.31 at seeds 0 to 3
    ctx = suite.SuiteContext.fresh(seed)
    assert suite.check_core_identity(ctx).passed
    plant_eta_map_at_minus_t(monkeypatch)
    result = suite.check_core_identity(ctx)
    assert result.passed is False
    assert result.details["max_residual"] > 0.5


def plant_dropped_occurrence(monkeypatch):
    # a Leibniz rule that skips the last occurrence of the generator
    def planted(gen_id, p):
        out = {}
        for w, c in p._terms.items():
            at = [k for k, l in enumerate(w)
                  if l.family == X_FAMILY and l.gen == gen_id]
            for k in at[:-1]:
                _accumulate(out, w[:k] + (y(gen_id, w[k].time),) + w[k + 1:],
                            c)
        return NcPoly._raw(out)

    monkeypatch.setattr(derivation, "differentiate", planted)


def plant_unshifted_rhs(monkeypatch):
    # a solution not shifted with its target: the partner paired at time 0
    # whatever the target time, so a shifted solve projects X_0 onto the
    # shifted basis
    rhs = conjugate._rhs

    def planted(m, target_gen, alphabet, phi, t0):
        return rhs(m, target_gen, alphabet, phi, Fraction(0))

    monkeypatch.setattr(conjugate, "_rhs", planted)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cid, plant, off", [
    # measured: max_residual 3.20 to 4.56 at seeds 0 to 3
    ("insertion_identity", plant_dropped_occurrence,
     lambda d: d["max_residual"] > 1),
    # measured: max_covariance_residual 0.51 to 0.68 at seeds 0 to 3, the
    # self-adjoint defect unchanged
    ("covariance_selfadjoint", plant_unshifted_rhs,
     lambda d: d["max_covariance_residual"] > 0.25),
])
def test_check_fails_on_a_planted_defect_at_every_seed(monkeypatch, capsys,
                                                      cid, plant, off, seed):
    check = getattr(suite, f"check_{cid}")
    assert check(suite.SuiteContext.fresh(seed)).passed
    plant(monkeypatch)
    result = check(suite.SuiteContext.fresh(seed))
    assert result.asserted and result.passed is False
    assert off(result.details), result.details
    assert cli.run(["suite", "--seed", str(seed)]) == 1
    checks = json.loads(capsys.readouterr().out)["outputs"]["checks"]
    assert cid in [c["id"] for c in checks if c["passed"] is False]


def plant_unsigned_signature(monkeypatch):
    # the kernel's signature as a plain count of letters per class, with
    # no parity sign: only pairs with nothing inside are kept
    steps = moments._signature_steps
    monkeypatch.setattr(moments, "_signature_steps",
                        lambda code, b: (steps(code, b)[0],) * 2)


@pytest.mark.parametrize("seed", range(4))
def test_wick_oracle_fails_on_an_unsigned_kernel_signature(monkeypatch,
                                                          capsys, seed):
    # measured: max_oracle_diff 2.47 to 3.42 and max_catalan_diff 41 at
    # seeds 0 to 3
    assert suite.check_wick_oracle(suite.SuiteContext.fresh(seed)).passed
    plant_unsigned_signature(monkeypatch)
    result = suite.check_wick_oracle(suite.SuiteContext.fresh(seed))
    assert result.asserted and result.passed is False
    assert result.details["max_oracle_diff"] > 1
    assert cli.run(["suite", "--seed", str(seed)]) == 1
    checks = json.loads(capsys.readouterr().out)["outputs"]["checks"]
    assert "wick_oracle" in [c["id"] for c in checks if c["passed"] is False]


def test_a_failing_verdict_is_a_python_bool(monkeypatch):
    # coeff_on_target is a numpy complex, so the verdict built from it
    # was numpy.False_
    plant_scaled_z(monkeypatch)
    results = run_suite(seed=0)
    failed = [r for r in results if r.cid == "quasi_free_conjugate"]
    assert failed[0].passed is False
    assert all(type(r.passed) is bool and type(r.asserted) is bool
               for r in results)
