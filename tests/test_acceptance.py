"""Acceptance battery: one test per exit criterion, shared with the CLI
``suite`` subcommand.  Each test prints its own pass/fail line."""

import json
from fractions import Fraction

import pytest

import planted
from ncfisher import cli, conjugate, model, sampling, suite
from ncfisher.algebra import as_time
from ncfisher.sampling import random_core_word, random_word
from ncfisher.suite import ALL_CHECK_IDS, run_suite

# rows of the planted-defect table, under the names test ids print
plant_scaled_z = planted.applier("scaled_z", "plant_scaled_z")
plant_dropped_first_kernel_entry = planted.applier(
    "dropped_kernel_entry", "plant_dropped_first_kernel_entry")
plant_eta_sign = planted.applier("eta_sign", "plant_eta_sign")
plant_eta_map_at_minus_t = planted.applier(
    "eta_map_at_minus_t", "plant_eta_map_at_minus_t")
plant_short_prefix_read = planted.applier(
    "short_prefix_read", "plant_short_prefix_read")
plant_ignored_b_gens = planted.applier(
    "ignored_b_gens", "plant_ignored_b_gens")
plant_all_generator_rhs = planted.applier(
    "all_generator_rhs", "plant_all_generator_rhs")


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
    # the unshifted problem, each distinct shift (a shift of 0 is the
    # unshifted problem) and the two larger adjoint solves, each once,
    # however often the draws repeat a shift: 9, 9, 9 and 7 solves for the
    # ten shifts at seeds 0-3
    solve = conjugate.solve_conjugate
    calls = []

    def counted(m, gen, spec, b_gens=(), target_time=0):
        calls.append((m, gen, spec, tuple(b_gens), as_time(target_time)))
        return solve(m, gen, spec, b_gens, target_time)

    monkeypatch.setattr(conjugate, "solve_conjugate", counted)
    monkeypatch.setattr(suite, "solve_conjugate", counted)
    for seed, solves in enumerate((9, 9, 9, 7)):
        calls.clear()
        result = suite.check_covariance_selfadjoint(
            suite.SuiteContext.fresh(seed))
        assert result.passed
        shifts = {Fraction(s) for s in result.details["shifts"]}
        assert len(calls) == len(set(calls)) == 3 + len(shifts - {0})
        assert len(calls) == solves


def test_a_suite_run_solves_each_unshifted_problem_once(monkeypatch):
    # 24 solves without sharing, 20 with one solve per unshifted
    # problem: quasi_free_conjugate's two half-grid
    # problems come back in covariance_selfadjoint, the two-atom one also
    # as the last rung of galerkin_monotonicity, and
    # covariance_selfadjoint's unshifted problem as the ladder's third
    # rung and as cramer_rao's single-generator audit.  Each repeated
    # shift is solved once too, which leaves 15 solves at seeds 0 and 1,
    # one per distinct problem (model, targets, basis, b_gens, target time)
    solve = conjugate._solve
    runs = []

    def counted(m, targets, basis, b_gens=(), target_time=0):
        out = solve(m, targets, basis, b_gens, target_time)
        runs[-1].append(((m, tuple(targets), basis, tuple(b_gens),
                          as_time(target_time)), out))
        return out

    # and each solve builds its Fock vectors once, for the solve and for
    # every audit of its solutions
    fock, builds = conjugate.fock_vectors, []
    monkeypatch.setattr(conjugate, "fock_vectors",
                        lambda *args: builds.append(args) or fock(*args))
    monkeypatch.setattr(conjugate, "_solve", counted)
    for seed in (0, 0, 1):
        runs.append([])
        builds.clear()
        results = run_suite(seed)
        assert all(r.passed for r in results)
        assert len(runs[-1]) == 15
        assert len({problem for problem, _ in runs[-1]}) == 15
        assert len(builds) == 15
    # the memo lives on the run's context: no solution outlives its run
    ids = [{id(sol) for _, out in run for sol in out} for run in runs]
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


def test_a_suite_run_checks_each_distinct_draw_once(monkeypatch):
    # the sampled identities draw all their inputs first, from the checks'
    # own streams, and check each distinct core word and (p, q) pair once,
    # in the order first drawn
    checked = {"core": [], "insertion": []}
    core = sampling.verify_core_identity
    insertion = sampling.verify_insertion_identity

    def core_checked(m, gen, q, etas):
        checked["core"].append(q)
        return core(m, gen, q, etas)

    def insertion_checked(m, gen, p, q, etas):
        checked["insertion"].append((p, q))
        return insertion(m, gen, p, q, etas)

    monkeypatch.setattr(sampling, "verify_core_identity", core_checked)
    monkeypatch.setattr(sampling, "verify_insertion_identity",
                        insertion_checked)
    repeats = 0
    for seed in range(4):
        ctx = suite.SuiteContext.fresh(seed)
        rng = ctx.rng(6)
        cores = [random_core_word(rng, ["g"], 4) for _ in range(100)]
        rng = ctx.rng(4)
        pairs = [(random_word(rng, ["g"], 4), random_word(rng, ["g"], 4))
                 for _ in range(100)]
        for draws in checked.values():
            draws.clear()
        assert all(r.passed for r in run_suite(seed))
        assert checked["core"] == list(dict.fromkeys(cores))
        assert checked["insertion"] == list(dict.fromkeys(pairs))
        repeats += 200 - len(checked["core"]) - len(checked["insertion"])
    assert repeats > 0


def test_kms_scans_each_distinct_measure_once(monkeypatch):
    # pair's two generators are copies of two_atom's, so the four
    # generators hold two measures; the maximum is the one over all four
    scanned = []
    deviation = suite.kms_deviation

    def counted(g, grid):
        scanned.append(g.gen_id)
        return deviation(g, grid)

    monkeypatch.setattr(suite, "kms_deviation", counted)
    for seed in range(4):
        ctx = suite.SuiteContext.fresh(seed)
        gens = [g for m in (ctx.two_atom, ctx.tracial, ctx.pair)
                for g in m.generators]
        assert len(gens) == 4
        want = max(deviation(g, model.KMS_GRID) for g in gens)
        scanned.clear()
        result = suite.check_kms(ctx)
        assert scanned == [ctx.two_atom.generators[0].gen_id,
                           ctx.tracial.generators[0].gen_id]
        assert result.details["max_eta_strip_deviation"] == want


def test_suite_prunes_confirm_the_guess_in_one_round(monkeypatch):
    prune = conjugate._prune_independent
    rounds = []

    def counted(vecs, guess, rows):
        out = prune(vecs, guess, rows)
        rounds.append(out[-1])
        return out

    monkeypatch.setattr(conjugate, "_prune_independent", counted)
    run_suite(seed=0)
    assert rounds and set(rounds) == {1}


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


@pytest.mark.parametrize("seed", range(4))
def test_wick_oracle_fails_on_an_unsigned_kernel_signature(monkeypatch,
                                                          capsys, seed):
    # measured: max_oracle_diff 2.47 to 3.42 and max_catalan_diff 41 at
    # seeds 0 to 3
    assert suite.check_wick_oracle(suite.SuiteContext.fresh(seed)).passed
    planted.plant(monkeypatch, "unsigned_signature")
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
