import copy
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import planted

from ncfisher import conjugate
from ncfisher.algebra import NcPoly, x
from ncfisher.conjugate import (
    PRUNE_RTOL,
    BasisError,
    BasisSpec,
    _basis_norm,
    _prune_independent,
    chi_star,
    covariance_distance,
    cramer_rao_audit,
    embedded_distance,
    enumerate_basis,
    fisher_multi,
    fock_dimension,
    fock_vectors,
    modular_covariance_check,
    self_adjoint_defect,
    solve_conjugate,
    solve_family,
)
from ncfisher.derivation import differentiate
from ncfisher.model import (
    ConfigError,
    ModelSpec,
    build_model,
    tracial_model,
    two_atom_model,
)
from oracles import (
    all_k_rhs,
    fraction_alphabet,
    greedy_scan,
    l2_distance,
    masked_projection_prune,
    one_particle_projection,
    pair_with_y,
    rebuilt_basis_norm,
    reversal_by_lookup,
    solution_polynomial,
    symbolic_covariance_residual,
    symbolic_self_adjoint_defect,
)

GRID3 = tuple(Fraction(k, 2) for k in range(-1, 2))
GRID5 = tuple(Fraction(k, 2) for k in range(-2, 3))


def pair_model():
    return build_model(
        {
            "generators": [
                {"name": "1", "mode": "half",
                 "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]},
                {"name": "2", "mode": "half",
                 "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]},
            ]
        }
    )


def mixed_model():
    return build_model(
        {
            "generators": [
                {"name": "t", "mode": "half", "atoms": [{"x": 0, "w": 1}]},
                {"name": "q", "mode": "half",
                 "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]},
            ]
        }
    )


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


def coeff_profile(sol, gen):
    target = (x(gen, 0),)
    cmap = dict(zip(sol.basis_words, sol.coefficients))
    on_target = cmap.get(target, 0j)
    off = max((abs(c) for w, c in cmap.items() if w != target), default=0.0)
    return on_target, off


def test_basis_spec_validation():
    with pytest.raises(BasisError):
        BasisSpec((), 2)
    with pytest.raises(BasisError):
        BasisSpec((Fraction(0), Fraction(0)), 2)
    with pytest.raises(BasisError):
        BasisSpec((Fraction(0),), 0)


def test_target_time_must_be_on_grid(m):
    with pytest.raises(BasisError):
        solve_conjugate(m, "g", BasisSpec((Fraction(1),), 1))


def test_enumerate_basis_order_and_identity(m):
    words = enumerate_basis(m, "g", BasisSpec(GRID3, 2))
    assert words[0] == ()
    assert words[1] == (x("g", 0),)
    assert len(words) == 1 + 3 + 9


def test_basis_bound_is_checked_before_enumerating(m):
    for degree in (9, 10**9):
        with pytest.raises(BasisError, match="degree 6 already gives"):
            enumerate_basis(m, "g", BasisSpec(GRID5, degree))


def test_basis_size_closed_form():
    # one letter for the tracial generator, five for the flowing one
    mixed = mixed_model()
    words = enumerate_basis(mixed, "q", BasisSpec(GRID5, 3), b_gens=("t",))
    assert len(words) == 1 + 6 + 36 + 216
    assert len(set(words)) == len(words)


def test_enumerate_basis_collapses_tracial():
    mt = tracial_model()
    words = enumerate_basis(mt, "g", BasisSpec(GRID5, 3))
    assert words == [(), ((x("g", 0)),) * 1, (x("g", 0),) * 2, (x("g", 0),) * 3]


def test_quasi_free_solution_is_target_letter(m):
    sol = solve_conjugate(m, "g", BasisSpec((Fraction(-1), Fraction(0), Fraction(1)), 3))
    on_target, off = coeff_profile(sol, "g")
    assert abs(on_target - 1) < 1e-8
    assert off < 1e-8
    assert sol.residual < 1e-8
    assert sol.phi_star == pytest.approx(1.0, abs=1e-9)
    assert sol.xi_norm_sq == pytest.approx(1.0, abs=1e-9)


def test_tracial_solution_is_target_letter():
    mt = tracial_model()
    sol = solve_conjugate(mt, "g", BasisSpec(GRID5, 3))
    on_target, off = coeff_profile(sol, "g")
    assert abs(on_target - 1) < 1e-10
    assert off < 1e-10
    assert sol.residual < 1e-10
    assert sol.phi_star == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("degree, size, kept", [(4, 781, 31), (5, 3906, 63)])
def test_high_degree_solve(m, degree, size, kept):
    sol = solve_conjugate(m, "g", BasisSpec(GRID5, degree))
    assert len(sol.basis_words) == size
    assert len(sol.kept) == kept == sol.fock_dim
    assert sol.phi_star == pytest.approx(1.0, abs=1e-9)
    assert sol.residual < 1e-8


@st.composite
def ill_conditioned_cases(draw):
    """Half-mode generators "a" (the target) and maybe "b", each with one or
    two atom pairs at x in [0.02, 0.40] and maybe a zero atom, on grids of
    step k/8: step times frequency reaches 0.0025, and the Grams of the kept
    words reach condition 1e10 and beyond."""
    names = ["a", "b"][:draw(st.integers(1, 2))]
    gens = []
    for name in names:
        xs = draw(st.lists(st.integers(2, 40), min_size=1, max_size=2,
                           unique=True))
        atoms = ([{"x": 0, "w": draw(st.floats(0.3, 0.6))}]
                 if draw(st.booleans()) else [])
        atoms += [{"x": k / 100, "w": draw(st.floats(0.4, 0.9))}
                  for k in sorted(xs)]
        gens.append({"name": name, "mode": "half", "atoms": atoms})
    h = Fraction(draw(st.integers(1, 12)), 8)
    grid = draw(st.sampled_from([(-h, 0, h), (-h, 0, h, 2 * h),
                                 (-2 * h, -h, 0, h, 2 * h)]))
    degree = draw(st.integers(2, 4 if len(names) == 1 else 3))
    return gens, grid, degree


@given(case=ill_conditioned_cases())
@example(case=(
    [{"name": "a", "mode": "half",
      "atoms": [{"x": 0.07, "w": 0.723897}, {"x": 0.35, "w": 0.50903}]}],
    tuple(Fraction(k, 8) for k in range(-2, 3)), 3))
@settings(max_examples=40, deadline=None)
def test_ill_conditioned_solves_match_closed_form(case):
    # quasi-free: the conjugate variable is the target letter over its
    # second moment, so phi_star = 1 and the defining data are matched
    gens, grid, degree = case
    b_gens = tuple(g["name"] for g in gens[1:])
    sol = solve_conjugate(build_model({"generators": gens}), "a",
                          BasisSpec(grid, degree), b_gens)
    assert abs(sol.phi_star - 1) < 1e-8
    assert sol.residual < 1e-8


def test_solver_health_counters(m):
    sol = solve_conjugate(m, "g", BasisSpec(GRID5, 3))
    assert sol.fock_dim == 15
    # a single grid point spans one direction per particle number
    sol = solve_conjugate(m, "g", BasisSpec((Fraction(0),), 2))
    assert sol.fock_dim == 7
    assert len(sol.kept) == 3


def rhs_cases():
    three = build_model({"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": 0, "w": 0.5}, {"x": 0.27, "w": 0.6}]}]})
    return [
        (two_atom_model(), "g", (), BasisSpec(GRID5, 3), Fraction(0)),
        (two_atom_model(), "g", (), BasisSpec(GRID5, 3), Fraction(1, 2)),
        (three, "g", (), BasisSpec(GRID3, 3), Fraction(-1, 2)),
        (pair_model(), "1", ("2",), BasisSpec(GRID3, 2), Fraction(0)),
        (mixed_model(), "t", ("q",), BasisSpec(GRID3, 2), Fraction(1, 2)),
        (mixed_model(), "q", ("t",), BasisSpec(GRID3, 2), Fraction(0)),
        (pair_model(), "2", ("1",), BasisSpec(GRID3, 2), Fraction(1, 2)),
    ]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_set_up_on_ticks_is_the_set_up_on_fractions(data):
    # the pivot order and the rhs on integer ticks are bit for bit those
    # on Fraction times, the rhs with every product of state factors
    model, target, b_gens = data.draw(st.sampled_from([
        (two_atom_model(), "g", ()), (tracial_model(), "g", ()),
        (mixed_model(), "q", ("t",)), (mixed_model(), "t", ("q",)),
        (pair_model(), "1", ("2",)), (three_model(), "2", ("3", "1"))]))
    model = model.with_time_den(data.draw(st.sampled_from([1, 3])))
    times = data.draw(st.lists(
        st.builds(Fraction, st.integers(-12, 12),
                  st.sampled_from([1, 2, 3, 4, 6])),
        min_size=1, max_size=4, unique=True))
    t0 = data.draw(st.sampled_from(times))
    if data.draw(st.booleans()):
        # times mirrored about the target time tie on their distance to it
        times = list(dict.fromkeys(times + [2 * t0 - t for t in times]))
    degree = data.draw(st.integers(1, 3 if len(times) < 3 else 2))
    spec = BasisSpec(tuple(times), degree)
    words = enumerate_basis(model, target, spec, b_gens, t0)
    alphabet = [w[0] for w in words if len(w) == 1]
    assert alphabet == fraction_alphabet(model, target, spec, b_gens, t0)
    a = len(alphabet)
    vecs = fock_vectors(model, alphabet, degree)
    phi = [vecs[0, fock_dimension(a, d - 1):fock_dimension(a, d)]
           for d in range(degree + 1)]
    for g in (target, *b_gens):
        got = conjugate._rhs(model, g, alphabet, phi, t0)
        assert got.tobytes() == all_k_rhs(model, g, alphabet, phi,
                                          t0).tobytes()


@pytest.mark.parametrize("case", range(len(rhs_cases())))
def test_rhs_matches_derivative_pairing(case):
    model, target, b_gens, spec, t0 = rhs_cases()[case]
    sol = solve_conjugate(model, target, spec, b_gens=b_gens, target_time=t0)
    for w, b in zip(sol.basis_words, sol.rhs):
        want = pair_with_y(model, target,
                           differentiate(target, NcPoly.word(w)), t0)
        assert abs(b - want) <= 1e-12, w


def unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def assert_factor(vecs, want):
    """The prune keeps ``want`` whatever it guesses, and returns its factor
    vecs[:, kept] = QR: Q orthonormal, R upper triangular with a positive
    real diagonal.  The right guess is confirmed in one round; a wrong one
    takes one more round per column the scan reads, from the first column
    the guess gets wrong up to the one that completes the space, or up to
    the last column."""
    dim, n = vecs.shape
    right = np.isin(np.arange(n), want)
    done = want[-1] if len(want) == dim else n - 1
    for guess in (right, ~right, np.ones(n, bool), np.zeros(n, bool)):
        kept, q, r, rounds = _prune_independent(vecs, guess)
        assert kept == want
        assert np.allclose(vecs[:, kept], q @ r, rtol=0, atol=1e-12)
        assert np.allclose(q.conj().T @ q, np.eye(len(kept)), rtol=0,
                           atol=1e-12)
        assert np.array_equal(r, np.triu(r))
        assert np.all(r.diagonal().real > 0) and not r.diagonal().imag.any()
        wrong = np.flatnonzero(guess[:done + 1] != right[:done + 1])
        assert type(rounds) is int
        assert rounds == (done - wrong[0] + 2 if len(wrong) else 1)
    assert _prune_independent(vecs, right)[3] == 1


@pytest.mark.parametrize("ratio, kept", [(1e-9, [0, 1]), (1e-11, [0])])
def test_prune_threshold(ratio, kept):
    # the second column's squared residual against the first, over its
    # squared norm, is ``ratio``; PRUNE_RTOL sits between the two cases
    u = unitary(4, 1)
    eps = math.sqrt(ratio / (1 - ratio))
    vecs = np.stack([2j * u[:, 0], 3 * (u[:, 0] + eps * u[:, 1])], axis=1)
    assert 1e-11 < PRUNE_RTOL < 1e-9
    assert_factor(vecs, kept)


def test_prune_skips_zero_and_keeps_first_of_parallel():
    u = unitary(3, 2)
    vecs = np.stack([np.zeros(3), u[:, 1], (1 - 2j) * u[:, 0],
                     -5 * u[:, 1], 0.5 * u[:, 0], u[:, 2]], axis=1)
    assert_factor(vecs, [1, 2, 5])
    assert_factor(vecs[:, [4, 2]], [0])


def test_prune_stops_when_the_space_is_spanned():
    class Reads(np.ndarray):
        """Logs the column indices read through ``vecs[:, key]``."""

        def __getitem__(self, key):
            cols = key[1]
            if isinstance(cols, slice):
                cols = range(*cols.indices(self.shape[1]))
            self.log.update(np.ravel(cols).tolist())
            return np.asarray(self).__getitem__(key)

    # the last column comes after the one that completes the space: it is
    # never factored, confirmed or scanned, so even a NaN there changes
    # nothing
    u = unitary(2, 3)
    nan = np.full(2, np.nan)
    cases = [
        ([u[:, 0], u[:, 0] + u[:, 1], u[:, 1], nan], [0, 1],
         ([1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 1])),
        # the guess takes the parallel column 1, so the scan goes on to
        # column 2, which the confirming round does not read
        ([u[:, 0], 2 * u[:, 0], u[:, 1], nan], [0, 2], ([1, 1, 0, 0],)),
    ]
    for cols, want, guesses in cases:
        vecs = np.stack(cols, axis=1).view(Reads)
        for guess in guesses:
            vecs.log = set()
            kept, q, r, rounds = _prune_independent(vecs,
                                                    np.array(guess, bool))
            assert kept == want
            assert 3 not in vecs.log
            assert set(kept) <= vecs.log
            assert np.isfinite(q).all() and np.isfinite(r).all()
            assert_factor(np.asarray(vecs)[:, :3], kept)


@st.composite
def planted_columns(draw, ratios=(1e-9, 1e-11), span=False):
    """Columns that are random, zero, parallel to an earlier column, or an
    earlier column plus a direction orthogonal to all earlier columns,
    scaled so that the squared residual over the squared norm is one of
    ``ratios`` (by default 1e-9 or 1e-11, either side of PRUNE_RTOL).
    With ``span``, as many random columns as the space's dimension follow,
    so the scan's kept columns span it."""
    dim = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(
        ["random", "zero", "parallel", *ratios]), min_size=1,
        max_size=14))
    kinds += ["random"] * dim * span
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols: list = []
    for kind in kinds:
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        scale = complex(*rng.normal(size=2))
        base = cols[rng.integers(len(cols))] if cols else 0 * z
        if kind == "random":
            cols.append(z)
        elif kind in ("zero", "parallel") or len(cols) >= dim or not base.any():
            cols.append(0 * z if kind == "zero" else scale * base)
        else:
            free = np.linalg.qr(np.stack(cols + [z], axis=1),
                                "complete")[0][:, len(cols)]
            eps = math.sqrt(kind / (1 - kind))
            cols.append(scale * (base / np.linalg.norm(base) + eps * free))
    return np.stack(cols, axis=1)


@given(vecs=planted_columns())
@settings(max_examples=60, deadline=None)
def test_prune_matches_the_scan_on_planted_columns(vecs):
    assert_factor(vecs, greedy_scan(vecs)[0])


def assert_confirms_as_the_reference(vecs, guess):
    """The prune keeps the scan's columns, and its kept columns, Q, R and
    rounds are bit for bit those of the masked-projection confirm."""
    got = _prune_independent(vecs, guess)
    want = masked_projection_prune(vecs, guess)
    assert got[0] == want[0] == greedy_scan(vecs)[0]
    for a, b in zip(got[1:3], want[1:3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[3] == want[3]


NEAR = (PRUNE_RTOL * (1 + 1e-3), PRUNE_RTOL * (1 - 1e-3))


@given(vecs=planted_columns(NEAR + (1e-9, 1e-11), span=True),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_square_and_short_guesses_confirm_as_the_masked_projection(vecs,
                                                                   data):
    # with the spanning columns the scan's kept columns fill the space, so
    # its decisions are a square guess; one flip makes it square or not,
    # and wrong at the first column, in the middle or at the last the
    # prune reads.  Columns sit just above and just below PRUNE_RTOL
    dim, n = vecs.shape
    if data.draw(st.booleans()):
        vecs = vecs[:, :data.draw(st.integers(1, n))]
        n = vecs.shape[1]
    want = greedy_scan(vecs)[0]
    right = np.isin(np.arange(n), want)
    last = want[-1] if len(want) == dim else n - 1
    assert_confirms_as_the_reference(vecs, right)
    for j in {0, last // 2, last}:
        guess = right.copy()
        guess[j] = not guess[j]
        assert_confirms_as_the_reference(vecs, guess)


@pytest.mark.parametrize("ratio", NEAR)
@pytest.mark.parametrize("spanning", [True, False])
def test_a_right_guess_near_the_threshold_confirms_in_one_round(ratio,
                                                                 spanning):
    # u0, then a column at ``ratio`` from it, then u1 and, if spanning, u2:
    # the scan keeps three columns of three (a square guess) or two
    u = unitary(3, 4)
    eps = math.sqrt(ratio / (1 - ratio))
    cols = [u[:, 0], (1 - 2j) * (u[:, 0] + eps * u[:, 1]), u[:, 1]]
    vecs = np.stack(cols + [u[:, 2]] * spanning, axis=1)
    want = [0, 1 if ratio > PRUNE_RTOL else 2, 3][:2 + spanning]
    assert greedy_scan(vecs)[0] == want
    guess = np.isin(np.arange(vecs.shape[1]), want)
    assert _prune_independent(vecs, guess)[3] == 1
    assert_confirms_as_the_reference(vecs, guess)


@given(case=ill_conditioned_cases())
# a zero atom and one pair at step 1/32: the guess fails within the first
# 20 words, and the scan decides the rest
@example(case=(
    [{"name": "a", "mode": "half",
      "atoms": [{"x": 0, "w": 0.5}, {"x": 0.27, "w": 0.6}]}],
    tuple(Fraction(k, 32) for k in range(-2, 3)), 5))
@settings(max_examples=25, deadline=None)
def test_prune_matches_the_scan_on_ill_conditioned_solves(case):
    gens, grid, degree = case
    b_gens = tuple(g["name"] for g in gens[1:])
    calls = []

    def spy(vecs, guess):
        out = _prune_independent(vecs, guess)
        calls.append((vecs, out))
        return out

    with mock.patch.object(conjugate, "_prune_independent", spy):
        sol = solve_conjugate(build_model({"generators": gens}), "a",
                              BasisSpec(grid, degree), b_gens)
    [(vecs, (kept, q, r, rounds))] = calls
    want, q0, r0 = greedy_scan(vecs)
    assert kept == want == list(sol.kept)
    assert sol.prune_rounds == rounds
    for q_fac, r_fac in ((q, r), (q0, r0)):
        assert np.allclose(vecs[:, kept], q_fac @ r_fac, rtol=0, atol=1e-12)
        assert np.allclose(q_fac.conj().T @ q_fac, np.eye(len(kept)), rtol=0,
                           atol=1e-12)


def benchmark_shapes():
    """Solves of the benchmark's shapes on the tests' models, at both of
    its grid steps."""
    three = build_model({"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": 0, "w": 0.5}, {"x": 0.27, "w": 0.6}]}]})
    pairs = build_model({"generators": [
        {"name": "1", "mode": "half",
         "atoms": [{"x": 0.12, "w": 0.7}, {"x": 0.3, "w": 0.5}]},
        {"name": "2", "mode": "half",
         "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]}]})
    for h in (Fraction(3, 4), Fraction(1)):
        four = (-h, 0, h, 2 * h)
        five = (-2 * h, -h, 0, h, 2 * h)
        three_points = (-h, 0, h)
        for model in (two_atom_model(), three):
            for grid in (four, five):
                yield solve_conjugate(model, "g", BasisSpec(grid, 3))
        yield solve_conjugate(pair_model(), "1", BasisSpec(three_points, 3),
                              b_gens=("2",))
        for model in (pair_model(), pairs):
            yield from solve_family(model, ["1", "2"],
                                    BasisSpec(three_points, 2))
        # single-generator solves of `chi-star` (whose Fisher value holds
        # for the model scaled by 1 + eps, solved here unscaled and
        # scaled by 2) and `covariance` (the shifted grid)
        small = BasisSpec(three_points, 2)
        for eps in (0, 1):
            yield solve_conjugate(two_atom_model().scaled(1 + eps), "g", small)
        s = Fraction(1, 2)
        yield solve_conjugate(two_atom_model(), "g", small.shifted(s),
                              target_time=s)


def test_benchmark_shapes_confirm_the_guess_in_one_round():
    sols = list(benchmark_shapes())
    assert len(sols) == 24
    assert [sol.prune_rounds for sol in sols] == [1] * 24


def test_repeated_generator_ids_rejected():
    mp = pair_model()
    spec = BasisSpec(GRID3, 2)
    for gens in (["1", "1"], ["1", "2", "1"]):
        with pytest.raises(ConfigError, match="repeat"):
            solve_family(mp, gens, spec)
        with pytest.raises(ConfigError):
            fisher_multi(mp, gens, spec)
        with pytest.raises(ConfigError):
            cramer_rao_audit(mp, gens, spec)
        with pytest.raises(ConfigError):
            chi_star(mp, gens, 2.0, spec)


def three_model():
    return build_model({"generators": [
        {"name": "1", "mode": "half",
         "atoms": [{"x": 0, "w": 0.5}, {"x": 0.27, "w": 0.6}]},
        {"name": "2", "mode": "half", "atoms": [{"x": 0, "w": 1.0}]},
        {"name": "3", "mode": "half",
         "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]}]})


@pytest.mark.parametrize("call", [
    lambda m, gens, spec: solve_family(m, gens, spec),
    lambda m, gens, spec: fisher_multi(m, gens, spec),
    lambda m, gens, spec: cramer_rao_audit(m, gens, spec),
    lambda m, gens, spec: chi_star(m, gens, 2.0, spec),
], ids=["solve_family", "fisher_multi", "cramer_rao_audit", "chi_star"])
@pytest.mark.parametrize("model, gens", [
    (pair_model(), ["1", "2"]), (three_model(), ["3", "1", "2"])],
    ids=["pair", "three"])
def test_a_family_builds_and_prunes_its_basis_once(monkeypatch, call, model,
                                                   gens):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fock_vectors", "_prune_independent"):
        monkeypatch.setattr(conjugate, name,
                            counted(getattr(conjugate, name)))
    call(model, gens, BasisSpec(GRID3, 2))
    assert sorted(calls) == ["_prune_independent", "fock_vectors"]


def assert_same_bits(a, b):
    for name in ("target_time", "basis_words", "kept", "residual",
                 "xi_norm_sq", "phi_star", "fock_dim", "prune_rounds",
                 "gram_condition"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("r", "z", "rhs", "coefficients"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("model, gens", [
    (pair_model(), ["1", "2"]), (pair_model(), ["2", "1"]),
    (three_model(), ["3", "1", "2"]), (three_model(), ["1", "2", "3"])])
def test_the_first_family_solution_is_its_own_solve(model, gens):
    for spec in (BasisSpec(GRID3, 2), BasisSpec(GRID5, 2)):
        assert_same_bits(solve_family(model, gens, spec)[0],
                         solve_conjugate(model, gens[0], spec,
                                         b_gens=gens[1:]))


@st.composite
def families(draw):
    """Two or three half-mode generators, each tracial (one atom at 0),
    or with one or two atom pairs at x in [0.02, 0.40] and maybe a zero
    atom, on a grid of step k/8 around the target time 0."""
    n = draw(st.integers(2, 3))
    gens = []
    for name in "abc"[:n]:
        if draw(st.integers(0, 3)) == 0:
            atoms = [{"x": 0, "w": draw(st.floats(0.3, 1.5))}]
        else:
            xs = draw(st.lists(st.integers(2, 40), min_size=1, max_size=2,
                               unique=True))
            atoms = ([{"x": 0, "w": draw(st.floats(0.3, 0.6))}]
                     if draw(st.booleans()) else [])
            atoms += [{"x": k / 100, "w": draw(st.floats(0.4, 0.9))}
                      for k in sorted(xs)]
        gens.append({"name": name, "mode": "half", "atoms": atoms})
    h = Fraction(draw(st.integers(1, 12)), 8)
    grid = draw(st.sampled_from([(-h, 0, h), (-h, 0, h, 2 * h)]))
    degree = draw(st.integers(2, 3 if n == 2 else 2))
    return gens, grid, degree


@given(case=families())
# a zero atom and one pair at step 1/8, next to a tracial generator
@example(case=(
    [{"name": "a", "mode": "half",
      "atoms": [{"x": 0, "w": 0.5}, {"x": 0.27, "w": 0.6}]},
     {"name": "b", "mode": "half", "atoms": [{"x": 0, "w": 1.0}]}],
    tuple(Fraction(k, 8) for k in range(-1, 3)), 3))
@settings(max_examples=30, deadline=None)
def test_family_solutions_match_their_own_solves(case):
    # each generator's family solution is its own solve's projection,
    # computed in the first generator's pivot order: the same kept words,
    # norm and vector
    gens, grid, degree = case
    model = build_model({"generators": gens})
    names = [g["name"] for g in gens]
    spec = BasisSpec(grid, degree)
    for g, sol in zip(names, solve_family(model, names, spec)):
        own = solve_conjugate(model, g, spec,
                              b_gens=tuple(h for h in names if h != g))
        assert ({sol.basis_words[i] for i in sol.kept}
                == {own.basis_words[i] for i in own.kept})
        assert sol.xi_norm_sq == pytest.approx(own.xi_norm_sq, rel=1e-12)
        assert (embedded_distance(sol, own)
                <= 1e-8 * math.sqrt(own.xi_norm_sq))


@st.composite
def one_particle_cases(draw):
    """One to three half-mode generators, each tracial (one atom at 0), or
    with one or two atom pairs at x in [0.02, 0.40] and maybe a zero
    atom; a grid around 0 of step h <= 3/4 with no more points than any
    generator that is not tracial has atoms, so that each generator's
    one-particle vectors are independent (|h (x_j - x_k)| < 1); degree
    1-3, and a target time on the grid."""
    n = draw(st.integers(1, 3))
    gens, points = [], 3
    for name in "abc"[:n]:
        if draw(st.integers(0, 3)) == 0:
            atoms = [{"x": 0, "w": draw(st.floats(0.3, 1.5))}]
        else:
            xs = draw(st.lists(st.integers(2, 40), min_size=1, max_size=2,
                               unique=True))
            atoms = ([{"x": 0, "w": draw(st.floats(0.3, 0.6))}]
                     if draw(st.booleans()) else [])
            atoms += [{"x": k / 100, "w": draw(st.floats(0.4, 0.9))}
                      for k in sorted(xs)]
            # half mode adds the mirror of each pair
            points = min(points, len(atoms) + len(xs))
        gens.append({"name": name, "mode": "half", "atoms": atoms})
    h = Fraction(draw(st.integers(1, 6)), 8)
    grid = ((0,), (0, h), (-h, 0, h))[draw(st.integers(1, points)) - 1]
    degree = draw(st.integers(1, 3 if n < 3 else 2))
    return gens, grid, degree, draw(st.sampled_from(grid))


#: the tolerances of the projection check: 64 eps on the norm, relative,
#: and 16 eps times the kept Gram's condition on each coefficient; over
#: about 10,000 solves of ``one_particle_cases`` the worst errors were
#: 6.7 eps and 2.25 eps times the condition
NORM_EPS, COEFFICIENT_EPS = 64, 16


def assert_one_particle_projection(m, names, spec, t0):
    """Each family solution at target 0, and the first generator's solve
    at ``t0``, is the oracle's projection: its norm, its coefficients on
    the target's letters, and 0 on every other word."""
    eps = np.finfo(float).eps
    solved = [*zip(names, solve_family(m, names, spec), [0] * len(names)),
              (names[0], solve_conjugate(m, names[0], spec, names[1:], t0),
               t0)]
    for g, sol, t in solved:
        norm_sq, fit = one_particle_projection(m, g, spec.time_grid, t)
        assert abs(sol.xi_norm_sq - norm_sq) <= NORM_EPS * eps * norm_sq, (
            g, t, sol.xi_norm_sq, norm_sq)
        tol = COEFFICIENT_EPS * eps * sol.gram_condition
        for w, c in zip(sol.basis_words, sol.coefficients):
            expected = fit.get(w[0], 0) if len(w) == 1 else 0
            assert abs(c - expected) <= tol, (g, t, w, c, expected)


@given(case=one_particle_cases())
@settings(max_examples=40, deadline=None)
def test_every_solution_is_the_one_particle_projection(case):
    # on the grid, P_K f_t0 = f_t0: coefficient 1 on the target letter
    gens, grid, degree, t0 = case
    assert_one_particle_projection(build_model({"generators": gens}),
                                   [g["name"] for g in gens],
                                   BasisSpec(grid, degree), t0)


def test_the_projection_check_fails_under_a_truncated_prune(monkeypatch):
    m = build_model({"generators": [
        {"name": "a", "mode": "half",
         "atoms": [{"x": 0.07, "w": 0.7}, {"x": 0.35, "w": 0.5}]},
        {"name": "b", "mode": "half",
         "atoms": [{"x": 0, "w": 0.5}, {"x": 0.27, "w": 0.6}]}]})
    spec = BasisSpec((Fraction(-1, 4), 0, Fraction(1, 4)), 2)
    assert_one_particle_projection(m, ["a", "b"], spec, Fraction(1, 4))
    planted.plant(monkeypatch, "truncated_prune")
    with pytest.raises(AssertionError):
        assert_one_particle_projection(m, ["a", "b"], spec, Fraction(1, 4))


def test_scaling_of_solution(m):
    lam_sq = 2.25
    scaled = m.scaled(lam_sq)
    sol = solve_conjugate(scaled, "g", BasisSpec(GRID3, 2))
    on_target, off = coeff_profile(sol, "g")
    # the solved vector is still the generator letter; its norm scales
    assert abs(on_target - 1) < 1e-8
    assert off < 1e-8
    assert sol.xi_norm_sq == pytest.approx(lam_sq, abs=1e-8)
    assert sol.phi_star == pytest.approx(1.0, abs=1e-8)


def test_rhs_scales_with_weights(m):
    lam_sq = 4.0
    base = solve_conjugate(m, "g", BasisSpec(GRID3, 2))
    scaled = solve_conjugate(m.scaled(lam_sq), "g", BasisSpec(GRID3, 2))
    # b_P is homogeneous of one power of the covariance per contraction;
    # for single-letter rows that is exactly one factor
    for w, b0, b1 in zip(base.basis_words, base.rhs, scaled.rhs):
        if len(w) == 1:
            assert b1 == pytest.approx(lam_sq * b0, abs=1e-12)


def test_solution_self_adjoint(m):
    sol = solve_conjugate(m, "g", BasisSpec(GRID5, 3))
    assert self_adjoint_defect(sol) < 1e-8


def test_gram_condition_reported(m):
    sol = solve_conjugate(m, "g", BasisSpec(GRID3, 2))
    assert sol.gram_condition >= 1.0
    # the condition of the kept words' Gram, which the solve never forms
    alphabet = [w[0] for w in sol.basis_words if len(w) == 1]
    kept = fock_vectors(m, alphabet, 2)[:, list(sol.kept)]
    assert sol.gram_condition == pytest.approx(
        np.linalg.cond(kept.conj().T @ kept), rel=1e-6)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the test's calls to np.linalg.cond and np.linalg.solve."""
    calls = dict.fromkeys(("cond", "solve"), 0)
    for name in calls:
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kw):
            calls[_name] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_coefficients_and_condition_wait_for_their_first_read(m,
                                                               linalg_calls):
    sol = solve_conjugate(m, "g", BasisSpec(GRID5, 3))
    assert linalg_calls == {"cond": 0, "solve": 1}
    coefficients = sol.coefficients
    assert sol.coefficients is coefficients
    assert linalg_calls == {"cond": 0, "solve": 2}
    condition = sol.gram_condition
    assert sol.gram_condition == condition
    assert linalg_calls == {"cond": 1, "solve": 2}
    # bit for bit the expressions the solve used to evaluate itself
    kept = list(sol.kept)
    want = np.zeros(len(sol.basis_words), dtype=complex)
    want[kept] = np.linalg.solve(sol.r, sol.z)
    assert np.array_equal(coefficients, want)
    assert condition == float(np.linalg.cond(sol.r) ** 2)
    # r is the kept words' triangular factor and z the reduced solution
    assert np.array_equal(np.triu(sol.r), sol.r)
    assert np.allclose(sol.r.conj().T @ sol.z, sol.rhs.conj()[kept],
                       atol=1e-12)
    assert sol.xi_norm_sq == float(np.vdot(sol.z, sol.z).real)


def test_a_family_computes_its_gram_condition_once(linalg_calls):
    # the family's solutions share one R, so one SVD serves both
    first, second = solve_family(pair_model(), ["1", "2"], BasisSpec(GRID3, 2))
    assert linalg_calls["cond"] == 0
    assert first.gram_condition == second.gram_condition >= 1.0
    assert linalg_calls["cond"] == 1


@pytest.mark.parametrize("functional", [fisher_multi, cramer_rao_audit])
def test_family_functionals_solve_only_for_the_norms(functional,
                                                     linalg_calls):
    functional(pair_model(), ["1", "2"], BasisSpec(GRID3, 2))
    assert linalg_calls == {"cond": 0, "solve": 2}


def test_fisher_single_equals_phi_star(m):
    spec = BasisSpec(GRID3, 2)
    sol = solve_conjugate(m, "g", spec)
    assert fisher_multi(m, ["g"], spec) == pytest.approx(sol.phi_star, abs=1e-12)


def test_fisher_two_free_generators():
    mp = pair_model()
    assert fisher_multi(mp, ["1", "2"], BasisSpec(GRID3, 2)) == pytest.approx(
        2.0, abs=1e-8
    )


def test_freeness_invariance_of_solution():
    mp = pair_model()
    spec = BasisSpec(GRID3, 2)
    alone = solve_conjugate(mp, "1", spec, b_gens=())
    enlarged = solve_conjugate(mp, "1", spec, b_gens=("2",))
    assert len(enlarged.basis_words) > len(alone.basis_words)
    assert l2_distance(mp, solution_polynomial(alone),
                       solution_polynomial(enlarged)) < 1e-8
    assert abs(alone.phi_star - enlarged.phi_star) < 1e-8


def test_galerkin_ladder_monotone(m):
    ladder = [
        BasisSpec((Fraction(0),), 1),
        BasisSpec((Fraction(0), Fraction(1, 2)), 2),
        BasisSpec(GRID3, 2),
        BasisSpec(GRID5, 3),
    ]
    norms = [solve_conjugate(m, "g", spec).xi_norm_sq for spec in ladder]
    for a, b in zip(norms, norms[1:]):
        assert b >= a - 1e-10
    bound = m.generators[0].eta(0).real
    assert all(v <= bound + 1e-9 for v in norms)


def test_cramer_rao_normalized_single(m):
    rep = cramer_rao_audit(m, ["g"], BasisSpec(GRID3, 2))
    assert rep.normalized and rep.asserted
    assert rep.lhs == pytest.approx(1.0, abs=1e-7)
    assert rep.rhs == 1.0
    assert rep.note == ""


def test_cramer_rao_normalized_pair():
    mp = pair_model()
    rep = cramer_rao_audit(mp, ["1", "2"], BasisSpec(GRID3, 2))
    assert rep.normalized
    assert rep.lhs == pytest.approx(4.0, abs=1e-7)
    assert rep.rhs == 4.0


def test_cramer_rao_audit_only_when_not_normalized(m):
    rep = cramer_rao_audit(m.scaled(4.0), ["g"], BasisSpec(GRID3, 2))
    assert not rep.normalized
    assert not rep.asserted
    assert rep.note == "normalization audit"
    assert rep.ratio == pytest.approx(16.0, abs=1e-6)


def test_chi_star_refuses_an_empty_family(m):
    with pytest.raises(ConfigError, match="at least one generator"):
        chi_star(m, [], 2.0, BasisSpec(GRID3, 2))


def test_chi_star_refuses_a_negative_cutoff(m):
    spec = BasisSpec(GRID3, 2)
    for cutoff in (-1.0, -1e-300):
        with pytest.raises(ConfigError, match="must not be negative"):
            chi_star(m, ["g"], cutoff, spec)
    assert chi_star(m, ["g"], 0.0, spec) == 0.0


@pytest.mark.parametrize("cutoff", [1e300, 10.0], ids=["huge", "ten"])
def test_chi_star_solves_the_family_once(monkeypatch, cutoff):
    # Fisher does not depend on the scale, so one family solve on the
    # model as given serves every t, and no model is scaled
    solves = []
    solve = conjugate._solve

    def counted(*args, **kwargs):
        solves.append(list(args[1]))
        return solve(*args, **kwargs)

    def scaled(*args):
        raise AssertionError("chi_star scaled the model")

    monkeypatch.setattr(conjugate, "_solve", counted)
    monkeypatch.setattr(ModelSpec, "scaled", scaled)
    value = chi_star(pair_model(), ["1", "2"], cutoff, BasisSpec(GRID3, 2))
    assert math.isfinite(value)
    assert solves == [["1", "2"]]


def test_chi_star_is_the_closed_form(m):
    # the integrand (n/(1+t) - F)/2 integrates to (n log(1+c) - F c)/2;
    # F is 1 on this model, and the same on the model scaled by 2 and 4
    spec = BasisSpec(GRID3, 2)
    cutoff = 4.0
    fisher = fisher_multi(m, ["g"], spec)
    value = chi_star(m, ["g"], cutoff, spec)
    assert value == 0.5 * (math.log1p(cutoff) - fisher * cutoff)
    assert value == pytest.approx(0.5 * (math.log(5.0) - 4.0), abs=1e-12)
    for scale in (2.0, 4.0):
        assert chi_star(m.scaled(scale), ["g"], cutoff, spec) == \
            pytest.approx(value, abs=1e-12)


def test_modular_covariance_zero_shift(m):
    spec = BasisSpec(GRID3, 2)
    assert modular_covariance_check(m, "g", 0, spec) < 1e-12


def test_modular_covariance_half_shift(m):
    spec = BasisSpec(GRID3, 2)
    assert modular_covariance_check(m, "g", "1/2", spec) < 1e-8


def test_modular_covariance_random_shifts(m):
    spec = BasisSpec(GRID3, 2)
    rng = random.Random(31)
    for _ in range(5):
        s = Fraction(rng.randint(-4, 4), 4)
        assert modular_covariance_check(m, "g", s, spec) < 1e-8


def test_modular_covariance_tracial_model():
    # the flow fixes the generator, so every shift is covariant through
    # the time collapse
    mt = tracial_model()
    spec = BasisSpec(GRID3, 2)
    assert modular_covariance_check(mt, "g", "1/2", spec) < 1e-12
    sol = solve_conjugate(mt, "g", spec.shifted(Fraction(1, 2)),
                          target_time=Fraction(1, 2))
    assert sol.coefficient_map() == {(x("g", 0),): 1 + 0j}


def test_mixed_tracial_and_flowing_generators():
    mixed = mixed_model()
    spec = BasisSpec(GRID3, 2)
    for target, other in (("t", "q"), ("q", "t")):
        sol = solve_conjugate(mixed, target, spec, b_gens=(other,))
        big = {w: c for w, c in sol.coefficient_map().items()
               if abs(c) > 1e-9}
        assert set(big) == {(x(target, 0),)}
        assert abs(big[(x(target, 0),)] - 1) < 1e-8
        assert sol.residual < 1e-9
    assert fisher_multi(mixed, ["t", "q"], spec) == pytest.approx(
        2.0, abs=1e-8
    )


# the L2 audits work in Fock coordinates; their symbolic definitions (in
# tests/oracles.py) multiply polynomials and evaluate the state word by
# word.  Both are compared on the solves and on random coefficients, where
# the audited quantity is far from 0.
AUDIT_TOL = 1e-12


def audit_cases():
    return [
        (two_atom_model(), "g", (), BasisSpec(GRID5, 3)),
        (tracial_model(), "g", (), BasisSpec(GRID5, 3)),
        (mixed_model(), "q", ("t",), BasisSpec(GRID3, 2)),
        (pair_model(), "1", ("2",), BasisSpec(GRID3, 2)),
    ]


def random_coefficients(sol, seed):
    rng = np.random.default_rng(seed)
    n = len(sol.basis_words)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    # coefficients is computed on first read; an attribute set on a copy
    # takes its place
    rough = copy.copy(sol)
    object.__setattr__(rough, "coefficients", c)
    return rough


@pytest.mark.parametrize("case", range(4))
def test_self_adjoint_defect_matches_symbolic_form(case):
    model, target, b_gens, spec = audit_cases()[case]
    sol = solve_conjugate(model, target, spec, b_gens=b_gens)
    assert abs(self_adjoint_defect(sol)
               - symbolic_self_adjoint_defect(model, sol)) <= AUDIT_TOL
    rough = random_coefficients(
        solve_conjugate(model, target, BasisSpec(GRID3, 2), b_gens=b_gens),
        case)
    want = symbolic_self_adjoint_defect(model, rough)
    assert want > 1
    assert self_adjoint_defect(rough) == pytest.approx(
        want, rel=AUDIT_TOL)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_reversal_matches_the_word_lookup(degree):
    # one generator, two, one collapsed to a single letter, and both kinds
    for model, target, b_gens in ((two_atom_model(), "g", ()),
                                  (pair_model(), "1", ("2",)),
                                  (tracial_model(), "g", ()),
                                  (mixed_model(), "q", ("t",))):
        words = enumerate_basis(model, target, BasisSpec(GRID3, degree),
                                b_gens)
        assert conjugate._reversal(words).tolist() == reversal_by_lookup(words)


@pytest.mark.parametrize("case", range(4))
def test_the_audits_read_the_fock_vectors_of_their_solve(monkeypatch, case):
    # each audit's norm is, byte for byte, the norm through V rebuilt from
    # the basis alphabet, and no audit builds a V
    model, target, b_gens, spec = audit_cases()[case]
    s = Fraction(1, 2)
    sol = solve_conjugate(model, target, spec, b_gens)
    shifted = solve_conjugate(model, target, spec.shifted(s), b_gens,
                              target_time=s)
    alone = solve_conjugate(model, target, spec)
    norm, norms = conjugate._basis_norm, []

    def recorded(solution, coefficients):
        norms.append((solution, coefficients))
        return norm(solution, coefficients)

    def built(*args):
        raise AssertionError("an audit built Fock vectors")

    monkeypatch.setattr(conjugate, "_basis_norm", recorded)
    monkeypatch.setattr(conjugate, "fock_vectors", built)
    got = [self_adjoint_defect(sol),
           covariance_distance(sol, shifted),
           embedded_distance(alone, sol)]
    monkeypatch.undo()
    assert [n[0] for n in norms] == [sol, shifted, sol]
    assert got == [rebuilt_basis_norm(model, solution, c)
                   for solution, c in norms]


@pytest.mark.parametrize("case", range(3))
def test_covariance_residual_matches_symbolic_form(case):
    model, target, b_gens, _ = audit_cases()[case]
    spec = BasisSpec(GRID3, 2)
    for s in (Fraction(0), Fraction(1, 2), Fraction(-3, 4)):
        fock = covariance_distance(
            solve_conjugate(model, target, spec, b_gens),
            solve_conjugate(model, target, spec.shifted(s), b_gens,
                            target_time=s))
        assert abs(fock - symbolic_covariance_residual(model, target, s,
                                                       spec, b_gens)
                   ) <= AUDIT_TOL
        # the Fock form on coefficients that are not covariant
        sol0 = random_coefficients(
            solve_conjugate(model, target, spec, b_gens), 1)
        sol1 = random_coefficients(
            solve_conjugate(model, target, spec.shifted(s), b_gens,
                            target_time=s), 2)
        want = l2_distance(model, solution_polynomial(sol0).shift(s),
                           solution_polynomial(sol1))
        got = _basis_norm(sol1, sol0.coefficients - sol1.coefficients)
        assert want > 1
        assert got == pytest.approx(want, rel=AUDIT_TOL)


@pytest.mark.parametrize("case", range(3))
def test_shifted_basis_words_are_the_shifted_problems_words(case):
    # the covariance audit pairs the two solves' coefficients by position;
    # letters of flow-fixed generators stay at time 0
    model, target, b_gens, _ = audit_cases()[case]
    spec = BasisSpec(GRID5, 2)
    tracial = {g.gen_id for g in model.generators if g.is_tracial}
    words0 = enumerate_basis(model, target, spec, b_gens)
    for s in (Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3)):
        words1 = enumerate_basis(model, target, spec.shifted(s), b_gens,
                                 target_time=s)
        shifted = [tuple(l if l.gen in tracial
                         else l._replace(time=l.time + s) for l in w)
                   for w in words0]
        assert shifted == words1


def test_embedded_distance_matches_symbolic_form():
    mp = pair_model()
    spec = BasisSpec(GRID3, 2)
    alone = solve_conjugate(mp, "1", spec, b_gens=())
    enlarged = solve_conjugate(mp, "1", spec, b_gens=("2",))
    for inner, outer in ((alone, enlarged),
                         (random_coefficients(alone, 3),
                          random_coefficients(enlarged, 4))):
        want = l2_distance(mp, solution_polynomial(inner),
                           solution_polynomial(outer))
        got = embedded_distance(inner, outer)
        assert abs(got - want) <= AUDIT_TOL * max(1.0, want)
