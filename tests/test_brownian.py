import random
from fractions import Fraction

import pytest

from ncfisher import brownian, moments
from ncfisher.algebra import NcPoly, x, y
from ncfisher.brownian import expand_state, verify_gradient_expansion
from ncfisher.derivation import FamilyError
from ncfisher.model import two_atom_model
from ncfisher.moments import evaluate_state, expectation
from ncfisher.sampling import HALF_GRID, random_word
from oracles import solution_polynomial


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


def test_two_letter_expansion(m):
    g = m.generators[0]
    exp = expand_state(m, (x("g", 0), x("g", 0)), 3)
    assert exp[0] == g.eta(0)
    assert exp[1] == g.eta(0)
    assert exp[Fraction(1, 2)] == 0
    assert sorted(exp) == [Fraction(0), Fraction(1, 2), Fraction(1)]


def test_displayed_identity_exact_as_polynomials(m):
    # state(X_eps sigma_t(X_eps)) = eta(t) * (1 + eps), coefficient by
    # coefficient, at every grid time
    g = m.generators[0]
    for t in HALF_GRID:
        exp = expand_state(m, (x("g", 0), x("g", t)), 2)
        assert exp[0] == g.eta(t)
        assert exp[1] == g.eta(t)
        assert exp[Fraction(1, 2)] == 0


def test_single_letter_expansion_vanishes(m):
    exp = expand_state(m, (x("g", 0),), 2)
    assert all(c == 0 for c in exp.values())


def test_first_order_counts_pairs(m):
    w = (x("g", 0), x("g", 1), x("g", 0), x("g", 1))
    exp = expand_state(m, w, 1)
    assert exp[1] == pytest.approx(2 * evaluate_state(m, w), abs=1e-12)


def test_odd_powers_vanish_and_constant_term(m):
    rng = random.Random(17)
    for _ in range(25):
        w = random_word(rng, ["g"], 6, even=True)
        exp = expand_state(m, w, 3)
        assert exp[0] == evaluate_state(m, w)
        for p, c in exp.items():
            if p.denominator == 2:
                assert c == 0


def test_expansion_value_at_eps(m):
    g = m.generators[0]
    # the truncated series summed at eps: state(X_eps X_eps) = (1 + eps) eta(0)
    exp = expand_state(m, (x("g", 0), x("g", 0)), 2)
    value = sum(c * 0.25 ** float(p) for p, c in exp.items())
    assert value == pytest.approx(g.eta(0) * 1.25, abs=1e-12)


def test_rejects_partner_letters_and_bad_order(m):
    with pytest.raises(FamilyError):
        expand_state(m, (y("g", 0),), 1)
    with pytest.raises(ValueError):
        expand_state(m, (x("g", 0),), -1)


def test_gradient_identity_two_letters(m):
    xi = {"g": NcPoly.letter(x("g", 0))}
    assert verify_gradient_expansion(m, (x("g", 0), x("g", 0)), xi) < 1e-14
    assert verify_gradient_expansion(m, (x("g", 0), x("g", 1)), xi) < 1e-14


def test_gradient_identity_random_words(m):
    xi = {"g": NcPoly.letter(x("g", 0))}
    rng = random.Random(18)
    worst = 0.0
    for _ in range(40):
        w = random_word(rng, ["g"], 6, even=True)
        worst = max(worst, verify_gradient_expansion(m, w, xi))
    assert worst < 1e-9


def test_gradient_identity_solver_output(m):
    # the solver's polynomial works as the substituted variable too
    from ncfisher.conjugate import BasisSpec, solve_conjugate

    sol = solve_conjugate(
        m, "g", BasisSpec(tuple(Fraction(k, 2) for k in range(-1, 2)), 2)
    )
    xi = {"g": solution_polynomial(sol)}
    rng = random.Random(19)
    for _ in range(10):
        w = random_word(rng, ["g"], 4, even=True)
        assert verify_gradient_expansion(m, w, xi) < 1e-8


def test_expansion_builds_one_kernel(m, monkeypatch):
    # the closed form evaluates the word once; enumerating flipped words
    # would run one pairing pass per set of flipped letters
    calls = dict.fromkeys(("word_kernel", "pairing_sum"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(moments, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(moments, name, counted)
        monkeypatch.setattr(brownian, name, counted, raising=False)
    w = tuple(x("g", Fraction(k % 5, 2)) for k in range(12))
    exp = expand_state(m, w, 6)
    assert calls == {"word_kernel": 1, "pairing_sum": 1}
    assert len(exp) == 13


def position_sum_residual(m, w, xi):
    """The check by its definition: c1 from the order-1 expansion and one
    state evaluation per position."""
    letters = tuple(w)
    c1 = expand_state(m, letters, 1)[1]
    values = [
        expectation(m, NcPoly.word(letters[:k])
                    * xi[l.gen].shift(l.time)
                    * NcPoly.word(letters[k + 1:]))
        for k, l in enumerate(letters)
    ]
    return (abs(c1 - 0.5 * sum(values, 0j)),
            abs(c1) + 0.5 * sum(abs(v) for v in values))


def test_gradient_check_evaluates_each_word_once(m, monkeypatch):
    from ncfisher.conjugate import BasisSpec, solve_conjugate

    evaluated = []

    def counted(model, letters, _original=moments._phi):
        evaluated.append(letters)
        return _original(model, letters)

    monkeypatch.setattr(moments, "_phi", counted)
    solved = solution_polynomial(solve_conjugate(
        m, "g", BasisSpec(tuple(Fraction(k, 2) for k in range(-1, 2)), 2)
    ))
    rng = random.Random(20)
    for xi in ({"g": NcPoly.letter(x("g", 0))}, {"g": solved}):
        for _ in range(5):
            w = random_word(rng, ["g"], 8, even=True)
            want = position_sum_residual(m, w, xi)
            evaluated.clear()
            got = verify_gradient_expansion(m, w, xi)
            # the same sums, in the same order, to the last bit
            assert (float(got), got.scale) == want
            assert len(evaluated) == len(set(evaluated))
            assert evaluated[0] == w
            if len(xi["g"]) == 1:
                # every substituted word is w itself
                assert evaluated == [w]
            state = evaluate_state(m, w)
            evaluated.clear()
            again = verify_gradient_expansion(m, w, xi, state)
            assert (float(again), again.scale) == want
            assert w not in evaluated
