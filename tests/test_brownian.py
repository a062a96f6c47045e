import random
from fractions import Fraction

import pytest

from ncfisher import moments
from ncfisher.algebra import x, y
from ncfisher.brownian import expand_state
from ncfisher.derivation import FamilyError
from ncfisher.model import two_atom_model
from ncfisher.moments import evaluate_state
from ncfisher.sampling import HALF_GRID
from oracles import NcPoly, expectation, solution_polynomial


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


def even_word(rng, max_len):
    """Up to ``max_len`` letters of g, an even number, at half-grid times."""
    n = rng.randint(0, max_len)
    return tuple(x("g", rng.choice(HALF_GRID)) for _ in range(n - n % 2))


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
        w = even_word(rng, 6)
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


def test_expansion_builds_one_kernel(m, monkeypatch):
    # the closed form evaluates the word once; enumerating flipped words
    # would run one pairing pass per set of flipped letters
    passes = []
    original = moments.interval_states

    def counted(m, letters, *args):
        passes.append(len(letters))
        return original(m, letters, *args)

    monkeypatch.setattr(moments, "interval_states", counted)
    w = tuple(x("g", Fraction(k % 5, 2)) for k in range(12))
    exp = expand_state(m, w, 6)
    assert passes == [12]
    assert len(exp) == 13


def position_sum_residual(m, w, xi):
    """Residual and scale of the first-order identity, c1 against half the
    sum of the states with ``xi`` substituted at each position: c1 from the
    order-1 expansion and one state evaluation per position."""
    letters = tuple(w)
    c1 = expand_state(m, letters, 1).get(1, 0j)  # no key for an empty w
    values = [
        expectation(m, NcPoly.word(letters[:k])
                    * xi[l.gen].shift(l.time)
                    * NcPoly.word(letters[k + 1:]))
        for k, l in enumerate(letters)
    ]
    return (abs(c1 - 0.5 * sum(values, 0j)),
            abs(c1) + 0.5 * sum(abs(v) for v in values))


def test_gradient_identity_solver_output(m):
    # the first-order coefficient is half the sum of the substitutions of
    # the solver's conjugate variable at each letter
    from ncfisher.conjugate import BasisSpec, solve_conjugate

    sol = solve_conjugate(
        m, "g", BasisSpec(tuple(Fraction(k, 2) for k in range(-1, 2)), 2)
    )
    xi = {"g": solution_polynomial(sol)}
    rng = random.Random(19)
    for _ in range(10):
        w = even_word(rng, 4)
        residual, _ = position_sum_residual(m, w, xi)
        assert residual < 1e-8
