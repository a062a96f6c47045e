import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfisher.algebra import NcPoly, X_FAMILY, Y_FAMILY, x, y
from ncfisher.derivation import (
    FamilyError,
    differentiate,
    verify_insertion_identity,
)
from ncfisher.model import tracial_model, two_atom_model
from ncfisher.moments import brute_force_oracle, evaluate_state, expectation
from ncfisher.sampling import TIME_DEN, random_word
from oracles import pair_with_y

TIMES = [Fraction(k, 2) for k in range(-2, 3)]

x_letters = st.builds(lambda t: x("g", t), st.sampled_from(TIMES))
x_words = st.lists(x_letters, max_size=4).map(tuple)
coeffs = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
x_polys = st.lists(st.tuples(x_words, coeffs), max_size=3).map(NcPoly)
# words in the differentiated generator "g" and a constant one, "h"
gh_words = st.lists(
    st.builds(x, st.sampled_from("gh"), st.sampled_from(TIMES)), max_size=5
).map(tuple)


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


def test_generator_case():
    d = differentiate("g", NcPoly.letter(x("g", "3/2")))
    assert d == NcPoly.letter(y("g", "3/2"))


def test_leibniz_by_hand():
    d = differentiate("g", NcPoly.word((x("g", 0), x("g", 1))))
    expected = NcPoly.word((y("g", 0), x("g", 1))) + NcPoly.word(
        (x("g", 0), y("g", 1))
    )
    assert d == expected


def test_other_generators_are_constants():
    d = differentiate("h", NcPoly.word((x("g", 0), x("g", 2))))
    assert d == NcPoly.zero()


def test_rejects_partner_letters():
    with pytest.raises(FamilyError):
        differentiate("g", NcPoly.word((y("g", 0),)))


@given(p=x_polys, q=x_polys)
@settings(max_examples=60)
def test_leibniz_rule(p, q):
    lhs = differentiate("g", p * q)
    rhs = differentiate("g", p) * q + p * differentiate("g", q)
    assert lhs == rhs


@given(p=x_polys, s=st.sampled_from(TIMES))
@settings(max_examples=60)
def test_modular_covariance(p, s):
    assert differentiate("g", p.shift(s)) == differentiate("g", p).shift(s)


@given(p=x_polys)
@settings(max_examples=60)
def test_star_derivation(p):
    assert differentiate("g", p.adjoint()) == differentiate("g", p).adjoint()


@given(w=gh_words, c=coeffs.filter(bool))
@settings(max_examples=60)
def test_one_partner_letter_at_the_replaced_time(w, c):
    d = differentiate("g", NcPoly.word(w, c))
    # one word per occurrence of the generator, each with coefficient c
    assert len(d) == sum(letter.gen == "g" for letter in w)
    for dw, cd in d.terms.items():
        [k] = [i for i, letter in enumerate(dw) if letter.family == Y_FAMILY]
        assert dw[k].gen == "g" and cd == c
        assert dw[:k] + (dw[k]._replace(family=X_FAMILY),) + dw[k + 1:] == w


def test_pair_with_y_single_letter(m):
    g = m.generators[0]
    val = pair_with_y(m, "g", differentiate("g", NcPoly.letter(x("g", 0))))
    assert val == pytest.approx(g.eta(0), abs=1e-12)


def test_pair_with_y_parity_zero(m):
    val = pair_with_y(
        m, "g", differentiate("g", NcPoly.word((x("g", 0), x("g", 1))))
    )
    assert val == 0


def test_pair_with_y_three_letters_against_oracle(m):
    # the three mixed words the derivative produces, summed by the oracle
    p_word = (x("g", 0), x("g", 1), x("g", 0))
    val = pair_with_y(m, "g", differentiate("g", NcPoly.word(p_word)))
    words = [
        (y("g", 0), y("g", 0), x("g", 1), x("g", 0)),
        (y("g", 0), x("g", 0), y("g", 1), x("g", 0)),
        (y("g", 0), x("g", 0), x("g", 1), y("g", 0)),
    ]
    expected = sum(brute_force_oracle(m, w) for w in words)
    assert val == pytest.approx(expected, abs=1e-12)
    # and it matches the pairing against the known conjugate variable
    direct = evaluate_state(m, (x("g", 0),) + p_word)
    assert val == pytest.approx(direct, abs=1e-12)


def test_pair_with_y_reference_time(m):
    g = m.generators[0]
    e = differentiate("g", NcPoly.letter(x("g", "1/2")))
    assert pair_with_y(m, "g", e, y_time="1/2") == pytest.approx(
        g.eta(0), abs=1e-12
    )


def test_insertion_identity_trivial(m):
    one = NcPoly.word(())
    assert verify_insertion_identity(m, "g", one, one) == pytest.approx(
        0.0, abs=1e-14
    )


def test_insertion_identity_one_sided(m):
    p = NcPoly.letter(x("g", 0))
    assert verify_insertion_identity(m, "g", p, NcPoly.word(())) < 1e-12


def _three_terms(rng):
    # words of one, two and three letters, so that both pairings see
    # words of even length
    return NcPoly(
        (tuple(x("g", rng.choice(TIMES)) for _ in range(k)),
         complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for k in (1, 2, 3)
    )


@pytest.mark.parametrize("seed", range(5))
def test_insertion_terms_match_symbolic_products(m, seed):
    # the word-by-word pairings against the products formed in NcPoly; the
    # residual and its scale expose the two terms through |lhs - t1 - t2|
    # and |lhs| + |t1| + |t2|
    rng = random.Random(seed)
    p, q = _three_terms(rng), _three_terms(rng)
    y0 = NcPoly.letter(y("g", 0))
    t1 = expectation(m, p * y0 * differentiate("g", q))
    t2 = expectation(m, differentiate("g", p) * y0 * q)
    assert t1 != 0 and t2 != 0
    lhs = expectation(m, p * NcPoly.letter(x("g", 0)) * q)
    scale = abs(lhs) + abs(t1) + abs(t2)
    res = verify_insertion_identity(m, "g", p, q)
    assert abs(res.scale - scale) <= 1e-12 * scale
    assert abs(res - abs(lhs - t1 - t2)) <= 1e-12 * scale


def test_insertion_identity_random_suite(m):
    # the draws' tags count ticks of 1/TIME_DEN
    mh = m.with_time_den(TIME_DEN)
    rng = random.Random(21)
    worst = 0.0
    for _ in range(60):
        p = NcPoly.word(random_word(rng, ["g"], 4))
        q = NcPoly.word(random_word(rng, ["g"], 4))
        worst = max(worst, verify_insertion_identity(mh, "g", p, q))
    assert worst < 1e-9


def test_insertion_identity_tracial():
    mt = tracial_model()
    rng = random.Random(22)
    for _ in range(20):
        # up to three letters, all at time 0
        p = NcPoly.word((x("g", 0),) * rng.randint(0, 3))
        q = NcPoly.word((x("g", 0),) * rng.randint(0, 3))
        assert verify_insertion_identity(mt, "g", p, q) < 1e-9
