import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfisher import cli, sampling, suite
from ncfisher.algebra import X_FAMILY, Y_FAMILY, x, y
from ncfisher.derivation import (
    FamilyError,
    differentiate,
    verify_insertion_identity,
)
from ncfisher.model import tracial_model, two_atom_model
from ncfisher.moments import brute_force_oracle, evaluate_state
from ncfisher.sampling import TIME_DEN, random_word
from oracles import (NcPoly, derivative, expectation, insertion_by_products,
                     pair_with_y)

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
    d = differentiate("g", (x("g", "3/2"),))
    assert d == {(y("g", "3/2"),): 1}


def test_leibniz_by_hand():
    d = differentiate("g", (x("g", 0), x("g", 1)))
    expected = {(y("g", 0), x("g", 1)): 1, (x("g", 0), y("g", 1)): 1}
    assert d == expected


def test_other_generators_are_constants():
    d = differentiate("h", (x("g", 0), x("g", 2)))
    assert d == {}


def test_rejects_partner_letters():
    with pytest.raises(FamilyError):
        differentiate("g", (y("g", 0),))


# the laws of the derivation on polynomials, by its linear extension
@given(p=x_polys, q=x_polys)
@settings(max_examples=60)
def test_leibniz_rule(p, q):
    lhs = derivative("g", p * q)
    rhs = derivative("g", p) * q + p * derivative("g", q)
    assert lhs == rhs


@given(p=x_polys, s=st.sampled_from(TIMES))
@settings(max_examples=60)
def test_modular_covariance(p, s):
    assert derivative("g", p.shift(s)) == derivative("g", p).shift(s)


@given(p=x_polys)
@settings(max_examples=60)
def test_star_derivation(p):
    assert derivative("g", p.adjoint()) == derivative("g", p).adjoint()


@given(w=gh_words, c=coeffs.filter(bool))
@settings(max_examples=60)
def test_one_partner_letter_at_the_replaced_time(w, c):
    d = derivative("g", NcPoly.word(w, c))
    # one word per occurrence of the generator, each with coefficient c
    assert len(d) == sum(letter.gen == "g" for letter in w)
    assert differentiate("g", w) == {dw: 1 for dw in d.terms}
    for dw, cd in d.terms.items():
        [k] = [i for i, letter in enumerate(dw) if letter.family == Y_FAMILY]
        assert dw[k].gen == "g" and cd == c
        assert dw[:k] + (dw[k]._replace(family=X_FAMILY),) + dw[k + 1:] == w


def test_pair_with_y_single_letter(m):
    g = m.generators[0]
    val = pair_with_y(m, "g", differentiate("g", (x("g", 0),)))
    assert val == pytest.approx(g.eta(0), abs=1e-12)


def test_pair_with_y_parity_zero(m):
    val = pair_with_y(m, "g", differentiate("g", (x("g", 0), x("g", 1))))
    assert val == 0


def test_pair_with_y_three_letters_against_oracle(m):
    # the three mixed words the derivative produces, summed by the oracle
    p_word = (x("g", 0), x("g", 1), x("g", 0))
    val = pair_with_y(m, "g", differentiate("g", p_word))
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
    e = differentiate("g", (x("g", "1/2"),))
    assert pair_with_y(m, "g", e, y_time="1/2") == pytest.approx(
        g.eta(0), abs=1e-12
    )


def test_insertion_identity_trivial(m):
    assert verify_insertion_identity(m, "g", (), ()) == pytest.approx(
        0.0, abs=1e-14
    )


def test_insertion_identity_one_sided(m):
    assert verify_insertion_identity(m, "g", (x("g", 0),), ()) < 1e-12


def _word_pair(rng):
    # p of one or three letters and q of two, so that p X_0 q and both
    # pairings are words of even length
    def word(k):
        return tuple(x("g", rng.choice(TIMES)) for _ in range(k))
    return word(rng.choice((1, 3))), word(2)


@pytest.mark.parametrize("seed", range(5))
def test_insertion_terms_match_symbolic_products(m, seed):
    # the pairings over the derivative dicts against the products formed
    # in NcPoly; the residual and its scale expose the two terms through
    # |lhs - t1 - t2| and |lhs| + |t1| + |t2|
    rng = random.Random(seed)
    p, q = _word_pair(rng)
    pp, qq = NcPoly.word(p), NcPoly.word(q)
    y0 = NcPoly.letter(y("g", 0))
    t1 = expectation(m, pp * y0 * derivative("g", qq))
    t2 = expectation(m, derivative("g", pp) * y0 * qq)
    assert t1 != 0 and t2 != 0
    lhs = expectation(m, pp * NcPoly.letter(x("g", 0)) * qq)
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
        p = random_word(rng, ["g"], 4)
        q = random_word(rng, ["g"], 4)
        worst = max(worst, verify_insertion_identity(mh, "g", p, q))
    assert worst < 1e-9


def test_insertion_identity_tracial():
    mt = tracial_model()
    rng = random.Random(22)
    for _ in range(20):
        # up to three letters, all at time 0
        p = (x("g", 0),) * rng.randint(0, 3)
        q = (x("g", 0),) * rng.randint(0, 3)
        assert verify_insertion_identity(mt, "g", p, q) < 1e-9


def test_sampled_residuals_equal_the_product_form_bit_for_bit(monkeypatch,
                                                              capsys):
    # every pair that verify-lemma2 at seeds 0-3 and the suite's
    # insertion_identity check draw, as the run checks it, against the
    # polynomial form with p X_0 q formed as a product
    checked = []

    def recorded(m, gen_id, p, q, etas=None):
        r = verify_insertion_identity(m, gen_id, p, q, etas)
        checked.append((m, gen_id, p, q, r))
        return r

    monkeypatch.setattr(sampling, "verify_insertion_identity", recorded)
    for seed in range(4):
        assert cli.run(["verify-lemma2", "--seed", str(seed)]) == 0
        suite.check_insertion_identity(suite.SuiteContext.fresh(seed))
    capsys.readouterr()
    assert len(checked) > 600
    tables = {}
    for m, gen_id, p, q, r in checked:
        want = insertion_by_products(m, gen_id, NcPoly.word(p),
                                     NcPoly.word(q), tables.setdefault(m, {}))
        assert (float(r), r.scale) == (float(want), want.scale), (p, q)
