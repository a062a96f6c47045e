import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ncfisher.algebra
from ncfisher.algebra import (
    EMPTY_WORD,
    Letter,
    NcPoly,
    X_FAMILY,
    Y_FAMILY,
    as_time,
    word_adjoint,
    x,
    y,
)
from ncfisher.core_cp import CoreWord, EtaBimoduleElem, TrigPoly

TIMES = [Fraction(k, 2) for k in range(-2, 3)]

letters = st.builds(
    Letter,
    st.sampled_from((X_FAMILY, Y_FAMILY)),
    st.sampled_from(("a", "b")),
    st.sampled_from(TIMES),
)
words = st.lists(letters, max_size=4).map(tuple)
# Gaussian-integer coefficients keep products exact, so algebraic laws can
# be asserted as exact equality of canonical forms.
coeffs = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
polys = st.lists(st.tuples(words, coeffs), max_size=4).map(NcPoly)
shifts = st.sampled_from(TIMES)


def test_as_time_exact():
    assert as_time("3/2") == Fraction(3, 2)
    assert as_time(2) == Fraction(2)
    with pytest.raises(TypeError):
        as_time(0.5)


def test_empty_word_is_identity():
    one = NcPoly.word(EMPTY_WORD)
    assert one * one == one == 1
    assert (one * one).terms == {EMPTY_WORD: 1}


def test_single_letter_product():
    p = NcPoly.letter(x("a", 0)) * NcPoly.letter(x("a", 1))
    assert p == NcPoly.word((x("a", 0), x("a", 1)))
    assert p.terms == {(x("a", 0), x("a", 1)): 1}


def test_hand_expansion():
    x0 = NcPoly.letter(x("a", 0))
    x1 = NcPoly.letter(x("a", 1))
    left = (x0 + x1) * (x0 - x1)
    expected = (
        NcPoly.word((x("a", 0), x("a", 0)))
        - NcPoly.word((x("a", 0), x("a", 1)))
        + NcPoly.word((x("a", 1), x("a", 0)))
        - NcPoly.word((x("a", 1), x("a", 1)))
    )
    assert left == expected


def test_adjoint_reverses_and_conjugates():
    p = NcPoly.word((x("a", 0), x("a", 1)))
    assert p.adjoint() == NcPoly.word((x("a", 1), x("a", 0)))
    q = 1j * NcPoly.letter(x("a", 0))
    assert q.adjoint() == -1j * NcPoly.letter(x("a", 0))


def test_shift_examples():
    assert NcPoly.letter(x("a", 0)).shift(1) == NcPoly.letter(x("a", 1))
    p = NcPoly.word((x("a", 0), x("a", "1/2")))
    assert p.shift("-1/2") == NcPoly.word((x("a", "-1/2"), x("a", 0)))


def test_zero_coefficients_dropped():
    assert NcPoly({(x("a", 0),): 0}) == NcPoly.zero()
    p = NcPoly.letter(x("a", 0))
    assert p - p == NcPoly.zero()
    assert len(p + p) == 1


def test_sorted_terms_are_graded():
    p = NcPoly.word((x("a", 1), x("a", 0))) + 1 + NcPoly.letter(y("a", 0))
    lengths = [len(w) for w, _ in p.sorted_terms()]
    assert lengths == sorted(lengths)


@given(p=polys)
@settings(max_examples=60)
def test_adjoint_involution(p):
    assert p.adjoint().adjoint() == p


@given(p=polys, q=polys)
@settings(max_examples=60)
def test_adjoint_antihomomorphism(p, q):
    assert (p * q).adjoint() == q.adjoint() * p.adjoint()


@given(p=polys, q=polys, r=polys)
@settings(max_examples=60)
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(p=polys, q=polys, r=polys)
@settings(max_examples=60)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(p=polys)
def test_shift_by_zero_is_identity(p):
    assert p.shift(0) == p


@given(p=polys, s=shifts, t=shifts)
@settings(max_examples=60)
def test_shift_additive(p, s, t):
    assert p.shift(s).shift(t) == p.shift(s + t)


@given(p=polys, q=polys, s=shifts)
@settings(max_examples=60)
def test_shift_is_multiplicative(p, q, s):
    assert (p * q).shift(s) == p.shift(s) * q.shift(s)


@given(w=words)
def test_word_adjoint_involution(w):
    assert word_adjoint(word_adjoint(w)) == w


def test_module_doctest():
    failed, attempted = doctest.testmod(ncfisher.algebra)
    assert attempted > 0 and failed == 0


def _eta_elem(pairs):
    return EtaBimoduleElem((c, a, b) for (a, b), c in pairs)


_XU = CoreWord((x("g", 1),)) * CoreWord.u(1)
# constructor from (key, coefficient) pairs, a key, another spelling of
# the same key, a second key, and the key of the scalar unit (None: none)
SPARSE_SUMS = {
    "NcPoly": (NcPoly, (x("g", 0),), [x("g", 0)],
               (x("g", 0), y("g", "1/2")), ()),
    "TrigPoly": (TrigPoly, Fraction(1, 2), "1/2", Fraction(-1), 0),
    "EtaBimoduleElem": (_eta_elem, (_XU, CoreWord.one()),
                        (CoreWord.u(1) * CoreWord((x("g", 0),)),
                         CoreWord.one()),
                        (CoreWord.one(), CoreWord.u(-1)), None),
}


@pytest.mark.parametrize("name", sorted(SPARSE_SUMS))
def test_sparse_sum_canonical_form(name):
    make, k1, k1_again, k2, unit = SPARSE_SUMS[name]
    a = make([(k1, 2), (k2, 1j), (k1_again, 3), (k2, -1j)])
    assert len(a) == 1 and list(a.terms.values()) == [5]
    assert a == make([(k1, 5)])
    zero = a + (-a)
    assert len(zero) == 0 and zero == type(a).zero()
    b = make([(k1, 1), (k2, -2)])
    assert a - b == a + (-b)
    assert 2 * a == a * 2 == a + a
    assert 0 * a == type(a).zero()
    b_again = make([(k2, -2), (k1_again, 1)])
    assert b_again == b and hash(b_again) == hash(b)
    if unit is None:
        assert a != 5
        with pytest.raises(TypeError):
            a + 1
    else:
        assert make([(unit, 3)]) == 3
        assert b + 1 == 1 + b == b + make([(unit, 1)])
        assert -(b - 1) == 1 + (-b)
