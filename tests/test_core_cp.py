import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from ncfisher.algebra import x, y
from ncfisher.core_cp import (
    CoreWord,
    _max_abs,
    conditional_expectation,
    core_differentiate,
    eta_inner,
    eta_map,
    factoriality_bound,
    verify_core_identity,
)
from ncfisher.model import two_atom_model
from ncfisher.sampling import (HALF_GRID, TIME_DEN, random_core_word,
                               random_time)
from oracles import literal_eta_inner


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


@pytest.fixture(scope="module")
def mh(m):
    """The two-atom model on the ticks of the sampled draws."""
    return m.with_time_den(TIME_DEN)


#: 1 (x) 1, as the sum of simple tensors {(a, b): coefficient}
ONE = {(CoreWord.one(), CoreWord.one()): 1 + 0j}


def rng_trig(rng, n_terms=3):
    return {rng.choice(HALF_GRID):
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(n_terms)}


def add(p: dict, q: dict) -> dict:
    """p + q, without the keys whose coefficients cancel."""
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0j) + c
    return {k: c for k, c in out.items() if c != 0}


def scale(p: dict, c) -> dict:
    return {k: v * c for k, v in p.items()}


def distance(p: dict, q: dict) -> float:
    """The largest coefficient magnitude of p - q."""
    return _max_abs({k: p.get(k, 0j) - q.get(k, 0j) for k in {**p, **q}})


def act(left, e, right):
    """left . e . right in the bimodule: each a (x) b becomes
    (left a) (x) (b right); both products are one to one on core words."""
    return {(left * a, b * right): c for (a, b), c in e.items()}


def test_trig_poly_group_law(m):
    # U_s U_t = U_{s+t} is a product of core words; a trigonometric
    # polynomial is the coefficient map {t: c} of a sum of the U_t
    assert CoreWord.u("1/2") * CoreWord.u("1/2") == CoreWord.u(1)
    assert conditional_expectation(
        m, CoreWord.u("1/2") * CoreWord.u("1/2")) == {1: 1}


def test_normal_form_defining_relation():
    cw = CoreWord.u("1/2") * CoreWord((x("g", "1/4"),)) * CoreWord.u("-1/2")
    word, r = cw.word, cw.r
    assert word == (x("g", "3/4"),)
    assert r == 0


def test_normal_form_one_commutation():
    x0 = CoreWord((x("g", 0),))
    cw = x0 * CoreWord.u(1) * x0 * CoreWord.u(-1)
    word, r = cw.word, cw.r
    assert word == (x("g", 0), x("g", 1))
    assert r == 0


def test_normal_form_pure_group():
    cw = CoreWord.u("1/2") * CoreWord.u("1/2")
    word, r = cw.word, cw.r
    assert word == ()
    assert r == 1


def test_core_word_rejects_partner_letters():
    with pytest.raises(ValueError):
        CoreWord((y("g", 0),))


def test_core_word_is_a_monomial():
    # every scalar lives in the sum that holds the core word; a core word
    # is a tuple, so an int on either side must not repeat it
    cw = CoreWord((x("g", 0),), "1/2")
    assert CoreWord._fields == ("word", "r")
    assert tuple(cw) == (cw.word, cw.r) == ((x("g", 0),), Fraction(1, 2))
    for scaled in (lambda: 2 * cw, lambda: cw * 2, lambda: cw * 1j):
        with pytest.raises(TypeError):
            scaled()
    with pytest.raises(TypeError):
        cw + cw  # not the concatenated pairs
    d = core_differentiate("g", cw * cw)
    assert len(d) == 2
    assert all(type(a) is CoreWord and type(b) is CoreWord for a, b in d)


def test_core_words_order_by_word_then_time():
    rng = random.Random(11)
    cws = [random_core_word(rng, ["g", "h"], 3) for _ in range(60)]
    assert sorted(cws) == sorted(cws, key=lambda cw: (cw.word, cw.r))


def test_core_words_hash_compare_and_order_as_their_pairs():
    # so no dict, set or sort order can differ from the (word, r) pairs'
    rng = random.Random(12)
    cws = [random_core_word(rng, ["g", "h"], 3) for _ in range(60)]
    pairs = [(cw.word, cw.r) for cw in cws]
    assert len(set(pairs)) < len(pairs)  # some draws repeat
    for cw, p in zip(cws, pairs):
        assert hash(cw) == hash(p)
        for cw2, p2 in zip(cws, pairs):
            assert (cw == cw2) == (p == p2)
            assert (cw < cw2) == (p < p2)
    assert list(dict.fromkeys(cws)) == [CoreWord._raw(*p)
                                        for p in dict.fromkeys(pairs)]


def test_core_words_survive_copy_and_repr():
    cw = CoreWord((x("g", 1), x("g", "1/2")), -2)
    assert repr(cw) == f"CoreWord(word={cw.word!r}, r=-2)"
    for copied in (copy.copy(cw), copy.deepcopy(cw),
                   pickle.loads(pickle.dumps(cw))):
        assert type(copied) is CoreWord and copied == cw


def test_expectation_examples(m):
    g = m.generators[0]
    t = Fraction(3, 4)
    assert conditional_expectation(m, CoreWord.u(t)) == {t: 1}
    x0 = CoreWord((x("g", 0),))
    sandwich = x0 * CoreWord.u(t) * x0
    assert conditional_expectation(m, sandwich) == {t: g.eta(t)}
    odd = x0 * CoreWord.u(t)
    assert conditional_expectation(m, odd) == {}


def test_expectation_normal_form_compatible(m):
    # the same element written two ways gets the same expectation
    x0 = CoreWord((x("g", 0),))
    a = CoreWord.u("1/2") * x0 * CoreWord.u("-1/2") * x0
    b = CoreWord((x("g", "1/2"),)) * x0
    assert conditional_expectation(m, a) == conditional_expectation(m, b)


def test_expectation_bimodular(mh):
    rng = random.Random(2)
    for _ in range(20):
        cw = random_core_word(rng, ["g"], 3)
        s = random_time(rng)
        t = random_time(rng)
        lhs = conditional_expectation(mh, CoreWord.u(s) * cw * CoreWord.u(t))
        # U_s (sum_r c_r U_r) U_t = sum_r c_r U_{s+r+t}
        rhs = {s + r + t: c for r, c
               in conditional_expectation(mh, cw).items()}
        assert distance(lhs, rhs) < 1e-12


def test_expectation_idempotent_on_group_part(m):
    rng = random.Random(3)
    p = rng_trig(rng)
    total = {}
    for t, c in p.items():
        # E is linear, so the scalar stays outside the core word
        total = add(total, scale(conditional_expectation(m, CoreWord.u(t)),
                                 c))
    assert distance(total, p) < 1e-12


def test_eta_map_examples(m):
    g = m.generators[0]
    assert eta_map(m, "g", {0: 1 + 0j}) == {0: g.eta(0)}
    t = Fraction(1, 2)
    assert eta_map(m, "g", {t: 1 + 0j}) == {t: g.eta(t)}


def test_eta_map_is_sandwich_expectation(m):
    rng = random.Random(4)
    x0 = CoreWord((x("g", 0),))
    for _ in range(20):
        p = rng_trig(rng)
        direct = eta_map(m, "g", p)
        sandwiched = {}
        for t, c in p.items():
            sandwiched = add(sandwiched, scale(conditional_expectation(
                m, x0 * CoreWord.u(t) * x0
            ), c))
        assert distance(direct, sandwiched) < 1e-12


def test_eta_inner_unit_tensor(m):
    g = m.generators[0]
    assert eta_inner(m, "g", ONE, ONE) == {0: g.eta(0)}


def test_eta_inner_worked_chain(m):
    g = m.generators[0]
    t, s = Fraction(1, 2), Fraction(-3, 4)
    v = {(CoreWord.u(t), CoreWord.u(-t) * CoreWord.u(s)): 1 + 0j}
    out = eta_inner(m, "g", ONE, v)
    assert distance(out, {s: g.eta(t)}) < 1e-12


def test_eta_inner_bimodule_shift_identity(mh):
    rng = random.Random(5)
    for _ in range(10):
        xs = [random_core_word(rng, ["g"], 2) for _ in range(4)]
        r = random_time(rng)
        s = random_time(rng)
        e = {(xs[0], xs[1]): 1 + 0j}
        f = {(xs[2], xs[3]): 1 + 0j}
        shifted_f = act(CoreWord.u(r), f, CoreWord.u(s))
        shifted_e = act(CoreWord.u(-r), e, CoreWord.u(-s))
        lhs = eta_inner(mh, "g", e, shifted_f)
        rhs = eta_inner(mh, "g", shifted_e, f)
        assert distance(lhs, rhs) < 1e-12


def bits(p: dict) -> dict:
    return {t: repr(c) for t, c in p.items()}


@pytest.mark.parametrize("seed", range(3))
def test_eta_inner_is_the_literal_sum_bit_for_bit(mh, seed):
    # sorted term order, conjugated left coefficients and scaled terms
    # accumulated as they are formed: every coefficient the literal sum's
    rng = random.Random(seed)

    def element():
        e = {}
        for _ in range(rng.randint(1, 4)):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            legs = (random_core_word(rng, ["g"], 3),
                    random_core_word(rng, ["g"], 3))
            e = add(e, {legs: c})
        return e

    for _ in range(10):
        u, v = element(), element()
        assert bits(eta_inner(mh, "g", u, v)) == bits(
            literal_eta_inner(mh, "g", u, v))
    for _ in range(20):
        q = random_core_word(rng, ["g"], 6)
        d = core_differentiate("g", q)
        assert bits(eta_inner(mh, "g", ONE, d)) == bits(
            literal_eta_inner(mh, "g", ONE, d))


def test_max_abs_refuses_a_nan_behind_a_larger_coefficient():
    # max(2.0, nan) is 2.0: the NaN used to pass unseen
    assert _max_abs({0: 2.0 + 0j, 1: -0.5j}) == 2.0
    assert _max_abs({}) == 0.0
    with pytest.raises(ArithmeticError, match="magnitude is nan"):
        _max_abs({0: 2.0 + 0j, 1: complex("nan")})


def test_core_derivative_examples():
    x0 = CoreWord((x("g", 0),))
    d = core_differentiate("g", x0)
    assert d == ONE
    t = Fraction(2, 3)
    d_t = core_differentiate("g", CoreWord((x("g", t),)))
    assert d_t == {(CoreWord.u(t), CoreWord.u(-t)): 1 + 0j}
    assert core_differentiate("g", CoreWord.u("1/2")) == {}
    assert core_differentiate("h", x0) == {}


def test_core_derivative_well_defined_on_rewriting():
    # U_s X_t U_{-s} and X_{t+s} are the same element; derivatives agree
    s, t = Fraction(1, 2), Fraction(1, 4)
    via_tokens = core_differentiate(
        "g", CoreWord.u(s) * CoreWord((x("g", t),)) * CoreWord.u(-s)
    )
    via_normal = core_differentiate("g", CoreWord((x("g", t + s),)))
    assert via_tokens == via_normal


def test_core_derivative_leibniz():
    rng = random.Random(6)
    for _ in range(20):
        a = random_core_word(rng, ["g"], 2)
        b = random_core_word(rng, ["g"], 2)
        lhs = core_differentiate("g", a * b)
        one = CoreWord.one()
        rhs = add(act(one, core_differentiate("g", a), b),
                  act(a, core_differentiate("g", b), one))
        assert lhs == rhs


def test_core_identity_group_word(m):
    assert verify_core_identity(m, "g", CoreWord.u("1/2")) == 0.0


def test_core_identity_worked_case(m):
    q = CoreWord((x("g", "1/2"),)) * CoreWord.u("3/4")
    assert verify_core_identity(m, "g", q) < 1e-12


def test_core_identity_random(mh):
    rng = random.Random(7)
    worst = 0.0
    for _ in range(60):
        q = random_core_word(rng, ["g"], 4)
        worst = max(worst, verify_core_identity(mh, "g", q))
    assert worst < 1e-9


def test_complete_positivity_proxy(m):
    rng = random.Random(8)
    x0 = CoreWord((x("g", 0),))
    ps = [rng_trig(rng) for _ in range(5)]

    def vec_inner(p, q):
        total = 0j
        for s, a in p.items():
            for t, b in q.items():
                e = conditional_expectation(
                    m, (x0 * CoreWord.u(s)).adjoint() * (x0 * CoreWord.u(t))
                )
                total += a.conjugate() * b * e.get(0, 0j)
        return total

    mat = np.array([[vec_inner(p, q) for q in ps] for p in ps])
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(mat).min() >= -1e-9


def test_factoriality_bound_values():
    assert factoriality_bound(0.5, 0.1) == 25.0
    for a in (0.25, 0.125, 0.5):
        assert factoriality_bound(a, 0.37) == factoriality_bound(1 - a, 0.37)
    # decreasing in delta with limit 0
    values = [factoriality_bound(0.3, d) for d in (1.0, 10.0, 100.0, 1e6)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10


def test_factoriality_bound_domain():
    with pytest.raises(ValueError):
        factoriality_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        factoriality_bound(1.0, 1.0)
    with pytest.raises(ValueError):
        factoriality_bound(0.5, 0.0)


def checked(cw: CoreWord) -> CoreWord:
    """The same core word through the validating constructor."""
    return CoreWord(cw.word, cw.r)


def assert_canonical(cw: CoreWord) -> None:
    """Equal to its checked twin, with the int tags of the draws kept
    ints through products, adjoints and derivative legs."""
    built = checked(cw)
    assert cw == built and hash(cw) == hash(built)
    assert type(cw.word) is tuple and type(cw.r) is int
    assert all(type(letter.time) is int for letter in cw.word)


@pytest.mark.parametrize("seed", range(5))
def test_raw_built_core_words_equal_checked_ones(seed):
    rng = random.Random(seed)
    for _ in range(20):
        a = random_core_word(rng, ["g", "h"], 5)
        b = random_core_word(rng, ["g", "h"], 5)
        for cw in (a * b, b * a, a.adjoint(), b.adjoint()):
            assert_canonical(cw)
        product = CoreWord(a.word + tuple(l._replace(time=l.time + a.r)
                                          for l in b.word),
                           a.r + b.r)
        assert a * b == product and hash(a * b) == hash(product)
        for gen in ("g", "h"):
            d = core_differentiate(gen, a)
            for left, right in d:
                assert_canonical(left)
                assert_canonical(right)
            legs = {(checked(left), checked(right)): c
                    for (left, right), c in d.items()}
            assert legs == d
            assert hash(frozenset(legs.items())) == hash(frozenset(d.items()))


def test_expectation_and_eta_map_hold_no_zero_coefficient(m, mh,
                                                            monkeypatch):
    rng = random.Random(9)
    for _ in range(40):
        cw = random_core_word(rng, ["g"], 4)
        for p in (conditional_expectation(mh, cw),
                  eta_map(m, "g", rng_trig(rng))):
            assert all(c != 0 for c in p.values())
    # eta vanishing at t = 1/2 drops that term
    g = type(m.generators[0])
    eta = g.eta
    monkeypatch.setattr(
        g, "eta", lambda self, t: 0j if t == Fraction(1, 2) else eta(self, t))
    out = eta_map(m, "g", {Fraction(1, 2): 1 + 0j, 1: 1 + 0j})
    assert out == {Fraction(1): m.generators[0].eta(1)}
