import random
from fractions import Fraction

import numpy as np
import pytest

from ncfisher.algebra import NcPoly, x, y
from ncfisher.core_cp import (
    CoreWord,
    EtaBimoduleElem,
    TrigPoly,
    conditional_expectation,
    core_differentiate,
    eta_inner,
    eta_map,
    factoriality_bound,
    verify_core_identity,
)
from ncfisher.model import two_atom_model
from ncfisher.sampling import HALF_GRID, random_core_word


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


def rng_trig(rng, n_terms=3, exact=False):
    def coeff():
        if exact:
            return complex(rng.randint(-3, 3), rng.randint(-3, 3))
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    return TrigPoly({rng.choice(HALF_GRID): coeff() for _ in range(n_terms)})


def act(left, e, right):
    """left . e . right in the bimodule: each a (x) b becomes
    (left a) (x) (b right)."""
    return EtaBimoduleElem((c, left * a, b * right) for c, a, b in e)


def test_trig_poly_group_law():
    assert TrigPoly({"1/2": 1}) * TrigPoly({"1/2": 1}) == TrigPoly({1: 1})
    assert TrigPoly({1: 1}) * TrigPoly({-1: 1}) == TrigPoly({0: 1}) == 1
    assert TrigPoly({"1/3": 1}).adjoint() == TrigPoly({"-1/3": 1})
    p = TrigPoly({1: 1}) + 2 * TrigPoly({0: 1})
    assert p.terms == {1: 1, 0: 2}
    assert p - p == TrigPoly.zero()


def test_trig_poly_star_algebra():
    rng = random.Random(1)
    for _ in range(20):
        p, q = rng_trig(rng, exact=True), rng_trig(rng, exact=True)
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()
        assert p.adjoint().adjoint() == p


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


def test_expectation_examples(m):
    g = m.generators[0]
    t = Fraction(3, 4)
    assert conditional_expectation(m, CoreWord.u(t)) == TrigPoly({t: 1})
    x0 = CoreWord((x("g", 0),))
    sandwich = x0 * CoreWord.u(t) * x0
    assert conditional_expectation(m, sandwich) == TrigPoly({t: g.eta(t)})
    odd = x0 * CoreWord.u(t)
    assert conditional_expectation(m, odd) == TrigPoly.zero()


def test_expectation_normal_form_compatible(m):
    # the same element written two ways gets the same expectation
    x0 = CoreWord((x("g", 0),))
    a = CoreWord.u("1/2") * x0 * CoreWord.u("-1/2") * x0
    b = CoreWord((x("g", "1/2"),)) * x0
    assert conditional_expectation(m, a) == conditional_expectation(m, b)


def test_expectation_bimodular(m):
    rng = random.Random(2)
    for _ in range(20):
        cw = random_core_word(rng, ["g"], 3)
        s = rng.choice(HALF_GRID)
        t = rng.choice(HALF_GRID)
        lhs = conditional_expectation(m, CoreWord.u(s) * cw * CoreWord.u(t))
        rhs = (TrigPoly({s: 1}) * conditional_expectation(m, cw)
               * TrigPoly({t: 1}))
        assert (lhs - rhs).max_abs() < 1e-12


def test_expectation_idempotent_on_group_part(m):
    rng = random.Random(3)
    p = rng_trig(rng)
    total = TrigPoly.zero()
    for t, c in p.terms.items():
        total = total + conditional_expectation(m, CoreWord.u(t) * c)
    assert (total - p).max_abs() < 1e-12


def test_eta_map_examples(m):
    g = m.generators[0]
    assert eta_map(m, "g", TrigPoly({0: 1})) == TrigPoly({0: g.eta(0)})
    t = Fraction(1, 2)
    assert eta_map(m, "g", TrigPoly({t: 1})) == TrigPoly({t: g.eta(t)})


def test_eta_map_is_sandwich_expectation(m):
    rng = random.Random(4)
    x0 = CoreWord((x("g", 0),))
    for _ in range(20):
        p = rng_trig(rng)
        direct = eta_map(m, "g", p)
        sandwiched = TrigPoly.zero()
        for t, c in p.terms.items():
            sandwiched = sandwiched + conditional_expectation(
                m, x0 * CoreWord.u(t) * x0
            ) * c
        assert (direct - sandwiched).max_abs() < 1e-12


def test_eta_inner_unit_tensor(m):
    g = m.generators[0]
    one = EtaBimoduleElem.simple(CoreWord.one(), CoreWord.one())
    assert eta_inner(m, "g", one, one) == TrigPoly({0: g.eta(0)})


def test_eta_inner_worked_chain(m):
    g = m.generators[0]
    t, s = Fraction(1, 2), Fraction(-3, 4)
    one = EtaBimoduleElem.simple(CoreWord.one(), CoreWord.one())
    v = EtaBimoduleElem.simple(CoreWord.u(t), CoreWord.u(-t) * CoreWord.u(s))
    out = eta_inner(m, "g", one, v)
    assert (out - TrigPoly({s: g.eta(t)})).max_abs() < 1e-12


def test_eta_inner_bimodule_shift_identity(m):
    rng = random.Random(5)
    for _ in range(10):
        xs = [random_core_word(rng, ["g"], 2) for _ in range(4)]
        r = rng.choice(HALF_GRID)
        s = rng.choice(HALF_GRID)
        e = EtaBimoduleElem.simple(xs[0], xs[1])
        f = EtaBimoduleElem.simple(xs[2], xs[3])
        shifted_f = act(CoreWord.u(r), f, CoreWord.u(s))
        shifted_e = act(CoreWord.u(-r), e, CoreWord.u(-s))
        lhs = eta_inner(m, "g", e, shifted_f)
        rhs = eta_inner(m, "g", shifted_e, f)
        assert (lhs - rhs).max_abs() < 1e-12


def test_core_derivative_examples():
    x0 = CoreWord((x("g", 0),))
    d = core_differentiate("g", x0)
    assert d == EtaBimoduleElem.simple(CoreWord.one(), CoreWord.one())
    t = Fraction(2, 3)
    d_t = core_differentiate("g", CoreWord((x("g", t),)))
    assert d_t == EtaBimoduleElem.simple(CoreWord.u(t), CoreWord.u(-t))
    zero = EtaBimoduleElem.zero()
    assert core_differentiate("g", CoreWord.u("1/2")) == zero
    assert core_differentiate("h", x0) == zero


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
        rhs = (act(one, core_differentiate("g", a), b)
               + act(a, core_differentiate("g", b), one))
        assert lhs == rhs


def test_core_identity_group_word(m):
    zeta = NcPoly.letter(x("g", 0))
    assert verify_core_identity(m, "g", CoreWord.u("1/2"), zeta) == 0.0


def test_core_identity_worked_case(m):
    zeta = NcPoly.letter(x("g", 0))
    q = CoreWord((x("g", "1/2"),)) * CoreWord.u("3/4")
    assert verify_core_identity(m, "g", q, zeta) < 1e-12


def test_core_identity_random(m):
    zeta = NcPoly.letter(x("g", 0))
    rng = random.Random(7)
    worst = 0.0
    for _ in range(60):
        q = random_core_word(rng, ["g"], 4)
        worst = max(worst, verify_core_identity(m, "g", q, zeta))
    assert worst < 1e-9


def test_complete_positivity_proxy(m):
    rng = random.Random(8)
    x0 = CoreWord((x("g", 0),))
    ps = [rng_trig(rng) for _ in range(5)]

    def vec_inner(p, q):
        total = 0j
        for s, a in p.terms.items():
            for t, b in q.terms.items():
                e = conditional_expectation(
                    m, (x0 * CoreWord.u(s)).adjoint() * (x0 * CoreWord.u(t))
                )
                total += a.conjugate() * b * e.terms.get(0, 0j)
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
    return CoreWord(cw.word, cw.r, cw.coeff)


def assert_canonical(cw: CoreWord) -> None:
    built = checked(cw)
    assert cw == built and hash(cw) == hash(built)
    assert type(cw.word) is tuple and type(cw.r) is Fraction
    assert type(cw.coeff) is complex


@pytest.mark.parametrize("seed", range(5))
def test_raw_built_core_words_equal_checked_ones(seed):
    rng = random.Random(seed)
    for _ in range(20):
        a = random_core_word(rng, ["g", "h"], 5) * complex(rng.random(), 1)
        b = random_core_word(rng, ["g", "h"], 5)
        for cw in (a * b, b * a, a * 2.5, 3 * b, a.adjoint(), b.adjoint()):
            assert_canonical(cw)
        product = CoreWord(a.word + tuple(l.shifted(a.r) for l in b.word),
                           a.r + b.r, a.coeff * b.coeff)
        assert a * b == product and hash(a * b) == hash(product)
        for gen in ("g", "h"):
            d = core_differentiate(gen, a)
            for _, left, right in d:
                assert_canonical(left)
                assert_canonical(right)
            legs = EtaBimoduleElem(
                (c, checked(left), checked(right)) for c, left, right in d)
            assert legs == d and hash(legs) == hash(d)


def test_expectation_and_eta_map_hold_no_zero_coefficient(m, monkeypatch):
    rng = random.Random(9)
    for _ in range(40):
        cw = random_core_word(rng, ["g"], 4)
        for p in (conditional_expectation(m, cw), conditional_expectation(
                m, cw * 0), eta_map(m, "g", rng_trig(rng))):
            assert all(c != 0 for c in p.terms.values())
    # eta vanishing at t = 1/2 drops that term
    g = type(m.generators[0])
    eta = g.eta
    monkeypatch.setattr(
        g, "eta", lambda self, t: 0j if t == Fraction(1, 2) else eta(self, t))
    out = eta_map(m, "g", TrigPoly({"1/2": 1}) + TrigPoly({1: 1}))
    assert out.terms == {Fraction(1): m.generators[0].eta(1)}
