import math
import random

import pytest

from ncfisher.algebra import NcPoly, shift_word, word_adjoint, x, y
from ncfisher.moments import (
    MAX_WORD_LETTERS,
    SizeLimitError,
    brute_force_oracle,
    evaluate_state,
    evaluate_state_detailed,
    evaluate_state_shifted,
    expectation,
)
from ncfisher.model import tracial_model, two_atom_model
from ncfisher.sampling import HALF_GRID, TIME_DEN, random_time, random_word
from oracles import (all_pairings, inner_product, is_noncrossing,
                     random_ncpoly)

CATALAN = [1, 1, 2, 5, 14, 42]


@pytest.fixture(scope="module")
def m():
    return two_atom_model()


@pytest.fixture(scope="module")
def mh(m):
    """The two-atom model on the ticks of the sampled draws."""
    return m.with_time_den(TIME_DEN)


@pytest.fixture(scope="module")
def mt():
    return tracial_model()


def test_empty_and_odd(m):
    assert evaluate_state(m, ()) == 1
    assert evaluate_state(m, (x("g", 0),)) == 0
    assert evaluate_state(m, (x("g", 0),) * 3) == 0


def test_four_letter_alternating(m):
    g = m.generators[0]
    w = (x("g", 0), x("g", 1), x("g", 0), x("g", 1))
    expected = g.eta(1) ** 2 + abs(g.eta(1)) ** 2
    assert evaluate_state(m, w) == pytest.approx(expected, abs=1e-12)


def test_mixed_families_single_survivor(m):
    g = m.generators[0]
    w = (y("g", 0), x("g", 0), x("g", 0), y("g", 1))
    assert evaluate_state(m, w) == pytest.approx(g.eta(1) * g.eta(0), abs=1e-12)
    assert evaluate_state_detailed(m, w).partition_count == 1


def test_cross_family_pairs_vanish(m):
    assert evaluate_state(m, (x("g", 0), y("g", 0))) == 0


def test_partition_count_catalan(m):
    detail = evaluate_state_detailed(m, (x("g", 0), x("g", 1), x("g", 0), x("g", 1)))
    assert detail.partition_count == 2
    detail8 = evaluate_state_detailed(m, (x("g", 0),) * 8)
    assert detail8.partition_count == CATALAN[4]
    # Catalan(32) and Catalan(64) are past 2^53, where a float count
    # would round
    for h in (32, 64):
        count = evaluate_state_detailed(m, (x("g", 0),) * (2 * h)
                                        ).partition_count
        assert type(count) is int
        assert count == math.comb(2 * h, h) // (h + 1)


def test_tracial_moments_are_catalan(mt):
    for k in range(6):
        w = (x("g", 0),) * (2 * k)
        assert evaluate_state(mt, w) == pytest.approx(CATALAN[k], abs=1e-12)
        assert brute_force_oracle(mt, w) == pytest.approx(CATALAN[k], abs=1e-12)


def test_pairing_enumeration_counts():
    pairings = list(all_pairings(range(6)))
    assert len(pairings) == 15  # 5!!
    assert sum(is_noncrossing(p) for p in pairings) == 5  # Catalan(3)


def test_oracle_matches_recursion(mh):
    rng = random.Random(11)
    for _ in range(150):
        w = random_word(rng, ["g"], 8, families=("X", "Y"))
        assert abs(evaluate_state(mh, w) - brute_force_oracle(mh, w)) < 1e-10


def test_oracle_size_limit(m):
    with pytest.raises(SizeLimitError):
        brute_force_oracle(m, (x("g", 0),) * 14)


def test_word_length_limit(m):
    w = (x("g", 0),) * (MAX_WORD_LETTERS + 1)
    for evaluate in (evaluate_state, evaluate_state_detailed):
        with pytest.raises(SizeLimitError):
            evaluate(m, w)
    with pytest.raises(SizeLimitError):
        evaluate_state_shifted(m, w, [0], 1j)


def test_state_of_adjoint_is_conjugate(mh):
    rng = random.Random(5)
    for _ in range(50):
        w = random_word(rng, ["g"], 6, families=("X", "Y"))
        assert evaluate_state(mh, word_adjoint(w)) == pytest.approx(
            evaluate_state(mh, w).conjugate(), abs=1e-12
        )


def test_state_invariant_under_shift(mh):
    rng = random.Random(6)
    for _ in range(50):
        w = random_word(rng, ["g"], 6)
        s = random_time(rng)
        assert evaluate_state(mh, shift_word(w, s)) == evaluate_state(mh, w)


def test_freeness_centered_alternating_vanish():
    from ncfisher.model import build_model

    m2 = build_model(
        {
            "generators": [
                {"name": "a", "mode": "half",
                 "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]},
                {"name": "b", "mode": "half", "atoms": [{"x": 0, "w": 1}]},
            ]
        }
    )

    def centered(gen, t1, t2):
        p = NcPoly.word((x(gen, t1), x(gen, t2)))
        return p - expectation(m2, p)

    ca = centered("a", 0, 1)
    cb = centered("b", 0, 0)
    for prod in (ca * cb, cb * ca, ca * cb * ca):
        assert abs(expectation(m2, prod)) < 1e-12


def test_inner_product_basics(m, mh):
    g = m.generators[0]
    x0 = NcPoly.letter(x("g", 0))
    x1 = NcPoly.letter(x("g", 1))
    assert inner_product(m, x0, x0) == pytest.approx(g.eta(0), abs=1e-12)
    assert inner_product(m, x0, x1) == pytest.approx(g.eta(1), abs=1e-12)
    rng = random.Random(3)
    for _ in range(30):
        p = random_ncpoly(rng, ["g"], 3)
        val = inner_product(mh, p, p)
        assert val.real >= -1e-10
        assert abs(val.imag) < 1e-10


def test_shifted_state_two_letter_is_eta(m):
    g = m.generators[0]
    w = (x("g", 0), x("g", 0))
    for t in HALF_GRID:
        assert evaluate_state_shifted(m, w, [1], t) == pytest.approx(
            g.eta(t), abs=1e-12
        )


def test_shifted_state_at_zero_and_real(mh):
    rng = random.Random(8)
    for _ in range(30):
        a = random_word(rng, ["g"], 3)
        b = random_word(rng, ["g"], 3)
        w = a + b
        suffix = range(len(a), len(w))
        assert (evaluate_state_shifted(mh, w, suffix, 0)
                == evaluate_state(mh, w))
        # the shift of a tag counts ticks, the shift of the block real time
        t = random_time(rng)
        direct = evaluate_state(mh, a + shift_word(b, t))
        z = mh.real_time(t)
        assert evaluate_state_shifted(mh, w, suffix, z) == pytest.approx(
            direct, abs=1e-12
        )


def test_shifted_state_kms_boundary(mh):
    rng = random.Random(9)
    for _ in range(30):
        a = random_word(rng, ["g"], 3)
        b = random_word(rng, ["g"], 3)
        w = a + b
        t = random_time(rng)
        z = complex(mh.real_time(t)) + 1j
        lhs = evaluate_state_shifted(mh, w, range(len(a), len(w)), z)
        rhs = evaluate_state(mh, shift_word(b, t) + a)
        assert abs(lhs - rhs) < 1e-9


def test_shifted_state_block_validation(m):
    w = (x("g", 0),) * 4
    with pytest.raises(ValueError):
        evaluate_state_shifted(m, w, [1, 2], 1)  # interior block
    with pytest.raises(ValueError):
        evaluate_state_shifted(m, w, [0, 2], 1)  # not contiguous
    with pytest.raises(ValueError):
        evaluate_state_shifted(m, w, [4], 1)  # out of range
    # [0, 1, 2] is a prefix block of a three-letter word: only the range
    # check refuses it on a two-letter one
    for positions in ([2], [1, 2], [0, 1, 2]):
        with pytest.raises(ValueError, match="positions out of range"):
            evaluate_state_shifted(m, w[:2], positions, 0.5j)
    # prefix and full blocks are fine
    evaluate_state_shifted(m, w, [0, 1], 1)
    evaluate_state_shifted(m, w, range(4), 1)
    evaluate_state_shifted(m, w, [], 1)
