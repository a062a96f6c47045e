"""The interval-pass evaluator against the independent ones.

Values are compared with the exhaustive oracle within 1e-12 of the pairing
scale (number of compatible non-crossing pairings times the largest second
moment to the power of the pair count); partition counts with a literal
count of the oracle's compatible non-crossing pairings; the noise
expansion's closed form with its definition as a sum of states of flipped
words, within 1e-12 of the summed magnitudes of their pairing terms.
The pass's eta table is compared bit for bit with the covariance of
each letter pair whose inside has a pairing with nonzero covariances
(``pairable_pairs`` in ``tests/oracles.py``), and its eta calls are
counted against the distinct differences those pairs need, for one word
or for words that share a run's eta table; one word pins a pair whose
inside is balanced but cannot be paired.  The pairing table
(``row_by_row_table``, filled one interval at a time in the order of the
first-letter recursion) of the kernel of those pairs is compared bit for
bit with the one of the full kernel over every compatible pair.  Every
entry of a word's pairing table is compared bit for bit with its
subword's own pass.  The rows of :func:`ncfisher.moments.interval_states`
are compared with the dense table of the full kernel: a row stores
exactly the ends of the intervals that have a pairing with nonzero
covariances and holds that table's entry there bit for bit, and every
other interval is +0+0j there; a NaN covariance reaches only the stored
intervals.  The ``magnitude`` of ``evaluate_state_detailed`` is compared
bit for bit with the dense fill over the moduli of the full kernel.
The pruned depth-first oracle is compared bit for bit with the literal
filter over all pair partitions (``tests/oracles.py``).  The class scan
that reads a word with no pairing within its (family, generator) classes
as +0+0j, with no pass and no eta call, is compared with the pairing count
over a kernel of ones (``class_pairings``), and the states it guards with
the pass read directly, bit for bit.
"""
import cmath
import copy
import math
import struct
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ncfisher import core_cp, moments
from ncfisher.algebra import Letter, shift_word, x, y
from ncfisher.brownian import expand_state
from ncfisher.core_cp import CoreWord, verify_core_identity
from ncfisher.model import (GeneratorSpec, build_model, tracial_model,
                           two_atom_model)
from ncfisher.moments import (
    brute_force_oracle,
    covariance,
    evaluate_state,
    evaluate_state_detailed,
    evaluate_state_shifted,
    interval_states,
)
from oracles import (all_pairings, class_pairings, flipped_word_sums,
                     full_kernel, is_noncrossing, literal_oracle,
                     pairable_kernel, pairable_pairs, pairing_counts,
                     row_by_row_table)

RTOL = 1e-12


@st.composite
def models(draw):
    gens = []
    for i in range(draw(st.integers(1, 3))):
        freqs = draw(st.lists(st.floats(0.05, 0.4), min_size=1, max_size=2,
                              unique=True))
        atoms = [{"x": f, "w": draw(st.floats(0.2, 1.5))} for f in freqs]
        if draw(st.booleans()):
            atoms.append({"x": 0, "w": draw(st.floats(0.2, 1.5))})
        gens.append({"name": str(i), "mode": "half", "atoms": atoms})
    return build_model({"generators": gens})


small_times = st.builds(Fraction, st.integers(-6, 6),
                        st.sampled_from([1, 2, 3, 4]))


@st.composite
def words(draw, m, families=(x, y), max_size=12, times=small_times):
    ids = [g.gen_id for g in m.generators]
    letter = st.builds(
        lambda fam, g, t: fam(g, t),
        st.sampled_from(families),
        st.sampled_from(ids),
        times,
    )
    return tuple(draw(st.lists(letter, max_size=max_size)))


# times over large denominators of either sign: primes just below 10**12,
# pairwise coprime, or any integer of that size, so a word's common
# denominator runs far past 2**53
LARGE_PRIMES = (999999999989, 999999999961, 999999999959, 999999999937,
                999999999899, 999999999877)
big_times = st.builds(
    Fraction,
    st.integers(-(10**13), 10**13),
    st.one_of(st.sampled_from(LARGE_PRIMES), st.integers(10**11, 10**12))
    .flatmap(lambda d: st.sampled_from([d, -d])),
)


def compatible_pairs(w):
    """Index pairs i < k at odd distance with equal family and generator."""
    return [(i, k) for i in range(len(w)) for k in range(i + 1, len(w), 2)
            if w[i].family == w[k].family and w[i].gen == w[k].gen]


def balanced(w, i, j):
    """True when the letters i .. j-1 of ``w`` hold as many letters at
    even as at odd positions of every (family, generator) class."""
    count: dict = {}
    for p in range(i, j):
        cls = (w[p].family, w[p].gen)
        count[cls] = count.get(cls, 0) + (1 if p % 2 == 0 else -1)
    return not any(count.values())


class EtaCounter:
    """Patches ``GeneratorSpec.eta`` to record (generator, argument)."""

    def __init__(self, mp):
        self.calls = []
        original = GeneratorSpec.eta

        def counted(g, z):
            self.calls.append((g.gen_id, z))
            return original(g, z)

        mp.setattr(GeneratorSpec, "eta", counted)


def compatible_pairings(w) -> int:
    return sum(
        is_noncrossing(p)
        and all(w[i].family == w[j].family and w[i].gen == w[j].gen
                for i, j in p)
        for p in all_pairings(range(len(w)))
    )


def assert_close(m, got, want, w):
    vmax = max(g.v for g in m.generators)
    scale = max(1.0, compatible_pairings(w) * vmax ** (len(w) // 2))
    assert abs(got - want) <= RTOL * scale, (w, got, want)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_state_matches_oracle(data):
    m = data.draw(models())
    w = data.draw(words(m))
    assert_close(m, evaluate_state(m, w), brute_force_oracle(m, w), w)


def bits(z: complex) -> tuple:
    return (struct.pack("<d", z.real), struct.pack("<d", z.imag))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_oracle_is_the_literal_filter_bit_for_bit(data):
    # the depth-first oracle visits the non-crossing pairings in the
    # literal enumeration's order and multiplies their pairs in its order
    m = data.draw(models())
    w = data.draw(words(m, max_size=12))
    assert bits(brute_force_oracle(m, w)) == bits(literal_oracle(m, w)), w


def test_oracle_prunes_crossing_pairings(monkeypatch):
    # 12 equal letters: 10,395 pair partitions, 132 of them non-crossing;
    # the literal filter multiplies up to 6 covariances on each survivor,
    # and the oracle computes each index pair's covariance once, and only
    # for a pair with an even number of free letters between the two:
    # here the 6 * 6 = 36 pairs at odd distance (61 of the 66 index pairs
    # without that rule)
    calls = []
    original = moments.covariance

    def counted(m, a, b):
        calls.append((a, b))
        return original(m, a, b)

    monkeypatch.setattr(moments, "covariance", counted)
    assert brute_force_oracle(tracial_model(), (x("g", 0),) * 12) == 132
    assert len(calls) == 36


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_shifted_state_matches_oracle_on_shifted_letters(data):
    m = data.draw(models())
    w = data.draw(words(m, max_size=10))
    n = len(w)
    k = data.draw(st.integers(0, n))
    block = data.draw(st.sampled_from([range(k), range(k, n)]))
    z = complex(data.draw(st.integers(-4, 4)) / 4,
                data.draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0])))
    shifted = tuple(
        Letter(l.family, l.gen, complex(l.time) + z) if i in block else l
        for i, l in enumerate(w)
    )
    assert_close(m, evaluate_state_shifted(m, w, block, z),
                 brute_force_oracle(m, shifted), w)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_partition_count_matches_oracle_pairings(data):
    m = data.draw(models())
    w = data.draw(words(m, max_size=10))
    assert evaluate_state_detailed(m, w).partition_count == compatible_pairings(w)


def test_partition_count_includes_zero_kernel_values(monkeypatch):
    # the count is of compatible pairings, whatever their kernel values
    m = build_model({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1}]}]})
    monkeypatch.setattr(GeneratorSpec, "eta", lambda self, z: 0j)
    w = (x("g", 0), y("g", 0), y("g", 1), x("g", 2))
    detail = evaluate_state_detailed(m, w)
    assert detail.value == 0
    assert detail.partition_count == 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_magnitude_is_the_moduli_table_bit_for_bit(data):
    # the second pass reads the moduli of the first pass's eta table: it
    # sums the moduli of the pairing terms in the order of the recursion,
    # as the dense fill over the moduli of the full kernel does, and it
    # calls eta no more than the value's pass does
    m = data.draw(models())
    if data.draw(st.booleans()):
        m, times = m.with_time_den(2), st.integers(-4, 4)
    else:
        times = st.one_of(big_times, small_times)
    w = data.draw(words(m, times=times, max_size=16))
    moduli = [[(k, abs(c)) for k, c in row] for row in full_kernel(m, w)]
    want = row_by_row_table(moduli, 1.0)[0][len(w)]
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        got = evaluate_state_detailed(m, w).magnitude
        detailed = list(counter.calls)
        interval_states(m, w)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", want), w
    assert detailed == counter.calls[len(detailed):]


def test_a_magnitude_past_overflow_reads_inf(monkeypatch):
    # one atom of weight 1e80: the terms of 8 equal letters overflow to
    # inf, and at 10 the complex second pass meets inf * 0 in an imaginary
    # part; the float fill over the moduli reads inf at both
    m = build_model({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0.1, "w": 1e80}]}]})
    for n in (8, 10):
        w = (x("g", 0),) * n
        moduli = [[(k, abs(c)) for k, c in row] for row in full_kernel(m, w)]
        assert row_by_row_table(moduli, 1.0)[0][n] == math.inf
        assert evaluate_state_detailed(m, w).magnitude == math.inf
    # a modulus that is itself NaN keeps the magnitude NaN
    monkeypatch.setattr(GeneratorSpec, "eta", lambda g, z: complex("nan"))
    for n in (4, 10):
        assert math.isnan(
            evaluate_state_detailed(m, (x("g", 0),) * n).magnitude)


def test_equal_time_differences_of_two_generators():
    # the kernel looks eta up per generator, not per time difference alone
    m = build_model({"generators": [
        {"name": "a", "mode": "half", "atoms": [{"x": 0.1, "w": 1.0}]},
        {"name": "b", "mode": "half", "atoms": [{"x": 0.3, "w": 0.5}]}]})
    w = (x("a", 0), x("b", 0), x("b", 1), x("a", 1))
    want = m.gen("a").eta(1) * m.gen("b").eta(1)
    assert abs(evaluate_state(m, w) - want) <= RTOL
    assert abs(evaluate_state(m, w) - brute_force_oracle(m, w)) <= RTOL


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_expansion_is_the_sum_over_flipped_words(data):
    m = data.draw(models())
    w = data.draw(words(m, families=(x,), max_size=8))
    order = data.draw(st.integers(0, 3))
    exp = expand_state(m, w, order)
    n = len(w)
    assert sorted(exp) == [Fraction(k, 2)
                           for k in range(min(n, 2 * order) + 1)]
    for k in range(min(n, 2 * order) + 1):
        total = 0j
        scale = 0.0
        for subset in combinations(range(n), k):
            flipped = tuple(y(l.gen, l.time) if i in subset else l
                            for i, l in enumerate(w))
            detail = evaluate_state_detailed(m, flipped)
            total += detail.value
            scale += detail.magnitude
        assert abs(exp[Fraction(k, 2)] - total) <= RTOL * scale


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_expansion_closed_form_matches_enumeration(data):
    m = data.draw(models())
    w = data.draw(words(m, families=(x,), max_size=12))
    order = data.draw(st.integers(0, 6))
    got = expand_state(m, w, order)
    want = flipped_word_sums(m, w, order)
    scale = flipped_word_sums(m, w, order, absolute=True)
    assert list(got) == list(want)
    for p, value in want.items():
        assert abs(got[p] - value) <= RTOL * abs(scale[p]), (w, p)


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_evaluation_leaves_the_model_unchanged(data):
    m = data.draw(models())
    before = copy.deepcopy(vars(m))
    for _ in range(20):
        w = data.draw(words(m, max_size=16))
        evaluate_state(m, w)
        evaluate_state_detailed(m, w)
        evaluate_state_shifted(m, w, range(len(w) // 2), 0.25 + 1j)
    assert vars(m) == before


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_entries_are_the_letter_covariances(data):
    # the pass looks up the covariance of exactly the pairs whose inside
    # has a pairing with nonzero covariances, and its eta table holds each
    # bit for bit, keyed by generator, tick denominator and tick difference
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=16))
    etas: dict = {}
    interval_states(m, w, None, etas)
    den = math.lcm(*[l.time.denominator for l in w])
    got = {(g, d_den, d): bits(c) for (g, d_den), table in etas.items()
           for d, c in table.items()}
    want = {(w[i].gen, den, (w[k].time - w[i].time) * den):
            bits(covariance(m, w[i], w[k]))
            for i, k in pairable_pairs(m, w)}
    assert got == want, w


def test_a_balanced_inside_that_cannot_be_paired():
    # A A B C A B C A in the classes A = X_a, B = Y_a, C = X_b: the inside
    # of the pair (0, 7) is balanced, but its first A pairs only with the
    # A at 4, around B C, so it has no pairing.  The pass skips the pair
    # and never asks eta at t_7 - t_0 = 7/2, which no other pair of a has;
    # with the outer pair of a generator the model lacks, it never looks
    # that generator up
    m = build_model({"generators": [
        {"name": "a", "mode": "half",
         "atoms": [{"x": 0.1, "w": 1.0}, {"x": 0.3, "w": 0.5}]},
        {"name": "b", "mode": "half", "atoms": [{"x": 0.2, "w": 0.7}]}]})
    times = [Fraction(k, 2) for k in range(8)]
    make = [x, x, y, x, x, y, x, x]
    gens = "aaabaaba"
    w = tuple(f(g, t) for f, g, t in zip(make, gens, times))
    assert balanced(w, 1, 7)
    assert (0, 7) not in pairable_pairs(m, w)
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        value = evaluate_state(m, w)
    assert ("a", Fraction(7, 2)) not in counter.calls
    assert 7 not in interval_states(m, w)[1]
    assert bits(value) == bits(row_by_row_table(full_kernel(m, w))[0][8])
    assert value == brute_force_oracle(m, w), w
    unknown = (x("z", 0),) + w[1:7] + (x("z", 1),)
    assert positive_zero(evaluate_state(m, unknown))
    # the class scan reads that word 0 before any pass; the pass alone
    # reads it 0 too
    assert positive_zero(interval_states(m, unknown)[0].get(8, 0j))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eta_called_once_per_distinct_generator_and_difference(data):
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=16))
    # a word with no pairing within its classes, odd ones included, is
    # exactly 0 with no pass run, so no eta call
    distinct = {(w[i].gen, w[k].time - w[i].time)
                for i, k in pairable_pairs(m, w) if class_pairings(w)}
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        evaluate_state(m, w)
    assert len(counter.calls) == len(distinct)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_shifted_eta_calls_at_most_one_per_distinct_offset_pair(data):
    m = data.draw(models())
    w = data.draw(words(m, max_size=14))
    n = len(w)
    k = data.draw(st.integers(0, n))
    block = data.draw(st.sampled_from([range(k), range(k, n)]))
    z = complex(data.draw(st.integers(-4, 4)) / 4,
                data.draw(st.sampled_from([0.0, -1.0, 0.5, 1.0])))
    off = [z if i in block else 0j for i in range(n)]
    distinct = {(w[i].gen, w[j].time - w[i].time, off[j] - off[i])
                for i, j in compatible_pairs(w)}
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        evaluate_state_shifted(m, w, block, z)
    assert len(counter.calls) <= len(distinct)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eta_is_the_literal_exponential_sum(data):
    m = data.draw(models())
    finite = st.floats(-50, 50, allow_nan=False)
    z = data.draw(st.one_of(finite, st.builds(complex, finite, finite)))
    for g in m.generators:
        want = sum(a.w * cmath.exp(2j * math.pi * complex(z) * a.x)
                   for a in g.atoms)
        assert g.eta(z) == want


def positive_zero(z: complex) -> bool:
    return bits(z) == bits(0j)


def assert_zero_with_no_pass(m, w, block, z):
    """``w`` reads +0+0j, plain and shifted, with no eta call and no
    interval pass."""
    passes = []
    original = moments.interval_states

    def counted(*args):
        passes.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        mp.setattr(moments, "interval_states", counted)
        plain = evaluate_state(m, w)
        shifted = evaluate_state_shifted(m, w, block, z)
    assert positive_zero(plain) and positive_zero(shifted), w
    assert counter.calls == [] and passes == [], w


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_odd_words_are_positive_zero_with_no_eta_call(data):
    # every word with no pairing within its classes: the odd ones, and
    # even ones such as X Y X Y
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=15).filter(lambda w: not class_pairings(w)))
    n = len(w)
    k = data.draw(st.integers(0, n))
    block = data.draw(st.sampled_from([range(k), range(k, n)]))
    z = complex(data.draw(st.integers(-4, 4)) / 4,
                data.draw(st.sampled_from([0.0, -1.0, 1.0])))
    assert_zero_with_no_pass(m, w, block, z)


@pytest.mark.parametrize("classes", [
    "Xg Yg Xg Yg", "Xg Xg Yg Xg", "Yg Xg Xg Xg Xg Xg", "Xg Xh Xg Xh",
    "Xg Yg Xh Yh Xg Yg Xh Yh", "Xg Xg Yg Yg Xg Yg"])
def test_even_words_with_no_class_pairing_are_positive_zero(classes):
    # balanced or not, these even words have no pairing within their
    # classes; one Y among Xs leaves an odd class
    m = build_model({"generators": [
        {"name": g, "mode": "half", "atoms": [{"x": 0.1, "w": 1.0}]}
        for g in "gh"]})
    w = tuple((x if c[0] == "X" else y)(c[1], Fraction(t, 2))
              for t, c in enumerate(classes.split()))
    assert not class_pairings(w) and moments._unpairable(w)
    assert_zero_with_no_pass(m, w, range(len(w) // 2), 0.25 + 1j)


@st.composite
def pairable_words(draw, m, max_size=16):
    """A word whose classes mirror about its middle, rotated: it has a
    pairing within its classes, whatever its times."""
    half = draw(words(m, max_size=max_size // 2))
    mirror = tuple(l._replace(time=draw(small_times)) for l in half[::-1])
    w = half + mirror
    k = draw(st.integers(0, len(w)))
    return w[k:] + w[:k]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_the_class_scan_is_the_pairing_existence_bit_for_bit(data):
    # the scan agrees with the pairing count over a kernel of ones, and
    # the state, plain or shifted, is the bits of the pass read directly
    m = data.draw(models())
    w = data.draw(st.one_of(words(m, max_size=16), pairable_words(m)))
    n = len(w)
    assert moments._unpairable(w) == (class_pairings(w) == 0), w
    k = data.draw(st.integers(0, n))
    block = data.draw(st.sampled_from([range(k), range(k, n)]))
    z = complex(data.draw(st.integers(-4, 4)) / 4,
                data.draw(st.sampled_from([0.0, -1.0, 1.0])))
    offsets = [z if i in block else 0j for i in range(n)]
    assert bits(evaluate_state(m, w)) == bits(
        interval_states(m, w)[0].get(n, 0j)), w
    assert bits(evaluate_state_shifted(m, w, block, z)) == bits(
        interval_states(m, w, offsets)[0].get(n, 0j)), w


@pytest.mark.parametrize("n", [moments.MAX_WORD_LETTERS + 1,
                               moments.MAX_WORD_LETTERS + 2])
def test_words_over_the_size_limit_are_refused_at_either_parity(n):
    # a word of one class can be paired at even length, X Y X Y ... never
    m = tracial_model()
    for w in ((x("g", 0),) * n, (x("g", 0), y("g", 0)) * (n // 2)
              + (x("g", 0),) * (n % 2)):
        assert len(w) == n
        with pytest.raises(moments.SizeLimitError):
            evaluate_state(m, w)
        with pytest.raises(moments.SizeLimitError):
            evaluate_state_shifted(m, w, range(n // 2, n), 0.5 + 1j)


def test_core_identity_builds_one_kernel(monkeypatch):
    # Q has 5 letters: zeta* Q has 6, and every prefix and suffix the
    # derivative takes is an interval of its one pass
    m = tracial_model()
    evaluated, passes = [], []
    original = moments.interval_states

    def counted(m, letters, *args):
        passes.append(len(letters))
        return original(m, letters, *args)

    monkeypatch.setattr(core_cp, "evaluate_state",
                        lambda *args: evaluated.append(args))
    monkeypatch.setattr(moments, "interval_states", counted)
    q = CoreWord(tuple(x("g", Fraction(k, 2)) for k in range(5)), 1)
    assert verify_core_identity(m, "g", q) < 1e-12
    assert passes == [6]
    assert evaluated == []


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pairing_table_holds_every_subword_state_bit_for_bit(data):
    # a subword's own pass puts its tags over its own denominator, the
    # table over the whole word's; both give eta the same double
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=12))
    phi = row_by_row_table(pairable_kernel(m, w))
    for i in range(len(w) + 1):
        for j in range(i, len(w) + 1):
            assert bits(phi[i][j]) == bits(evaluate_state(m, w[i:j])), (i, j)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_pruned_kernel_leaves_every_table_entry_unchanged(data):
    # Fraction times of big or small denominators, or int ticks at
    # time_den 2; complex prefix or suffix offsets on some words
    m = data.draw(models())
    if data.draw(st.booleans()):
        m, times = m.with_time_den(2), st.integers(-4, 4)
    else:
        times = st.one_of(big_times, small_times)
    for w in data.draw(st.lists(words(m, times=times, max_size=12),
                                min_size=1, max_size=4)):
        n = len(w)
        offsets = None
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, n))
            block = data.draw(st.sampled_from([range(k), range(k, n)]))
            z = complex(data.draw(st.integers(-4, 4)) / 4,
                        data.draw(st.sampled_from([-1.0, 0.5, 1.0])))
            offsets = [z if i in block else 0j for i in range(n)]
        full = full_kernel(m, w, offsets)
        pruned = pairable_kernel(m, w, offsets)
        want, got = row_by_row_table(full), row_by_row_table(pruned)
        for i in range(n + 1):
            for j in range(i, n + 1):
                assert bits(got[i][j]) == bits(want[i][j]), (w, i, j)
        for i, row in enumerate(full):
            assert set(pruned[i]) <= set(row), (w, i)
            kept = {k for k, _ in pruned[i]}
            for k, _ in row:
                if k not in kept:
                    # the inside of every pair left out sums to +0+0j
                    assert positive_zero(want[i + 1][k]), (w, i, k)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_pass_stores_the_balanced_intervals_of_the_dense_table(data):
    # 0 to 24 letters; Fraction tags of big and small denominators, or int
    # ticks at time_den 2; complex prefix or suffix offsets on some words;
    # one eta table shared by the words.  A row stores exactly the ends
    # of the intervals that have a pairing with nonzero covariances, each
    # balanced, and holds the full kernel's dense table there bit for bit;
    # every other interval is +0+0j in the dense table
    m = data.draw(models())
    if data.draw(st.booleans()):
        m, times = m.with_time_den(2), st.integers(-4, 4)
    else:
        times = st.one_of(big_times, small_times)
    etas: dict = {}
    for w in data.draw(st.lists(words(m, times=times, max_size=24),
                                min_size=1, max_size=3)):
        n = len(w)
        offsets = None
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, n))
            block = data.draw(st.sampled_from([range(k), range(k, n)]))
            z = complex(data.draw(st.integers(-4, 4)) / 4,
                        data.draw(st.sampled_from([-1.0, 0.5, 1.0])))
            offsets = [z if i in block else 0j for i in range(n)]
        phi = interval_states(m, w, offsets, etas)
        full = full_kernel(m, w, offsets)
        want, counts = row_by_row_table(full), pairing_counts(full)
        assert len(phi) == n + 1
        for i, row in enumerate(phi):
            assert set(row) == {j for j in range(i, n + 1) if counts[i][j]}
            assert all(balanced(w, i, j) for j in row), (w, i, sorted(row))
            for j in range(i, n + 1):
                if j in row:
                    assert bits(row[j]) == bits(want[i][j]), (w, i, j)
                else:
                    assert positive_zero(want[i][j]), (w, i, j)


def test_a_nan_covariance_stays_in_the_balanced_intervals(monkeypatch):
    # the dense fill spreads NaN * 0 into the intervals no term reaches,
    # so it reads NaN on a word that is not balanced; the pass reads 0j
    m = tracial_model()
    monkeypatch.setattr(GeneratorSpec, "eta", lambda g, z: complex("nan"))
    even = (x("g", 0), x("g", 1), y("g", 0), y("g", 1))
    uneven = (x("g", 0), x("g", 1), y("g", 0), x("g", 0))
    assert cmath.isnan(evaluate_state(m, even))
    assert cmath.isnan(evaluate_state_shifted(m, even, range(2, 4), 1j))
    assert positive_zero(evaluate_state(m, uneven))
    assert positive_zero(evaluate_state_shifted(m, uneven, range(2, 4), 1j))
    # the class scan reads the uneven word 0 before any pass; the pass
    # alone reads it 0 too
    assert positive_zero(interval_states(m, uneven)[0].get(4, 0j))
    assert positive_zero(
        interval_states(m, uneven, [0j, 0j, 1j, 1j])[0].get(4, 0j))
    assert cmath.isnan(row_by_row_table(full_kernel(m, uneven))[0][4])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_shared_eta_table_calls_eta_once_per_argument(data):
    # int tags at time_den 2, as the sampled checks draw them: each tick
    # difference is one real time
    m = data.draw(models()).with_time_den(2)
    ws = data.draw(st.lists(words(m, times=st.integers(-4, 4), max_size=10),
                            max_size=6))
    alone = [evaluate_state(m, w) for w in ws]
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        etas: dict = {}
        shared = [evaluate_state(m, w, etas) for w in ws]
    assert [bits(v) for v in shared] == [bits(v) for v in alone]
    distinct = {(w[i].gen, w[k].time - w[i].time)
                for w in ws if class_pairings(w)
                for i, k in pairable_pairs(m, w)}
    assert sorted(counter.calls) == sorted(
        {(g, m.real_time(d)) for g, d in distinct})


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_plain_and_shifted_words_share_one_eta_table(data):
    # the word pairs of the kms check: int tags at time_den 2, a + b with
    # the suffix b shifted by t + i, and sigma_t(b) a.  A pair on one side
    # of the block asks eta at the real time of its tick difference, as a
    # plain word's pair does, and a pair across it at that time plus or
    # minus the shift; the shift's imaginary part 1 keeps these apart.  eta
    # is called once per distinct (generator, tick difference d, offset
    # difference od), od 0 on one side: two pairs across different shifts
    # may still meet at one argument, as d = 0 at 1j and d = -1 at 1/2 + i
    m = data.draw(models()).with_time_den(2)
    cases = []
    for _ in range(data.draw(st.integers(1, 4))):
        a, b = (data.draw(words(m, times=st.integers(-4, 4), max_size=5))
                for _ in range(2))
        t = data.draw(st.integers(-4, 4))
        z = complex(m.real_time(t)) + 1j
        cases.append((a + b, range(len(a), len(a) + len(b)), z))
        cases.append((shift_word(b, t) + a, None, None))

    def evaluate(w, block, z, etas=None):
        if block is None:
            return evaluate_state(m, w, etas)
        return evaluate_state_shifted(m, w, block, z, etas)

    alone = [evaluate(*case) for case in cases]
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        etas: dict = {}
        shared = [evaluate(*case, etas) for case in cases]
    assert [bits(v) for v in shared] == [bits(v) for v in alone]
    arguments: dict = {}  # (generator, d, od) -> (generator, argument)
    for w, block, z in cases:
        if not class_pairings(w):
            continue
        off = [z if block is not None and i in block else 0j
               for i in range(len(w))]
        for i, k in pairable_pairs(m, w, off):
            d, od = w[k].time - w[i].time, off[k] - off[i]
            arguments[w[i].gen, d, od] = (w[i].gen, m.real_time(d) + od)
    assert Counter(counter.calls) == Counter(arguments.values())


def test_same_side_pairs_of_a_shifted_word_take_the_real_path():
    # a pair on one side of the block has offset difference 0j, so eta
    # gets its real time alone, a float, and its real path gives the bits
    # of the literal complex sum; a pair across the block gets that time
    # minus z, a complex
    m = two_atom_model()
    gen = m.sole_generator().gen_id
    w = tuple(x(gen, Fraction(t)) for t in ("0", "1/3", "1/2", "1", "5/4", "2"))
    block, z = range(2), 0.25 + 0.5j
    original = GeneratorSpec.eta

    def evaluate(as_complex):
        calls = []

        def eta(g, t):
            calls.append(t)
            return original(g, complex(t) if as_complex else t)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GeneratorSpec, "eta", eta)
            return evaluate_state_shifted(m, w, block, z), calls

    value, calls = evaluate(False)
    pairs = [(i, k) for i in range(len(w)) for k in range(i + 1, len(w), 2)]
    same = {float(w[k].time - w[i].time) for i, k in pairs
            if (i in block) == (k in block)}
    across = {float(w[k].time - w[i].time) + (0j - z) for i, k in pairs
              if (i in block) != (k in block)}
    assert sorted(t for t in calls if type(t) is float) == sorted(same)
    assert {t for t in calls if type(t) is complex} == across
    assert len(calls) == len(same) + len(across)
    assert bits(value) == bits(evaluate(True)[0])
