"""The interval-pass evaluator against the independent ones.

Values are compared with the exhaustive oracle within 1e-12 of the pairing
scale (number of compatible non-crossing pairings times the largest second
moment to the power of the pair count); partition counts with a literal
count of the oracle's compatible non-crossing pairings; the noise
expansion's closed form with its definition as a sum of states of flipped
words, within 1e-12 of the summed magnitudes of their pairing terms.
The kernel is compared bit for bit with the covariance of each letter pair,
and its eta calls are counted against the distinct differences it needs,
for one word or for words that share a run's eta table.  Every entry of a
word's pairing table is compared bit for bit with its subword's own pass.
The pruned depth-first oracle is compared bit for bit with the literal
filter over all pair partitions (``tests/oracles.py``).
"""
import cmath
import copy
import math
import struct
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ncfisher import core_cp, moments
from ncfisher.algebra import Letter, x, y
from ncfisher.brownian import expand_state
from ncfisher.core_cp import CoreWord, verify_core_identity
from ncfisher.model import GeneratorSpec, build_model, tracial_model
from ncfisher.moments import (
    brute_force_oracle,
    covariance,
    evaluate_state,
    evaluate_state_detailed,
    evaluate_state_shifted,
    pairing_table,
    word_kernel,
)
from oracles import (all_pairings, flipped_word_sums, is_noncrossing,
                     literal_oracle)

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
    # the literal filter multiplies up to 6 covariances on each survivor
    calls = []
    original = moments.covariance

    def counted(m, a, b):
        calls.append((a, b))
        return original(m, a, b)

    monkeypatch.setattr(moments, "covariance", counted)
    assert brute_force_oracle(tracial_model(), (x("g", 0),) * 12) == 132
    assert len(calls) < 10_395


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
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=16))
    rows = word_kernel(m, w)
    for i, k in compatible_pairs(w):
        want = covariance(m, w[i], w[k])
        got = dict(rows[i]).get(k, 0j)
        assert got == want, (i, k, got, want)
    listed = {(i, k) for i, row in enumerate(rows) for k, _ in row}
    assert listed <= set(compatible_pairs(w))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eta_called_once_per_distinct_generator_and_difference(data):
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=16))
    # an odd word is exactly 0 with no kernel built, so no eta call
    distinct = {(w[i].gen, w[k].time - w[i].time)
                for i, k in compatible_pairs(w) if len(w) % 2 == 0}
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


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_odd_words_are_positive_zero_with_no_eta_call(data):
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=15).filter(lambda w: len(w) % 2))
    n = len(w)
    k = data.draw(st.integers(0, n))
    block = data.draw(st.sampled_from([range(k), range(k, n)]))
    z = complex(data.draw(st.integers(-4, 4)) / 4,
                data.draw(st.sampled_from([0.0, -1.0, 1.0])))
    with pytest.MonkeyPatch.context() as mp:
        counter = EtaCounter(mp)
        plain = evaluate_state(m, w)
        shifted = evaluate_state_shifted(m, w, block, z)
    assert positive_zero(plain) and positive_zero(shifted)
    assert counter.calls == []


@pytest.mark.parametrize("n", [moments.MAX_WORD_LETTERS + 1,
                               moments.MAX_WORD_LETTERS + 2])
def test_words_over_the_size_limit_are_refused_at_either_parity(n):
    m = tracial_model()
    w = (x("g", 0),) * n
    with pytest.raises(moments.SizeLimitError):
        evaluate_state(m, w)
    with pytest.raises(moments.SizeLimitError):
        evaluate_state_shifted(m, w, range(n // 2, n), 0.5 + 1j)


def test_core_identity_builds_one_kernel(monkeypatch):
    # Q has 5 letters: zeta* Q has 6, and every prefix and suffix the
    # derivative takes is an interval of its one pairing table
    m = tracial_model()
    evaluated, kernels = [], []
    original_kernel = moments.word_kernel

    def kernel(m, letters, *args, **kwargs):
        kernels.append(len(letters))
        return original_kernel(m, letters, *args, **kwargs)

    monkeypatch.setattr(core_cp, "evaluate_state",
                        lambda *args: evaluated.append(args))
    monkeypatch.setattr(moments, "word_kernel", kernel)
    q = CoreWord(tuple(x("g", Fraction(k, 2)) for k in range(5)), 1)
    assert verify_core_identity(m, "g", q) < 1e-12
    assert kernels == [6]
    assert evaluated == []


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pairing_table_holds_every_subword_state_bit_for_bit(data):
    # a subword's own pass puts its tags over its own denominator, the
    # table over the whole word's; both give eta the same double
    m = data.draw(models())
    w = data.draw(words(m, times=st.one_of(big_times, small_times),
                        max_size=12))
    phi = pairing_table(word_kernel(m, w))
    for i in range(len(w) + 1):
        for j in range(i, len(w) + 1):
            assert bits(phi[i][j]) == bits(evaluate_state(m, w[i:j])), (i, j)


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
                for w in ws if len(w) % 2 == 0
                for i, k in compatible_pairs(w)}
    assert sorted(counter.calls) == sorted(
        {(g, m.real_time(d)) for g, d in distinct})
