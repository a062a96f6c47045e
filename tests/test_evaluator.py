"""The interval-pass evaluator against the independent ones.

Values are compared with the exhaustive oracle within 1e-12 of the pairing
scale (number of compatible non-crossing pairings times the largest second
moment to the power of the pair count); partition counts with a literal
count of the oracle's compatible non-crossing pairings; the noise
expansion exactly with its definition as a sum of states of flipped words.
"""
import copy
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from ncfisher.algebra import Letter, x, y
from ncfisher.brownian import expand_state
from ncfisher.model import GeneratorSpec, build_model
from ncfisher.moments import (
    all_pairings,
    brute_force_oracle,
    evaluate_state,
    evaluate_state_detailed,
    evaluate_state_shifted,
    is_noncrossing,
)

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


@st.composite
def words(draw, m, families=(x, y), max_size=12):
    ids = [g.gen_id for g in m.generators]
    letter = st.builds(
        lambda fam, g, num, den: fam(g, Fraction(num, den)),
        st.sampled_from(families),
        st.sampled_from(ids),
        st.integers(-6, 6),
        st.sampled_from([1, 2, 3, 4]),
    )
    return tuple(draw(st.lists(letter, max_size=max_size)))


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
    assert exp.powers() == [Fraction(k, 2)
                            for k in range(min(n, 2 * order) + 1)]
    for k in range(min(n, 2 * order) + 1):
        total = 0j
        for subset in combinations(range(n), k):
            flipped = tuple(y(l.gen, l.time) if i in subset else l
                            for i, l in enumerate(w))
            total += evaluate_state(m, flipped)
        assert exp.coefficient(Fraction(k, 2)) == total


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
