"""The Fock-vector assembly against the pairing recursion.

Gram entries of the vectors W.Omega must be state values of w_i* w_j, and
vacuum components state values of the words themselves, within 1e-12 of
the pairing scale (number of compatible non-crossing pairings times the
largest second moment to the power of the pair count).
"""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from ncfisher.algebra import word_adjoint, x, y
from ncfisher.conjugate import BasisSpec, enumerate_basis
from ncfisher.model import build_model
from ncfisher.moments import (
    evaluate_state,
    evaluate_state_detailed,
    fock_dimension,
    fock_vectors,
)

RTOL = 1e-12
KINDS = ("two_atom", "three_atom", "tracial")

weights = st.floats(0.2, 1.5)
freqs = st.floats(0.05, 0.4)


@st.composite
def generator_configs(draw, name, kind):
    if kind == "tracial":
        atoms = [{"x": 0, "w": draw(weights)}]
    elif kind == "two_atom":
        atoms = [{"x": draw(freqs), "w": draw(weights)}]
    else:
        atoms = [{"x": 0, "w": draw(weights)},
                 {"x": draw(freqs), "w": draw(weights)}]
    return {"name": name, "mode": "half", "atoms": atoms}


@st.composite
def models(draw, kinds):
    gens = [draw(generator_configs(str(i), kind)) for i, kind in enumerate(kinds)]
    return build_model({"generators": gens})


@st.composite
def grids(draw, max_points=3):
    den = draw(st.sampled_from([1, 2, 4]))
    nums = draw(st.sets(st.integers(-4, 4), min_size=1, max_size=max_points))
    return tuple(Fraction(k, den) for k in sorted(nums))


def assert_close(m, got, word):
    detail = evaluate_state_detailed(m, word)
    vmax = max(g.v for g in m.generators)
    scale = max(1.0, detail.partition_count * vmax ** (len(word) // 2))
    assert abs(got - detail.value) <= RTOL * scale, (word, got, detail.value)


def check_basis(m, words, picks):
    vecs, vacuum = fock_vectors(m, words)
    gram = vecs.conj().T @ vecs
    for i in picks:
        for j in picks:
            assert_close(m, gram[i, j], word_adjoint(words[i]) + words[j])
    for w, value in vacuum.items():
        assert_close(m, value, w)
    return vecs


def picks_from(draw, n):
    return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12,
                         unique=True))


@given(data=st.data(), kind=st.sampled_from(KINDS))
@settings(max_examples=30, deadline=None)
def test_single_generator_basis_gram(data, kind):
    m = data.draw(models([kind]))
    grid = data.draw(grids())
    degree = data.draw(st.integers(1, 3))
    t0 = data.draw(st.sampled_from(grid))
    words = enumerate_basis(m, "0", BasisSpec(grid, degree), target_time=t0)
    vecs = check_basis(m, words, picks_from(data.draw, len(words)))
    atoms = len(m.generators[0].atoms)
    assert vecs.shape == (fock_dimension(atoms, degree), len(words))


@given(data=st.data(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=3))
@settings(max_examples=25, deadline=None)
def test_multi_generator_basis_gram(data, kinds):
    m = data.draw(models(kinds))
    grid = data.draw(grids(max_points=2))
    degree = data.draw(st.integers(1, 2))
    b_gens = tuple(str(i) for i in range(1, len(kinds)))
    words = enumerate_basis(m, "0", BasisSpec(grid, degree), b_gens,
                            target_time=grid[0])
    vecs = check_basis(m, words, picks_from(data.draw, len(words)))
    atoms = sum(len(g.atoms) for g in m.generators)
    assert vecs.shape[0] == fock_dimension(atoms, degree)


@given(data=st.data(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_mixed_family_words(data, kinds):
    # partner letters get their own one-particle block
    m = data.draw(models(kinds))
    letter = st.builds(
        lambda fam, g, t: fam(str(g), Fraction(t, 4)),
        st.sampled_from([x, y]),
        st.integers(0, len(kinds) - 1),
        st.integers(-8, 8),
    )
    words = data.draw(st.lists(st.lists(letter, max_size=4).map(tuple),
                               min_size=1, max_size=10))
    check_basis(m, words, range(len(words)))


def test_empty_basis_is_the_vacuum():
    m = build_model({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1}]}]})
    vecs, vacuum = fock_vectors(m, [()])
    assert np.array_equal(vecs, np.ones((1, 1)))
    assert vacuum == {(): 1 + 0j}
    assert evaluate_state(m, ()) == 1
