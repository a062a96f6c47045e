"""The Fock-vector assembly against the pairing recursion.

Gram entries of the vectors W.Omega must be state values of w_i* w_j, and
vacuum components state values of the words themselves, within 1e-12 of
the pairing scale (number of compatible non-crossing pairings times the
largest second moment to the power of the pair count).  The build in
place must equal the batched build of ``tests/oracles.py`` bit for bit.
"""
import cmath
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from ncfisher.algebra import word_adjoint, x, y
from ncfisher.conjugate import (
    BasisSpec,
    _one_particle_vectors,
    enumerate_basis,
    fock_dimension,
    fock_vectors,
    solve_conjugate,
)
from ncfisher.model import GeneratorSpec, build_model, two_atom_model
from ncfisher.moments import evaluate_state, evaluate_state_detailed
from oracles import batched_fock_vectors

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


def words_over(alphabet, degree):
    return [w for d in range(degree + 1)
            for w in itertools.product(alphabet, repeat=d)]


def check_basis(m, alphabet, degree, picks):
    """Gram entries of the picked columns and the vacuum components of
    every column (all words up to the degree, so every suffix too)."""
    vecs = fock_vectors(_one_particle_vectors(m, alphabet), degree)
    words = words_over(alphabet, degree)
    assert vecs.shape[1] == len(words)
    gram = vecs.conj().T @ vecs
    for i in picks:
        for j in picks:
            assert_close(m, gram[i, j], word_adjoint(words[i]) + words[j])
    for w, value in zip(words, vecs[0]):
        assert_close(m, value, w)
    return vecs


def alphabet_of(words):
    return [w[0] for w in words if len(w) == 1]


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
    alphabet = alphabet_of(words)
    assert words == words_over(alphabet, degree)
    vecs = check_basis(m, alphabet, degree,
                       picks_from(data.draw, len(words)))
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
    alphabet = alphabet_of(words)
    assert words == words_over(alphabet, degree)
    vecs = check_basis(m, alphabet, degree,
                       picks_from(data.draw, len(words)))
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
    alphabet = data.draw(st.lists(letter, min_size=1, max_size=4,
                                  unique=True))
    degree = data.draw(st.integers(1, 4))
    n = fock_dimension(len(alphabet), degree)
    check_basis(m, alphabet, degree, picks_from(data.draw, n))


@given(data=st.data(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_the_build_in_place_is_the_batched_build_bit_for_bit(data, kinds):
    # X and Y letters of 1-3 generators, flow-fixed ones (the tracial
    # kind) included, at degrees 0-4
    m = data.draw(models(kinds))
    degree = data.draw(st.integers(0, 4))
    letter = st.builds(
        lambda fam, g, t: fam(str(g), Fraction(t, 4)),
        st.sampled_from([x, y]),
        st.integers(0, len(kinds) - 1),
        st.integers(-8, 8),
    )
    alphabet = data.draw(st.lists(letter, min_size=1,
                                  max_size=3 if degree == 4 else 4,
                                  unique=True))
    got = fock_vectors(_one_particle_vectors(m, alphabet), degree)
    want = batched_fock_vectors(m, alphabet, degree)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_empty_basis_is_the_vacuum():
    m = build_model({"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1}]}]})
    for degree in (0, 3):
        vecs = fock_vectors(_one_particle_vectors(m, []), degree)
        assert np.array_equal(vecs, np.ones((1, 1)))
    assert evaluate_state(m, ()) == 1


def reference_column(m, alphabet, word, degree):
    """W.Omega applied letter by letter to a sparse tensor keyed by
    one-particle index tuples (first factor first), then laid out with the
    first factor varying fastest: row((i,) + rest) = 1 + row(rest) k + i."""
    blocks, k = {}, 0
    for letter in alphabet:
        if (letter.family, letter.gen) not in blocks:
            blocks[(letter.family, letter.gen)] = k
            k += len(m.gen(letter.gen).atoms)

    def one_particle(letter):
        start = blocks[(letter.family, letter.gen)]
        return {start + j: math.sqrt(at.w)
                * cmath.exp(2j * math.pi * float(letter.time) * at.x)
                for j, at in enumerate(m.gen(letter.gen).atoms)}

    tensor = {(): 1 + 0j}
    for letter in reversed(word):
        f = one_particle(letter)
        out = defaultdict(complex)
        for idx, c in tensor.items():
            for i, fi in f.items():
                out[(i,) + idx] += fi * c  # creation
            if idx and idx[0] in f:
                out[idx[1:]] += f[idx[0]].conjugate() * c  # annihilation
        tensor = out

    def row(idx):
        return 1 + row(idx[1:]) * k + idx[0] if idx else 0

    col = np.zeros(fock_dimension(k, degree), dtype=complex)
    for idx, c in tensor.items():
        col[row(idx)] += c
    return col


def test_solve_counts_and_fock_layout(monkeypatch):
    m = two_atom_model()
    grid = tuple(Fraction(k, 2) for k in range(-2, 3))
    basis = BasisSpec(grid, 3)
    words = enumerate_basis(m, "g", basis)
    alphabet = alphabet_of(words)

    eta_calls = []
    eta = GeneratorSpec.eta
    monkeypatch.setattr(GeneratorSpec, "eta",
                        lambda g, z: eta_calls.append(z) or eta(g, z))
    solve_conjugate(m, "g", basis)
    assert 0 < len(eta_calls) <= len(alphabet)
    monkeypatch.undo()

    vecs = fock_vectors(_one_particle_vectors(m, alphabet), 3)
    k = len(m.gen("g").atoms)
    assert vecs.shape == (fock_dimension(k, 3),
                          sum(len(alphabet) ** d for d in range(4)))
    assert vecs.shape[1] == len(words)
    for j, w in enumerate(words):
        want = reference_column(m, alphabet, w, 3)
        assert np.abs(vecs[:, j] - want).max() <= RTOL, w
