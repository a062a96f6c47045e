"""Time tags as int ticks of 1/time_den.

A model with ``time_den`` 2 evaluates int tags k as the times k/2.  Every
evaluator must then give, bit for bit, what the unit model gives on the
Fraction tags k/2, and the sampled identity checks, which draw int ticks,
must do no Fraction arithmetic at all.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from ncfisher import sampling
from ncfisher.algebra import X_FAMILY, as_time, x, y
from ncfisher.conjugate import BasisSpec, fock_vectors, solve_conjugate
from ncfisher.core_cp import CoreWord, eta_map, verify_core_identity
from ncfisher.model import ConfigError, build_model, two_atom_model
from ncfisher.moments import (
    brute_force_oracle,
    evaluate_state,
    evaluate_state_shifted,
)
from ncfisher.sampling import (
    HALF_GRID,
    TIME_DEN,
    random_core_word,
    random_word,
)


def three_atom_model():
    return build_model({"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": 0, "w": 0.4}, {"x": 0.13, "w": 0.7}]},
        {"name": "h", "mode": "half", "atoms": [{"x": 0.3, "w": 0.5}]},
    ]})


MODELS = [two_atom_model, three_atom_model]


def as_unit(w):
    """The letters of ``w`` with tick tags k turned into the times k/2."""
    return tuple(l._replace(time=Fraction(l.time, TIME_DEN)) for l in w)


def same(a: complex, b: complex) -> bool:
    """Equal bit for bit, signed zeros included."""
    return repr(complex(a)) == repr(complex(b))


# the draws of the sampling module before its tags became ticks, kept as
# the reference the tick draws are checked against


def unit_random_word(rng, gens, max_len, families=(X_FAMILY,)):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        fam = rng.choice(families)
        gen = rng.choice(list(gens))
        t = rng.choice(HALF_GRID)
        letters.append(x(gen, t) if fam == X_FAMILY else y(gen, t))
    return tuple(letters)


def unit_random_core_word(rng, gens, max_x_degree):
    gens = list(gens)
    letters = []
    shift = Fraction(0)
    for _ in range(rng.randint(0, max_x_degree)):
        if rng.random() < 0.6:
            shift += rng.choice(HALF_GRID)
        letters.append(x(rng.choice(gens), rng.choice(HALF_GRID) + shift))
    if rng.random() < 0.7:
        shift += rng.choice(HALF_GRID)
    return CoreWord(tuple(letters), shift)


@pytest.mark.parametrize("seed", range(4))
def test_tick_draws_are_the_unit_draws_doubled(seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(50):
        w = random_word(new, ["g", "h"], 8, families=("X", "Y"))
        assert all(type(l.time) is int for l in w)
        assert as_unit(w) == unit_random_word(old, ["g", "h"], 8,
                                              families=("X", "Y"))
        cw = random_core_word(new, ["g", "h"], 6)
        ref = unit_random_core_word(old, ["g", "h"], 6)
        assert type(cw.r) is int
        assert as_unit(cw.word) == ref.word
        assert Fraction(cw.r, TIME_DEN) == ref.r
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("make", MODELS)
def test_tick_model_evaluates_as_the_unit_model(make):
    m = make()
    m2 = m.with_time_den(TIME_DEN)
    gens = list(m.gen_ids())
    rng = random.Random(5)
    for _ in range(60):
        w = random_word(rng, gens, 10, families=("X", "Y"))
        u = as_unit(w)
        assert same(evaluate_state(m2, w), evaluate_state(m, u))
        assert same(brute_force_oracle(m2, w), brute_force_oracle(m, u))
        if w:
            k = rng.randrange(len(w) + 1)
            z = complex(rng.choice(HALF_GRID)) + 1j
            assert same(evaluate_state_shifted(m2, w, range(k, len(w)), z),
                        evaluate_state_shifted(m, u, range(k, len(w)), z))


@pytest.mark.parametrize("make", MODELS)
def test_tick_model_maps_and_solves_as_the_unit_model(make):
    m = make()
    m2 = m.with_time_den(TIME_DEN)
    g = m.generators[0].gen_id
    ticks = range(-3, 4)
    p2 = {k: complex(k, 1) for k in ticks}
    p = {Fraction(k, TIME_DEN): complex(k, 1) for k in ticks}
    mapped2, mapped = eta_map(m2, g, p2), eta_map(m, g, p)
    assert len(mapped2) == len(mapped)
    for k, c in mapped2.items():
        assert same(c, mapped[Fraction(k, TIME_DEN)])

    alphabet2 = [x(gen, k) for gen in m.gen_ids() for k in (-1, 0, 3)]
    assert (fock_vectors(m2, alphabet2, 3).tobytes()
            == fock_vectors(m, as_unit(alphabet2), 3).tobytes())

    grid = (-2, -1, 0, 1, 2)
    sol2 = solve_conjugate(m2, g, BasisSpec(grid, 3), target_time=1)
    sol = solve_conjugate(m, g, BasisSpec([Fraction(k, TIME_DEN)
                                           for k in grid], 3),
                          target_time=Fraction(1, TIME_DEN))
    assert sol2.rhs.tobytes() == sol.rhs.tobytes()
    assert np.array_equal(sol2.coefficients, sol.coefficients)


def test_time_tags_keep_ints_and_refuse_bools():
    assert type(as_time(3)) is int and as_time(3) == 3
    half = Fraction(1, 2)
    assert as_time(half) is half
    assert as_time("-3/2") == Fraction(-3, 2)
    for bad in (True, False, 0.5):
        with pytest.raises(TypeError):
            as_time(bad)
    assert type(CoreWord().r) is int


def test_time_den_leaves_the_config_and_is_checked():
    m = two_atom_model()
    assert m.time_den == 1
    m2 = m.with_time_den(2)
    assert m2.config_dict() == m.config_dict()
    assert m2.scaled(2.0).time_den == 2 and m.time_den == 1
    half = Fraction(1, 2)
    assert m.real_time(half) is half and m2.real_time(3) == 1.5
    for bad in (0, -2, True, 2.0):
        with pytest.raises(ConfigError):
            m.with_time_den(bad)


FRACTION_OPS = ("__hash__", "__add__", "__radd__", "__sub__", "__rsub__")


@pytest.fixture
def fraction_ops(monkeypatch):
    """Calls of Fraction's hash, additions and subtractions, by name."""
    counts = dict.fromkeys(FRACTION_OPS, 0)

    def counting(name):
        real = getattr(Fraction, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, counting(name))
    return counts


def test_sampled_checks_do_no_fraction_arithmetic(fraction_ops):
    m = two_atom_model()
    sampling.core_residual(m, "g", random.Random(3), 20, 6)
    sampling.insertion_residual(m, "g", random.Random(3), 20, 6)
    assert fraction_ops == dict.fromkeys(FRACTION_OPS, 0)
    # the counters see the same identity on Fraction tags
    half = Fraction(1, 2)
    verify_core_identity(m, "g", CoreWord((x("g", half), x("g", 0)), half))
    assert fraction_ops["__hash__"] > 0
    assert fraction_ops["__add__"] + fraction_ops["__radd__"] > 0
