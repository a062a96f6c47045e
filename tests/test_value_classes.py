"""The value classes the numpy-free path builds, and what callers rely on.

``SpectralAtom``, ``GeneratorSpec`` and ``StateValue`` compare, hash and
print by their fields and refuse assignment; ``GeneratorSpec``'s cached
eta runs stay out of all three.  ``ModelSpec`` compares and hashes by
identity (the suite keys its solves on it) and keeps a ``__dict__``.
``Letter`` is a named tuple.  Each round-trips through ``copy`` and
``pickle``.  None of this depends on how the classes are built.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ncfisher.algebra import Letter, _new_letter, x, y
from ncfisher.model import (ConfigError, GeneratorSpec, ModelSpec,
                            SpectralAtom, two_atom_model)
from ncfisher.moments import StateValue

ATOM = SpectralAtom(0.25, 0.5)
MIRROR = SpectralAtom(-0.25, 0.5 * 0.20787957635076193)


def generator(gen_id="g"):
    return GeneratorSpec(gen_id, (ATOM, MIRROR))


def values():
    """Two equal, independently built instances of each value class, and
    one that differs from them in one field."""
    return [
        (SpectralAtom(0.25, 0.5), SpectralAtom(0.25, 0.5),
         SpectralAtom(0.25, 0.75)),
        (generator(), generator(), generator("h")),
        (StateValue(1 + 2j, 3, 4.5), StateValue(value=1 + 2j,
                                                partition_count=3,
                                                magnitude=4.5),
         StateValue(1 + 2j, 3, 5.0)),
    ]


@pytest.mark.parametrize("a, b, other", values())
def test_value_classes_compare_and_hash_by_their_fields(a, b, other):
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_a_generators_cached_runs_are_not_among_its_fields():
    g, h = generator(), generator()
    object.__setattr__(h, "_runs", ())
    object.__setattr__(h, "_x_max", 7.0)
    assert g == h and hash(g) == hash(h)
    assert repr(g) == repr(h)
    assert "_runs" not in repr(g) and "_x_max" not in repr(g)


def test_a_model_compares_and_hashes_by_identity():
    m = two_atom_model()
    twin = ModelSpec(m.generators, m.tolerance, m.time_den)
    assert m == m and m != twin and not m == twin
    assert hash(m) == object.__hash__(m)
    assert {m: 1, twin: 2}[m] == 1
    # the generators inside compare by value
    assert twin.generators == m.generators


def test_a_model_keeps_its_fields_in_a_dict():
    m = two_atom_model()
    assert vars(m) == {"generators": m.generators,
                       "tolerance": m.tolerance, "time_den": 1}


@pytest.mark.parametrize("obj, name", [
    (ATOM, "x"), (ATOM, "w"), (ATOM, "other"),
    (generator(), "gen_id"), (generator(), "atoms"), (generator(), "_runs"),
    (StateValue(1j, 1, 1.0), "value"),
    (StateValue(1j, 1, 1.0), "magnitude"),
])
def test_value_classes_refuse_assignment(obj, name):
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, name, 0.125)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert repr(obj) == before


def test_reprs_name_every_field_in_order():
    assert repr(ATOM) == "SpectralAtom(x=0.25, w=0.5)"
    assert repr(GeneratorSpec("g", (ATOM,))) == (
        "GeneratorSpec(gen_id='g', atoms=(SpectralAtom(x=0.25, w=0.5),))")
    assert repr(StateValue(1j, 2, 3.0)) == (
        "StateValue(value=1j, partition_count=2, magnitude=3.0)")
    m = ModelSpec((GeneratorSpec("g", (ATOM,)),), 1e-6, 4)
    assert repr(m) == (
        "ModelSpec(generators=(GeneratorSpec(gen_id='g', "
        "atoms=(SpectralAtom(x=0.25, w=0.5),)),), tolerance=1e-06, "
        "time_den=4)")
    assert repr(x("g", "1/2")) == (
        "Letter(family='X', gen='g', time=Fraction(1, 2))")


def round_trips(obj):
    return [copy.copy(obj), copy.deepcopy(obj),
            pickle.loads(pickle.dumps(obj))]


@pytest.mark.parametrize("a, b, other", values())
def test_value_classes_round_trip(a, b, other):
    for back in round_trips(a):
        assert type(back) is type(a) and back == a and hash(back) == hash(a)
        assert repr(back) == repr(a)


def test_a_round_tripped_generator_evaluates_like_its_source():
    g = generator()
    for back in round_trips(g):
        for z in (0, 0.5, -3, 1 + 0.5j):
            assert back.eta(z) == g.eta(z)
        with pytest.raises(AttributeError):
            back.gen_id = "h"


def test_a_round_tripped_model_keeps_its_fields():
    m = two_atom_model().with_time_den(6)
    for back in round_trips(m):
        assert type(back) is ModelSpec and back is not m
        assert vars(back) == vars(m)
        assert back.real_time(3) == m.real_time(3)


def test_the_constructors_validate():
    with pytest.raises(ConfigError, match="atom weight must be positive"):
        SpectralAtom(0.0, 0.0)
    with pytest.raises(ConfigError, match="has no atoms"):
        GeneratorSpec("g", ())
    with pytest.raises(ConfigError, match="duplicate frequencies"):
        GeneratorSpec("g", (ATOM, ATOM))
    with pytest.raises(ConfigError, match="ids must be unique"):
        ModelSpec((generator(), generator()))
    with pytest.raises(ConfigError, match="tolerance must be positive"):
        ModelSpec((generator(),), tolerance=0.0)
    with pytest.raises(ConfigError, match="time_den must be a positive int"):
        ModelSpec((generator(),), time_den=2.0)
    # keywords name the same fields as positions
    assert SpectralAtom(w=0.5, x=0.25) == ATOM
    assert GeneratorSpec(atoms=(ATOM,), gen_id="g") == GeneratorSpec(
        "g", (ATOM,))
    m = ModelSpec(generators=[generator()], time_den=3, tolerance=1e-7)
    assert type(m.generators) is tuple
    assert (m.tolerance, m.time_den) == (1e-7, 3)


def test_with_time_den_and_scaled_keep_the_rest_of_the_model():
    m = ModelSpec((generator("a"), generator("b")), tolerance=1e-6)
    ticked = m.with_time_den(12)
    assert ticked is not m and ticked.time_den == 12 and m.time_den == 1
    assert ticked.tolerance == 1e-6 and ticked.generators == m.generators
    scaled = ticked.scaled(4.0)
    assert (scaled.tolerance, scaled.time_den) == (1e-6, 12)
    assert scaled.gen_ids() == ("a", "b")
    assert [[(a.x, a.w) for a in g.atoms] for g in scaled.generators] == [
        [(0.25, 2.0), (-0.25, 4 * MIRROR.w)]] * 2
    with pytest.raises(ConfigError, match="time_den"):
        m.with_time_den(0)


def test_letter_is_a_named_tuple():
    a = x("g", "1/2")
    assert Letter._fields == ("family", "gen", "time")
    assert tuple(a) == ("X", "g", Fraction(1, 2)) and a == ("X", "g",
                                                            Fraction(1, 2))
    assert a._replace(time=2) == x("g", 2)
    assert a._replace(family="Y") == y("g", "1/2")
    assert str(a) == "Xg:1/2" and str(y("h", -3)) == "Yh:-3"
    for t in (("X", "g", 0), ("Y", "h", Fraction(-3, 4))):
        made = _new_letter(Letter, t)
        assert type(made) is Letter and made == Letter(*t)
        assert hash(made) == hash(Letter(*t)) == hash(t)
    assert Letter(family="X", gen="g", time=1) == x("g", 1)
    with pytest.raises(AttributeError):
        a.time = 3
    with pytest.raises(AttributeError):
        a.other = 3
    for back in round_trips(a):
        assert type(back) is Letter and back == a and str(back) == str(a)
