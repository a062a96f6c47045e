"""The draws of :mod:`ncfisher.sampling` equal the stdlib's.

The module reads ``rng.getrandbits`` itself.  Each draw must take the same
bits as ``rng.choice``, ``rng.randint`` and ``rng.random`` would, so the
words come out the same and the generator ends in the same state.  The
golden ``verify-core`` reports cannot see a changed stream: the core
identity's residual is exactly 0.0 on every draw.
"""

import random

import pytest

from ncfisher.sampling import (_below, random_core_word, random_time,
                               random_word)
from oracles import choice_core_word, choice_time, choice_word

# five generators take 3 index bits, so 3 draws in 8 are rejected
GENS = [["g"], ["g", "h"], ["g", "h", "k"], ["a", "b", "c", "d", "e"]]
FAMILIES = [("X",), ("X", "Y")]


@pytest.mark.parametrize("gens", GENS)
@pytest.mark.parametrize("families", FAMILIES)
def test_words_are_the_choice_draws(gens, families):
    for seed in range(20):
        new, ref = random.Random(seed), random.Random(seed)
        for degree in range(9):
            assert (random_word(new, gens, degree, families)
                    == choice_word(ref, gens, degree, families))
        assert new.random() == ref.random()


@pytest.mark.parametrize("gens", GENS)
def test_core_words_and_times_are_the_choice_draws(gens):
    for seed in range(20):
        new, ref = random.Random(seed), random.Random(seed)
        for degree in range(9):
            cw = random_core_word(new, gens, degree)
            want = choice_core_word(ref, gens, degree)
            assert (cw.word, cw.r) == (want.word, want.r)
            assert type(cw.r) is int
            assert random_time(new) == choice_time(ref)
        assert new.random() == ref.random()


def test_below_is_randbelow():
    for n in (1, 2, 3, 5, 8, 9, 1000, 2**40 + 3):
        new, ref = random.Random(n), random.Random(n)
        assert [_below(new.getrandbits, n) for _ in range(50)] == [
            ref._randbelow(n) for _ in range(50)]
        assert new.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_below_refuses_an_empty_range(n):
    # getrandbits(0) is 0, so the rejection loop would never end
    with pytest.raises(ValueError):
        _below(random.Random(0).getrandbits, n)


@pytest.mark.parametrize("gens, families", [([], ("X",)), ([], ("X", "Y")),
                                             (["g"], ()), ([], ())])
def test_an_empty_draw_is_refused_where_choice_refuses_it(gens, families):
    # choice raises IndexError before drawing from an empty sequence; the
    # draws raise ValueError at the same index, the generator where the
    # choice draws leave it
    for seed in range(20):
        for degree in range(4):
            new, ref = random.Random(seed), random.Random(seed)
            try:
                want = choice_word(ref, gens, degree, families)
            except IndexError:
                with pytest.raises(ValueError):
                    random_word(new, gens, degree, families)
            else:
                assert want == ()
                assert random_word(new, gens, degree, families) == ()
            assert new.getstate() == ref.getstate()


def test_an_empty_core_draw_is_refused_where_choice_refuses_it():
    refused = 0
    for seed in range(20):
        for degree in range(4):
            new, ref = random.Random(seed), random.Random(seed)
            try:
                want = choice_core_word(ref, [], degree)
            except IndexError:
                refused += 1
                with pytest.raises(ValueError):
                    random_core_word(new, [], degree)
            else:
                assert want.word == ()
                assert random_core_word(new, [], degree) == want
            assert new.getstate() == ref.getstate()
    assert 0 < refused < 60  # 20 draws at degree 0 return the empty word


def test_empty_generators_and_negative_degrees_raise():
    # the stdlib draws raise too: choice from an empty list, randint over
    # an empty range; seed 0 draws a nonempty word at degree 4
    with pytest.raises(IndexError):
        choice_word(random.Random(0), [], 4)
    with pytest.raises(ValueError):
        random_word(random.Random(0), [], 4)
    with pytest.raises(ValueError):
        random_core_word(random.Random(0), [], 4)
    for draw in (random_word, random_core_word):
        with pytest.raises(ValueError):
            draw(random.Random(0), ["g"], -1)
    with pytest.raises(ValueError):
        choice_word(random.Random(0), ["g"], -1)
