"""Seeded random inputs for the verification batteries.

Everything here is driven by a caller-owned `random.Random`, so identical
seeds give identical inputs on every platform.  Times are drawn from the
half grid -1, -1/2, 0, 1/2, 1 as int tags in ticks of 1/2, so the words
are meant for a model with ``time_den`` 2 (``ModelSpec.with_time_den``).
"""
from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Letter, Word, X_FAMILY, x
from .core_cp import CoreWord

__all__ = [
    "HALF_GRID",
    "HALF_GRID_TICKS",
    "TIME_DEN",
    "random_time",
    "random_word",
    "random_core_word",
]

#: ticks per unit of time of the drawn tags
TIME_DEN = 2

#: the half grid -1 .. 1 in ticks of 1/``TIME_DEN``
HALF_GRID_TICKS = range(-2, 3)

#: the same grid as exact times, for models with ``time_den`` 1
HALF_GRID = tuple(Fraction(k, TIME_DEN) for k in HALF_GRID_TICKS)


def random_time(rng: random.Random) -> int:
    return rng.choice(HALF_GRID_TICKS)


def random_word(rng: random.Random, gens, max_len: int,
                families=(X_FAMILY,)) -> Word:
    """Up to ``max_len`` letters, each of a family of ``families`` (the
    primary and partner families only) and a generator of ``gens``."""
    gens = list(gens)
    letters = []
    for _ in range(rng.randint(0, max_len)):
        fam = rng.choice(families)
        gen = rng.choice(gens)
        letters.append(Letter(fam, gen, random_time(rng)))
    return tuple(letters)


def random_core_word(rng: random.Random, gens, max_x_degree: int) -> CoreWord:
    """Up to ``max_x_degree`` letters, each preceded by a U step with
    probability 0.6, then a final U step with probability 0.7; the U steps
    are pushed right as they are drawn, so the word comes out in normal
    form."""
    gens = list(gens)
    letters = []
    shift = 0
    n_x = rng.randint(0, max_x_degree)
    for _ in range(n_x):
        if rng.random() < 0.6:
            shift += random_time(rng)
        letters.append(x(rng.choice(gens), random_time(rng) + shift))
    if rng.random() < 0.7:
        shift += random_time(rng)
    return CoreWord(tuple(letters), shift)
