"""Seeded random inputs for the verification batteries.

Everything here is driven by a caller-owned `random.Random`, so identical
seeds give identical inputs on every platform.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Word, X_FAMILY, x, y
from .core_cp import CoreWord

__all__ = [
    "HALF_GRID",
    "random_time",
    "random_word",
    "random_core_word",
]

#: default rational time pool
HALF_GRID = tuple(Fraction(k, 2) for k in range(-2, 3))


def random_time(rng: random.Random) -> Fraction:
    return rng.choice(HALF_GRID)


def random_word(rng: random.Random, gens, max_len: int,
                families=(X_FAMILY,)) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        fam = rng.choice(families)
        gen = rng.choice(list(gens))
        t = random_time(rng)
        letters.append(x(gen, t) if fam == X_FAMILY else y(gen, t))
    return tuple(letters)


def random_core_word(rng: random.Random, gens, max_x_degree: int) -> CoreWord:
    """Up to ``max_x_degree`` letters, each preceded by a U step with
    probability 0.6, then a final U step with probability 0.7; the U steps
    are pushed right as they are drawn, so the word comes out in normal
    form."""
    gens = list(gens)
    letters = []
    shift = Fraction(0)
    n_x = rng.randint(0, max_x_degree)
    for _ in range(n_x):
        if rng.random() < 0.6:
            shift += random_time(rng)
        letters.append(x(rng.choice(gens), random_time(rng) + shift))
    if rng.random() < 0.7:
        shift += random_time(rng)
    return CoreWord(tuple(letters), shift)
