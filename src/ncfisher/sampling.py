"""Seeded random inputs for the verification batteries.

Everything here is driven by a caller-owned `random.Random`, so identical
seeds give identical inputs on every platform.  Times are drawn from the
half grid -1, -1/2, 0, 1/2, 1 as int tags in ticks of 1/2, so the words
are meant for a model with ``time_den`` 2 (``ModelSpec.with_time_den``).

Every draw reads ``rng.getrandbits`` directly by the stdlib's own
rejection rule, ``Random._randbelow``, so a word takes the same calls,
and leaves the generator in the same state, as if drawn through
``rng.choice`` and ``rng.randint``: ``choice(seq)`` is
``seq[_below(bits, len(seq))]`` and ``randint(0, n)`` is
``_below(bits, n + 1)``.  That skips the Python frames of ``choice``,
``randint`` and ``randrange``.  Single draws (a word's length, a time,
a core word's last U step) go through :func:`_below`; the per-letter
indices run its rejection loop inline, which skips one Python call per
index.  A draw from an empty ``gens`` or ``families`` is refused with
ValueError at the index that would draw from it, as :func:`_below`
refuses it.

:func:`insertion_residual` and :func:`core_residual` run the sampled
identities for the battery and for ``verify-lemma2`` and ``verify-core``.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Letter, Word, X_FAMILY, _new_letter
from .core_cp import CoreWord, verify_core_identity
from .derivation import verify_insertion_identity
from .model import ModelSpec, finite_max

__all__ = [
    "HALF_GRID",
    "HALF_GRID_TICKS",
    "TIME_DEN",
    "random_time",
    "random_word",
    "random_core_word",
    "insertion_residual",
    "core_residual",
]

#: ticks per unit of time of the drawn tags
TIME_DEN = 2

#: the half grid -1 .. 1 in ticks of 1/``TIME_DEN``
HALF_GRID_TICKS = range(-2, 3)

#: the same grid as exact times, for models with ``time_den`` 1
HALF_GRID = tuple(Fraction(k, TIME_DEN) for k in HALF_GRID_TICKS)


def _below(bits, n: int) -> int:
    """A uniform int in [0, ``n``) from ``bits``, a generator's
    ``getrandbits``: ``Random._randbelow`` for generators that have one,
    drawing the same bits.  Raises ValueError for ``n`` <= 0, where the
    rejection loop would never end (``getrandbits(0)`` is 0)."""
    if n <= 0:
        raise ValueError(f"nothing to draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_time(rng: random.Random) -> int:
    return HALF_GRID_TICKS[_below(rng.getrandbits, len(HALF_GRID_TICKS))]


def random_word(rng: random.Random, gens, max_len: int,
                families=(X_FAMILY,)) -> Word:
    """Up to ``max_len`` letters, each of a family of ``families`` (the
    primary and partner families only) and a generator of ``gens``."""
    gens, bits = list(gens), rng.getrandbits
    ticks = HALF_GRID_TICKS
    n_fam, n_gen, n_tick = len(families), len(gens), len(ticks)
    k_fam, k_gen = n_fam.bit_length(), n_gen.bit_length()
    k_tick = n_tick.bit_length()
    count = _below(bits, max_len + 1)
    if count and not (n_fam and n_gen):
        # refuse where the first letter's draws would: the loops below
        # would never end on getrandbits(0)
        _below(bits, n_fam)
        _below(bits, n_gen)
    letters = []
    append = letters.append
    for _ in range(count):
        # _below(bits, n) for each index, inline
        f = bits(k_fam)
        while f >= n_fam:
            f = bits(k_fam)
        g = bits(k_gen)
        while g >= n_gen:
            g = bits(k_gen)
        t = bits(k_tick)
        while t >= n_tick:
            t = bits(k_tick)
        append(_new_letter(Letter, (families[f], gens[g], ticks[t])))
    return tuple(letters)


def random_core_word(rng: random.Random, gens, max_x_degree: int) -> CoreWord:
    """Up to ``max_x_degree`` letters, each preceded by a U step with
    probability 0.6, then a final U step with probability 0.7; the U steps
    are pushed right as they are drawn, so the word comes out in normal
    form."""
    gens, bits, uniform = list(gens), rng.getrandbits, rng.random
    ticks = HALF_GRID_TICKS
    n_gen, n_tick = len(gens), len(ticks)
    k_gen, k_tick = n_gen.bit_length(), n_tick.bit_length()
    count = _below(bits, max_x_degree + 1)
    if count and not n_gen:
        # refuse where the first letter's draws would, as in random_word
        if uniform() < 0.6:
            _below(bits, n_tick)
        _below(bits, n_gen)
    letters = []
    append = letters.append
    shift = 0
    for _ in range(count):
        # _below(bits, n) for each index, inline
        if uniform() < 0.6:
            s = bits(k_tick)
            while s >= n_tick:
                s = bits(k_tick)
            shift += ticks[s]
        g = bits(k_gen)
        while g >= n_gen:
            g = bits(k_gen)
        t = bits(k_tick)
        while t >= n_tick:
            t = bits(k_tick)
        append(_new_letter(Letter, (X_FAMILY, gens[g], ticks[t] + shift)))
    if uniform() < 0.7:
        shift += ticks[_below(bits, n_tick)]
    return CoreWord._raw(tuple(letters), shift)


def _worst(residuals) -> tuple:
    """(largest absolute value, the one of largest relative value) of some
    :class:`Residual`s; ``finite_max`` refuses one that is not finite."""
    residuals = list(residuals)
    worst = finite_max(map(float, residuals), "an identity residual")
    finite_max((r.scale for r in residuals), "an identity residual's scale")
    return worst, max(residuals, key=lambda r: r.relative)


def insertion_residual(m: ModelSpec, gen: str, rng: random.Random,
                       count: int, degree: int) -> tuple:
    """:func:`_worst` of the insertion identity of the letter of ``gen`` at
    time 0 over ``count`` pairs of random ``degree``-letter words drawn
    from ``rng``, evaluated on ``m`` with the words' tags in ticks of
    1/``TIME_DEN``, through one eta table.  Every pair is drawn
    first, p before q; a pair drawn again is checked once, since it has
    the same residual, so :func:`_worst` sees the same values in the
    order they were first drawn."""
    m = m.with_time_den(TIME_DEN)
    etas: dict = {}
    pairs = [(random_word(rng, [gen], degree),
              random_word(rng, [gen], degree)) for _ in range(count)]
    return _worst(verify_insertion_identity(m, gen, p, q, etas)
                  for p, q in dict.fromkeys(pairs))


def core_residual(m: ModelSpec, gen: str, rng: random.Random,
                  count: int, degree: int) -> tuple:
    """:func:`_worst` of the core identity of the letter of ``gen`` at time
    0 over ``count`` random core words with ``degree`` letters drawn from
    ``rng``, evaluated on ``m`` with the words' tags in ticks of
    1/``TIME_DEN``, through one eta table.  Every word is drawn
    first, and a word drawn again is checked once, as in
    :func:`insertion_residual`."""
    m = m.with_time_den(TIME_DEN)
    etas: dict = {}
    words = [random_core_word(rng, [gen], degree) for _ in range(count)]
    return _worst(verify_core_identity(m, gen, q, etas)
                  for q in dict.fromkeys(words))
