"""Exact words in time-indexed self-adjoint generators.

Letters carry a family tag ("X" for the primary generators, "Y" for their
matched-covariance partners), a generator id, and a modular time tag.
Tags are exact: ints or `fractions.Fraction`s, so shift bookkeeping never
accumulates floating-point drift.  A tag counts ticks of 1/``time_den``
of the model it is evaluated with (``ModelSpec.real_time``); at the
default ``time_den`` of 1 a tag is the time itself.  Int tags keep sums
and dict keys in int arithmetic, which is what the sampled identity
checks use.  A word is a tuple of letters.
Sums are plain dicts from words (or, in the core layer, time tags) to
complex coefficients that hold no zero coefficient; coefficients are
complex doubles and exactness claims apply to the word structure only.

>>> w = (x("g", 0), x("g", 1))
>>> word_adjoint(w) == (x("g", 1), x("g", 0))
True
>>> word_str(shift_word(w, "1/2"))
'Xg:1/2 Xg:3/2'
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

__all__ = [
    "X_FAMILY",
    "Y_FAMILY",
    "TimeLike",
    "Time",
    "as_time",
    "Letter",
    "x",
    "y",
    "Word",
    "EMPTY_WORD",
    "word_adjoint",
    "shift_word",
    "word_str",
]

X_FAMILY = "X"
Y_FAMILY = "Y"

#: what :func:`as_time` accepts
TimeLike = Fraction | int | str

#: an exact time tag
Time = Fraction | int


def as_time(t: TimeLike) -> Time:
    """Coerce ``t`` to an exact time tag.

    Ints and Fractions pass unchanged; strings such as ``"3/2"`` or
    ``"-0.25"`` become Fractions.  Floats are rejected on purpose (callers
    must decide the exact rational they mean), and so are bools.
    """
    if isinstance(t, (int, Fraction)) and t is not True and t is not False:
        return t
    if isinstance(t, str):
        return Fraction(t)
    raise TypeError(f"time tags are exact rationals, cannot accept {t!r}")


# _new_letter(Letter, (family, gen, time)) is what Letter(family, gen, time)
# runs, without the Python-level call of the namedtuple's __new__
_new_letter = tuple.__new__


class Letter(namedtuple("Letter", "family gen time")):
    """One self-adjoint generator letter at an exact modular time tag:
    ``family`` and ``gen`` are strs, ``time`` a :data:`Time`."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.family}{self.gen}:{self.time}"


def x(gen: str, t: TimeLike = 0) -> Letter:
    """The primary-family letter of generator ``gen`` at time ``t``."""
    return Letter(X_FAMILY, gen, as_time(t))


def y(gen: str, t: TimeLike = 0) -> Letter:
    """The partner-family letter of generator ``gen`` at time ``t``."""
    return Letter(Y_FAMILY, gen, as_time(t))


Word = tuple  # tuple[Letter, ...]; the empty tuple is the identity

EMPTY_WORD: Word = ()


def word_adjoint(w: Word) -> Word:
    """Adjoint of a word: letters are self-adjoint, so just reverse."""
    return tuple(reversed(w))


def shift_word(w: Word, s: TimeLike) -> Word:
    ds = as_time(s)
    return tuple([_new_letter(Letter, (f, g, t + ds)) for f, g, t in w])


def word_str(w: Word) -> str:
    return " ".join(str(letter) for letter in w) if w else "1"


def _accumulate(data: dict, key, c) -> None:
    """Add ``c`` to ``data[key]`` (from ``0j`` when absent) and drop the
    key when the sum is zero, keeping ``data`` canonical."""
    acc = data.get(key, 0j) + c
    if acc == 0:
        data.pop(key, None)
    else:
        data[key] = acc
