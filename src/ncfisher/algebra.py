"""Exact *-algebra of words in time-indexed self-adjoint generators.

Letters carry a family tag ("X" for the primary generators, "Y" for their
matched-covariance partners), a generator id, and a modular time tag.
Tags are exact: ints or `fractions.Fraction`s, so shift bookkeeping never
accumulates floating-point drift.  A tag counts ticks of 1/``time_den``
of the model it is evaluated with (``ModelSpec.real_time``); at the
default ``time_den`` of 1 a tag is the time itself.  Int tags keep sums
and dict keys in int arithmetic, which is what the sampled identity
checks use.  Coefficients are complex doubles and exactness claims apply
to the word structure only.  A polynomial, :class:`NcPoly`, is one dict
from words to coefficients that holds no zero coefficient; the core
layer keeps its sums as plain dicts of the same kind.

>>> p = NcPoly.letter(x("g", 0)) * NcPoly.letter(x("g", 1))
>>> p.adjoint() == NcPoly.word((x("g", 1), x("g", 0)))
True
>>> p.shift("1/2") == NcPoly.word((x("g", "1/2"), x("g", "3/2")))
True
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from typing import NamedTuple, Union

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
    "NcPoly",
]

X_FAMILY = "X"
Y_FAMILY = "Y"

TimeLike = Union[Fraction, int, str]

#: an exact time tag
Time = Union[Fraction, int]


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


class Letter(NamedTuple):
    """One self-adjoint generator letter at an exact modular time tag."""

    family: str
    gen: str
    time: Time

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


def _term_key(item):
    w = item[0]
    return (len(w), w)


class NcPoly:
    """Finite complex linear combination of words, kept in canonical form.

    The canonical form is one dict ``_terms`` from words to coefficients
    with no zero coefficients; equal canonical forms are equal elements,
    and a number is the multiple of the empty word.  ``sorted_terms`` and
    repr are deterministic: terms are ordered by length, then
    lexicographically on the letter tuples (family, generator id, time).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for w, c in items:
                _accumulate(data, tuple(w), complex(c))
        self._terms = data

    @classmethod
    def _raw(cls, data: dict) -> "NcPoly":
        # data must already be canonical (no zeros, tuple words)
        obj = object.__new__(cls)
        obj._terms = data
        return obj

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls._raw({})

    @classmethod
    def letter(cls, letter: Letter) -> "NcPoly":
        return cls._raw({(letter,): 1 + 0j})

    @classmethod
    def word(cls, w: Word, coeff: complex = 1.0) -> "NcPoly":
        c = complex(coeff)
        return cls._raw({tuple(w): c}) if c != 0 else cls.zero()

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=_term_key)

    def __len__(self) -> int:
        return len(self._terms)

    def _coerce(self, other):
        if isinstance(other, NcPoly):
            return other
        if isinstance(other, numbers.Complex):
            c = complex(other)
            return NcPoly._raw({EMPTY_WORD: c} if c != 0 else {})
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for w, c in rhs._terms.items():
            _accumulate(out, w, c)
        return NcPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return NcPoly._raw({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            out: dict[Word, complex] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    _accumulate(out, w1 + w2, c1 * c2)
            return NcPoly._raw(out)
        if not isinstance(other, numbers.Complex):
            return NotImplemented
        c = complex(other)
        if c == 0:
            return NcPoly.zero()
        return NcPoly._raw({w: cc * c for w, cc in self._terms.items()})

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        # str() brackets a complex only when its real part shows: strip
        # that pair so that each coefficient prints inside one
        bits = [f"({str(c).strip('()')}) {word_str(w)}"
                for w, c in self.sorted_terms()]
        return f"NcPoly({' + '.join(bits) or 0})"

    def adjoint(self) -> "NcPoly":
        """Word reversal plus coefficient conjugation; an involution."""
        return NcPoly._raw(
            {word_adjoint(w): c.conjugate() for w, c in self._terms.items()}
        )

    def shift(self, s: TimeLike) -> "NcPoly":
        """Add ``s`` to every letter's time tag; a formal *-automorphism."""
        ds = as_time(s)
        return NcPoly._raw(
            {shift_word(w, ds): c for w, c in self._terms.items()}
        )
