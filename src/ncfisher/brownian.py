"""Exact expansion of states under the matched-noise substitution.

Replacing every letter X_t of a word by X_t + sqrt(eps) Y_t and expanding
gives a polynomial in sqrt(eps) whose coefficients are states of mixed
words: the power eps^(k/2) collects the words with k letters flipped to
the partner family.  Those sums have a closed form.  A flipped letter
pairs with a flipped letter of its generator exactly as the letters it
replaces would, and with an unflipped letter not at all, so a set of
flipped positions counts for a non-crossing pairing exactly when it is a
union of that pairing's pairs.  Every pairing of an n-letter word has n/2
pairs, so the eps^j coefficient is C(n/2, j) times the state of the word
and every odd half-power is exactly 0: X + sqrt(eps) Y has the law of
sqrt(1 + eps) X (the free Gaussian functor).  The constant term is the
original state, and the first-order coefficient matches half the sum of
single-letter substitutions by the (time-shifted) conjugate variable.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from .algebra import NcPoly, Word, X_FAMILY
from .derivation import FamilyError
from .model import ModelSpec
from .moments import Residual, evaluate_state

__all__ = [
    "EpsExpansion",
    "expand_state",
    "verify_gradient_expansion",
]


@dataclass(frozen=True)
class EpsExpansion:
    """Coefficients of the expansion, keyed by the power of eps.

    Keys are exact half-integers (Fractions).  Entries for odd half-powers
    are present and exactly ``0j``: an odd set of flipped letters is not a
    union of pairs.
    """

    coefficients: Mapping

    def coefficient(self, power) -> complex:
        return self.coefficients.get(Fraction(power), 0j)

    def powers(self) -> list:
        return sorted(self.coefficients)

    def value(self, eps: float) -> complex:
        return sum(
            c * (eps ** float(p)) for p, c in self.coefficients.items()
        )


def expand_state(m: ModelSpec, w: Word, max_order: int) -> EpsExpansion:
    """State of ``w`` after the substitution, truncated at eps^max_order.

    The coefficient of eps^(k/2), for k = 0 .. min(n, 2 max_order), is the
    sum of the states of ``w`` with k of its n letters replaced by partner
    letters at the same generator and time.  A flipped set counts for a
    pairing exactly when it is a union of the pairing's n/2 pairs, so that
    sum is C(n/2, k/2) state(w) for even k and exactly ``0j`` for odd k.
    The state of ``w`` is evaluated once; ``moments.MAX_WORD_LETTERS``
    bounds the word, and :class:`SizeLimitError` is raised past it.
    """
    letters = tuple(w)
    if any(l.family != X_FAMILY for l in letters):
        raise FamilyError("expansion starts from primary-family words")
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError("max_order must be a nonnegative integer")
    n = len(letters)
    phi = evaluate_state(m, letters)
    return EpsExpansion(coefficients={
        Fraction(k, 2): comb(n // 2, k // 2) * phi if k % 2 == 0 else 0j
        for k in range(min(n, 2 * max_order) + 1)
    })


def verify_gradient_expansion(m: ModelSpec, w: Word,
                              xi: Mapping[str, NcPoly],
                              state: complex | None = None) -> Residual:
    """Residual of the first-order coefficient against the substitution sum.

    Compares the eps^1 coefficient c1 with half the sum over positions k
    of the state of ``w`` with its k-th letter replaced by ``xi[g]``, g
    the letter's generator, shifted to the letter's time; small when each
    ``xi[g]`` is the conjugate variable of g.  ``xi`` maps every generator
    of ``w`` to its polynomial.  ``state`` is the state of ``w`` when the
    caller has it already (the eps^0 coefficient of its expansion).
    The scale is |c1| plus half the summed magnitudes of those states.
    Each distinct word of the substituted polynomials is evaluated once,
    and ``w`` not again, so with ``xi[g]`` the letter X_0 of g, whose
    substituted words are all ``w``, the check costs nothing more.  In
    general it is the cost of a long word: n substituted words of about n
    letters each, so its work grows as n^4 (256^4 at
    ``MAX_WORD_LETTERS`` with a one-letter ``xi``).
    """
    letters = tuple(w)
    if state is None:
        state = expand_state(m, letters, 0).coefficient(0)
    c1 = comb(len(letters) // 2, 1) * state
    values = {letters: state}

    def state_of(word):
        if word not in values:
            values[word] = evaluate_state(m, word)
        return values[word]

    total = 0j
    size = 0.0
    for k, letter in enumerate(letters):
        substituted = (
            NcPoly.word(letters[:k])
            * xi[letter.gen].shift(letter.time)
            * NcPoly.word(letters[k + 1:])
        )
        value = sum((c * state_of(u) for u, c in substituted.terms.items()),
                    0j)
        total += value
        size += abs(value)
    return Residual(abs(c1 - 0.5 * total), abs(c1) + 0.5 * size)
