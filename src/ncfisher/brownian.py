"""Exact expansion of states under the matched-noise substitution.

Replacing every letter X_t of a word by X_t + sqrt(eps) Y_t and expanding
gives a polynomial in sqrt(eps) whose coefficients are states of mixed
words: the power eps^(k/2) collects the subsets of k positions flipped to
the partner family.  Parity kills all odd half-powers, the constant term
is the original state, and the first-order coefficient matches the sum of
single-letter substitutions by the (time-shifted) conjugate variable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .algebra import NcPoly, Word, X_FAMILY
from .derivation import FamilyError
from .model import ModelSpec
from .moments import SizeLimitError, expectation, pairing_sum, word_kernel

__all__ = [
    "EpsExpansion",
    "MAX_EXPANSION_WORDS",
    "expand_state",
    "verify_gradient_expansion",
]

#: most flipped words one expansion may evaluate
MAX_EXPANSION_WORDS = 100_000


@dataclass(frozen=True)
class EpsExpansion:
    """Coefficients of the expansion, keyed by the power of eps.

    Keys are exact half-integers (Fractions); entries for odd half-powers
    are present and computed, and vanish by pairing parity.
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

    Sums over subsets of positions replaced by partner letters at the same
    generator and time, with weight eps^(|subset|/2).  Flipping changes
    only which letters pair, not their time differences, so the kernel of
    ``w`` is built once and each subset keeps the pairs on one side of it.
    Raises :class:`SizeLimitError` before any work when there would be more
    than ``MAX_EXPANSION_WORDS`` subsets.
    """
    letters = tuple(w)
    if any(l.family != X_FAMILY for l in letters):
        raise FamilyError("expansion starts from primary-family words")
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError("max_order must be a nonnegative integer")
    n = len(letters)
    top = min(n, 2 * max_order)
    count = 0
    for k in range(top + 1):
        count += math.comb(n, k)
        if count > MAX_EXPANSION_WORDS:
            raise SizeLimitError(
                f"expansion of a {n}-letter word to order {max_order} has "
                f"more than {MAX_EXPANSION_WORDS} flipped words"
            )
    rows = word_kernel(m, letters)
    coeffs = {}
    for k in range(top + 1):
        total = 0j
        for subset in combinations(range(n), k):
            flipped = [False] * n
            for i in subset:
                flipped[i] = True
            total += pairing_sum([
                [(j, c) for j, c in row if flipped[j] == flipped[i]]
                for i, row in enumerate(rows)
            ])
        coeffs[Fraction(k, 2)] = total
    return EpsExpansion(coefficients=coeffs)


def verify_gradient_expansion(m: ModelSpec, w: Word, xi: NcPoly) -> float:
    """Residual of the first-order coefficient against the substitution sum.

    Compares the eps^1 coefficient with half the sum over positions k of
    the state of ``w`` with its k-th letter replaced by ``xi`` shifted to
    that letter's time; small when ``xi`` is the conjugate variable.
    """
    letters = tuple(w)
    c1 = expand_state(m, letters, 1).coefficient(1)
    total = 0j
    for k, letter in enumerate(letters):
        substituted = (
            NcPoly.word(letters[:k])
            * xi.shift(letter.time)
            * NcPoly.word(letters[k + 1:])
        )
        total += expectation(m, substituted)
    return abs(c1 - 0.5 * total)
