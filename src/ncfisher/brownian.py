"""Exact expansion of states under the matched-noise substitution
X_t -> X_t + sqrt(eps) Y_t, in closed form (:func:`expand_state`).

An expansion is a plain dict from the power of eps, an exact half-integer
``Fraction``, to its coefficient.  Numbers hash alike across types, so
``exp[0]``, ``exp[1]`` and ``exp[Fraction(1, 2)]`` find the same keys.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import Word, X_FAMILY
from .derivation import FamilyError
from .model import ModelSpec
from .moments import evaluate_state

__all__ = ["expand_state"]


def expand_state(m: ModelSpec, w: Word, max_order: int) -> dict:
    """State of ``w`` after the substitution, truncated at eps^max_order.

    Returns the coefficient of eps^(k/2) under the key ``Fraction(k, 2)``,
    for k = 0 .. min(n, 2 max_order): the sum of the states of ``w`` with
    k of its n letters replaced by partner letters at the same generator
    and time.  A partner letter pairs with a partner letter as the
    letters they replace would, and with a primary letter not at all, so
    a flipped set counts for a non-crossing pairing exactly when it is a
    union of the pairing's n/2 pairs, and that sum is C(n/2, k/2) state(w)
    for even k and exactly ``0j`` for odd k: X + sqrt(eps) Y has the law
    of sqrt(1 + eps) X.  The state of ``w`` is evaluated once, whatever
    ``max_order``; ``moments.MAX_WORD_LETTERS`` bounds the word, and
    :class:`SizeLimitError` is raised past it.
    """
    letters = tuple(w)
    if any(l.family != X_FAMILY for l in letters):
        raise FamilyError("expansion starts from primary-family words")
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError("max_order must be a nonnegative integer")
    n = len(letters)
    phi = evaluate_state(m, letters)
    return {
        Fraction(k, 2): comb(n // 2, k // 2) * phi if k % 2 == 0 else 0j
        for k in range(min(n, 2 * max_order) + 1)
    }

