"""The covariant *-derivation into partner-letter polynomials.

Differentiating a word in the primary family by one generator applies the
Leibniz rule over the occurrences of that generator: each occurrence at
time t is replaced by the partner letter at time t, so the tensor
left (x) right with the partner in the middle is the mixed word
left . Y_t . right.  Letters of other generators are constants.

Pairing a derivative against the partner letter at a reference time is
then plain state evaluation on mixed-family words, because the families
are free and the partner family reproduces the generator's covariance.
"""
from __future__ import annotations

from .algebra import NcPoly, X_FAMILY, Y_FAMILY, _accumulate, x, y
from .model import ModelSpec
from .moments import Residual, evaluate_state, expectation

__all__ = [
    "FamilyError",
    "differentiate",
    "verify_insertion_identity",
]


class FamilyError(ValueError):
    """Operation restricted to primary-family polynomials."""


def differentiate(gen_id: str, p: NcPoly) -> NcPoly:
    """Leibniz derivative of a primary-family polynomial by one generator.

    Each word of the result holds exactly one partner letter, at the time
    of the generator letter it replaced.  Occurrences of other generators
    are constants with derivative zero.  Raises :class:`FamilyError` if
    ``p`` contains partner-family letters.
    """
    out = {}
    for w, c in p._terms.items():
        for letter in w:
            if letter.family == Y_FAMILY:
                raise FamilyError(
                    "differentiation is defined on primary-family polynomials"
                )
        for k, letter in enumerate(w):
            if letter.family == X_FAMILY and letter.gen == gen_id:
                _accumulate(out, w[:k] + (y(gen_id, letter.time),) + w[k + 1:],
                            c)
    return NcPoly._raw(out)


def verify_insertion_identity(
    m: ModelSpec, gen_id: str, p: NcPoly, q: NcPoly, etas=None
) -> Residual:
    """Residual of state(p xi q) against the two derivative pairings.

    For the conjugate variable xi of ``gen_id``, which for these free
    semicircular models is its letter X_0, the value state(p xi q) equals
    state(p Y d(q)) + state(d(p) Y q) with the partner letter at time 0 in
    the middle; the returned residual is the absolute difference, with the
    sum of the three terms' magnitudes as its scale.  The pairings are
    summed word by word rather than formed as products, which would hash
    every product word once more.  ``etas`` is a run's eta table on ``m``
    (see :func:`moments.word_kernel`).
    """
    lhs = expectation(m, p * NcPoly.letter(x(gen_id, 0)) * q, etas)
    dq = differentiate(gen_id, q)
    dp = differentiate(gen_id, p)
    y0 = (y(gen_id, 0),)
    mid1 = mid2 = 0j
    for w, c in p._terms.items():
        for dw, cd in dq._terms.items():
            mid1 += c * cd * evaluate_state(m, w + y0 + dw, etas)
    for w, c in q._terms.items():
        for dw, cd in dp._terms.items():
            mid2 += c * cd * evaluate_state(m, dw + y0 + w, etas)
    return Residual(abs(lhs - mid1 - mid2), abs(lhs) + abs(mid1) + abs(mid2))
