"""The covariant *-derivation into partner-letter sums.

Differentiating a word in the primary family by one generator applies the
Leibniz rule over the occurrences of that generator: each occurrence at
time t is replaced by the partner letter at time t, so the tensor
left (x) right with the partner in the middle is the mixed word
left . Y_t . right.  Letters of other generators are constants.  As in
the core layer, a derivative is a plain dict from mixed words to
coefficients.

Pairing a derivative against the partner letter at a reference time is
then plain state evaluation on mixed-family words, because the families
are free and the partner family reproduces the generator's covariance.
"""
from __future__ import annotations

from .algebra import Letter, Word, X_FAMILY, Y_FAMILY, _new_letter, x, y
from .model import ModelSpec
from .moments import Residual, _phi, evaluate_state

__all__ = [
    "FamilyError",
    "differentiate",
    "verify_insertion_identity",
]


class FamilyError(ValueError):
    """Operation restricted to primary-family words."""


def differentiate(gen_id: str, w: Word) -> dict:
    """Leibniz derivative of a primary-family word by one generator, as
    ``{mixed word: 1 + 0j}``.

    Each word of the result holds exactly one partner letter, at the time
    of the generator letter it replaced; the partner sits at a different
    position in each, so no two terms share a key.  Occurrences of other
    generators are constants with derivative zero.  Raises
    :class:`FamilyError` if ``w`` contains partner-family letters.
    """
    out = {}
    for k, letter in enumerate(w):
        if letter.family == Y_FAMILY:
            raise FamilyError(
                "differentiation is defined on primary-family words"
            )
        if letter.family == X_FAMILY and letter.gen == gen_id:
            partner = _new_letter(Letter, (Y_FAMILY, gen_id, letter.time))
            out[w[:k] + (partner,) + w[k + 1:]] = 1 + 0j
    return out


def verify_insertion_identity(
    m: ModelSpec, gen_id: str, p: Word, q: Word, etas=None
) -> Residual:
    """Residual of state(p xi q) against the two derivative pairings.

    For the conjugate variable xi of ``gen_id``, which for these free
    semicircular models is its letter X_0, the value state(p xi q) of the
    words ``p`` and ``q`` equals state(p Y d(q)) + state(d(p) Y q) with
    the partner letter at time 0 in the middle; the returned residual is
    the absolute difference, with the sum of the three terms' magnitudes
    as its scale.  The pairings are summed over the derivative dicts; the
    left side is read by ``moments._phi``, the body of
    :func:`moments.evaluate_state`, so that calls of the latter count the
    pairings alone.  ``etas`` is a run's eta table on ``m`` (see
    :func:`moments.interval_states`).
    """
    lhs = _phi(m, p + (x(gen_id, 0),) + q, etas)
    dq = differentiate(gen_id, q)
    dp = differentiate(gen_id, p)
    y0 = (y(gen_id, 0),)
    mid1 = mid2 = 0j
    for dw, c in dq.items():
        mid1 += c * evaluate_state(m, p + y0 + dw, etas)
    for dw, c in dp.items():
        mid2 += c * evaluate_state(m, dw + y0 + q, etas)
    return Residual(abs(lhs - mid1 - mid2), abs(lhs) + abs(mid1) + abs(mid2))
