"""The covariant *-derivation into left (x) partner (x) right tensors.

Differentiating a word in the primary family by one generator applies the
Leibniz rule over the occurrences of that generator: each occurrence at
time t is replaced by a formal middle slot carrying the partner letter at
time t, with the untouched prefix and suffix words on either side.
Letters of other generators are constants.

Pairing such a tensor against the partner letter at a reference time
reduces to plain state evaluation on mixed-family words, because the
families are free and the partner family reproduces the generator's
covariance.
"""
from __future__ import annotations

from .algebra import (
    NcPoly,
    TimeLike,
    Word,
    X_FAMILY,
    Y_FAMILY,
    _SparseSum,
    _accumulate,
    as_time,
    shift_word,
    word_adjoint,
    word_str,
    y,
)
from .model import ModelSpec
from .moments import Residual, evaluate_state, expectation

__all__ = [
    "FamilyError",
    "TensorElem",
    "differentiate",
    "verify_insertion_identity",
]


class FamilyError(ValueError):
    """Operation restricted to primary-family polynomials."""


def _term_sort_key(item):
    (left, gen, mid, right) = item[0]
    return (len(left) + len(right), gen, mid, left, right)


class TensorElem(_SparseSum):
    """Finite sum of terms c * (left . partner_mid . right).

    ``left`` and ``right`` are plain words, ``mid`` is the exact time of
    the middle partner letter.  Canonical form folds equal slots and drops
    zero coefficients.
    """

    __slots__ = ()

    _sort_key = staticmethod(_term_sort_key)

    @staticmethod
    def _normal_term(key, c) -> tuple:
        left, gen, mid, right = key
        return (tuple(left), gen, mid, tuple(right)), complex(c)

    @classmethod
    def single(cls, left: Word, gen: str, mid, right: Word, coeff=1.0):
        c = complex(coeff)
        if c == 0:
            return cls.zero()
        return cls._raw({(tuple(left), gen, as_time(mid), tuple(right)): c})

    def mul_left(self, p: NcPoly) -> "TensorElem":
        """p . (left (.) mid (.) right) = (p-word + left) (.) mid (.) right."""
        out = {}
        for w, cp in p.terms.items():
            for (left, gen, mid, right), c in self._terms.items():
                _accumulate(out, (tuple(w) + left, gen, mid, right), cp * c)
        return TensorElem._raw(out)

    def mul_right(self, p: NcPoly) -> "TensorElem":
        out = {}
        for w, cp in p.terms.items():
            for (left, gen, mid, right), c in self._terms.items():
                _accumulate(out, (left, gen, mid, right + tuple(w)), cp * c)
        return TensorElem._raw(out)

    def adjoint(self) -> "TensorElem":
        """(c, left, t, right) -> (conj c, right*, t, left*)."""
        return TensorElem._raw(
            {
                (word_adjoint(right), gen, mid, word_adjoint(left)): c.conjugate()
                for (left, gen, mid, right), c in self._terms.items()
            }
        )

    def shift(self, s: TimeLike) -> "TensorElem":
        """Shift all three slots and the middle time by ``s``."""
        ds = as_time(s)
        return TensorElem._raw(
            {
                (shift_word(left, ds), gen, mid + ds, shift_word(right, ds)): c
                for (left, gen, mid, right), c in self._terms.items()
            }
        )

    @staticmethod
    def _term_str(key, c) -> str:
        left, gen, mid, right = key
        return f"({c}) {word_str(left)} (.) Y{gen}:{mid} (.) {word_str(right)}"


def differentiate(gen_id: str, p: NcPoly) -> TensorElem:
    """Leibniz derivative of a primary-family polynomial by one generator.

    Occurrences of other generators are constants with derivative zero.
    Raises :class:`FamilyError` if ``p`` contains partner-family letters.
    """
    out = {}
    for w, c in p.terms.items():
        for letter in w:
            if letter.family == Y_FAMILY:
                raise FamilyError(
                    "differentiation is defined on primary-family polynomials"
                )
        for k, letter in enumerate(w):
            if letter.family == X_FAMILY and letter.gen == gen_id:
                _accumulate(out, (w[:k], gen_id, letter.time, w[k + 1:]), c)
    return TensorElem._raw(out)


def _state_poly_tensor(m: ModelSpec, p: NcPoly, e: TensorElem, y_first: bool,
                       gen_id: str) -> complex:
    # y_first: state(p . Y_0 . e); otherwise state(e . Y_0 . p)
    total = 0j
    y0 = (y(gen_id, 0),)
    for w, cp in p.terms.items():
        for (left, gen, mid, right), ce in e._terms.items():
            mid_letter = (y(gen, mid),)
            if y_first:
                word = tuple(w) + y0 + left + mid_letter + right
            else:
                word = left + mid_letter + right + y0 + tuple(w)
            total += cp * ce * evaluate_state(m, word)
    return total


def verify_insertion_identity(
    m: ModelSpec, gen_id: str, p: NcPoly, q: NcPoly, xi: NcPoly
) -> Residual:
    """Residual of state(p xi q) against the two derivative pairings.

    For the true conjugate variable xi of ``gen_id`` the value
    state(p xi q) equals state(p Y d(q)) + state(d(p) Y q) with the
    partner letter at time 0 in the middle; the returned residual is the
    absolute difference, with the sum of the three terms' magnitudes as
    its scale.
    """
    lhs = expectation(m, p * xi * q)
    dq = differentiate(gen_id, q)
    dp = differentiate(gen_id, p)
    mid1 = _state_poly_tensor(m, p, dq, True, gen_id)
    mid2 = _state_poly_tensor(m, q, dp, False, gen_id)
    return Residual(abs(lhs - mid1 - mid2), abs(lhs) + abs(mid1) + abs(mid2))
