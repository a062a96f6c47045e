"""Symbolic layer for the crossed product of the model by its modular flow.

Elements are handled in two shapes: trigonometric polynomials (finite
sums of multiples of the flow unitaries U_r, a *-algebra under
U_s U_t = U_{s+t}) and core words, i.e. scalar multiples of products of
primary letters and U steps.  The commutation rule U_s X_t = X_{t+s} U_s
brings every such product to the normal form (word) * U_r with exact
rational bookkeeping, and core words are stored in that form:
(w, r) (w', r') = (w + sigma_r(w'), r + r').  That is what makes the
conditional expectation onto the group part computable:
E(m U_r) = state(m) U_r.

On top of that sit the diagonal completely positive map
U_t -> eta(t) U_t, the group-valued inner product of simple tensors

    <a (x) b, a' (x) b'> = E(b* eta_map(E(a* a')) b'),

and the tensor-valued derivation with d(X_t) = U_t (x) U_{-t}, d(U_s) = 0.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algebra import (
    NcPoly,
    TimeLike,
    Word,
    X_FAMILY,
    _SparseSum,
    _accumulate,
    as_time,
    shift_word,
    word_adjoint,
)
from .model import ModelSpec
from .moments import Residual, evaluate_state

__all__ = [
    "TrigPoly",
    "CoreWord",
    "EtaBimoduleElem",
    "conditional_expectation",
    "eta_map",
    "eta_inner",
    "core_differentiate",
    "verify_core_identity",
    "factoriality_bound",
]


class TrigPoly(_SparseSum):
    """Finitely supported combination of flow unitaries, sum a_k U_{t_k}."""

    __slots__ = ()

    _UNIT = Fraction(0)

    @staticmethod
    def _normal_term(t, c) -> tuple:
        return as_time(t), complex(c)

    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return super().__mul__(other)
        out: dict[Fraction, complex] = {}
        for s, c1 in self._terms.items():
            for t, c2 in other._terms.items():
                _accumulate(out, s + t, c1 * c2)
        return TrigPoly._raw(out)

    def adjoint(self) -> "TrigPoly":
        return TrigPoly._raw(
            {-t: c.conjugate() for t, c in self._terms.items()}
        )

    @staticmethod
    def _term_str(t, c) -> str:
        return f"({c}) U:{t}"


@dataclass(frozen=True, slots=True)
class CoreWord:
    """Core word in normal form, ``coeff * (word) U_r``.

    ``word`` holds primary letters only; their times already include every
    U step written before them, by U_s X_t = X_{t+s} U_s.
    """

    word: Word = ()
    r: Fraction = Fraction(0)
    coeff: complex = 1.0

    def __post_init__(self):
        word = tuple(self.word)
        if any(letter.family != X_FAMILY for letter in word):
            raise ValueError("core words carry primary letters only")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "r", as_time(self.r))
        object.__setattr__(self, "coeff", complex(self.coeff))

    @classmethod
    def _raw(cls, word: Word, r: Fraction, coeff: complex = 1 + 0j
             ) -> "CoreWord":
        # the parts must already be canonical: a tuple of primary letters,
        # a Fraction and a complex, as products and legs of canonical core
        # words are; skips the checks and coercions of the constructor
        obj = object.__new__(cls)
        _set_word(obj, word)
        _set_r(obj, r)
        _set_coeff(obj, coeff)
        return obj

    @classmethod
    def one(cls) -> "CoreWord":
        return cls()

    @classmethod
    def u(cls, r: TimeLike) -> "CoreWord":
        return cls((), r)

    def __mul__(self, other):
        if isinstance(other, CoreWord):
            tail = shift_word(other.word, self.r) if self.r else other.word
            return CoreWord._raw(self.word + tail, self.r + other.r,
                                 self.coeff * other.coeff)
        if isinstance(other, numbers.Complex):
            return CoreWord._raw(self.word, self.r,
                                 self.coeff * complex(other))
        return NotImplemented

    __rmul__ = __mul__  # only ever called with a scalar on the left

    def adjoint(self) -> "CoreWord":
        # (w U_r)* = U_{-r} w* and letters are self-adjoint
        return CoreWord._raw(shift_word(word_adjoint(self.word), -self.r),
                             -self.r, self.coeff.conjugate())


# slot setters of the frozen dataclass, for CoreWord._raw
_set_word = CoreWord.word.__set__
_set_r = CoreWord.r.__set__
_set_coeff = CoreWord.coeff.__set__


def conditional_expectation(m: ModelSpec, cw: CoreWord) -> TrigPoly:
    """Expectation onto the group part: (m U_r) -> state(m) U_r."""
    val = cw.coeff * evaluate_state(m, cw.word)
    return TrigPoly._raw({cw.r: val} if val != 0 else {})


def eta_map(m: ModelSpec, gen_id: str, p: TrigPoly) -> TrigPoly:
    """The diagonal completely positive map U_t -> eta(t) U_t.

    Agrees with conditional_expectation(X_0 p X_0) term by term.
    """
    eta = m.gen(gen_id).eta
    out = {}
    for t, c in p._terms.items():
        v = c * eta(t)
        if v != 0:
            out[t] = v
    return TrigPoly._raw(out)


class EtaBimoduleElem(_SparseSum):
    """Finite sum of simple tensors a (x) b of core words.

    Terms are keyed on the normal forms (word, r) of both legs, so the
    bimodule relations that normal-forming encodes hold on the nose.  The
    constructor takes ``(coeff, a, b)`` triples.
    """

    __slots__ = ()

    @staticmethod
    def _normal_term(coeff, a, b) -> tuple:
        key = ((a.word, a.r), (b.word, b.r))
        return key, complex(coeff) * a.coeff * b.coeff

    @classmethod
    def simple(cls, a: CoreWord, b: CoreWord, coeff: complex = 1.0
               ) -> "EtaBimoduleElem":
        return cls([(coeff, a, b)])

    @staticmethod
    def _legs(key) -> tuple:
        # the coefficient-1 core words (word) U_r of both legs
        return tuple(CoreWord._raw(w, r) for w, r in key)

    def __iter__(self) -> Iterator:
        """Yield (coeff, a, b) with coefficient-1 core words."""
        for key, c in self.sorted_terms():
            yield (c, *self._legs(key))

    @classmethod
    def _term_str(cls, key, c) -> str:
        a, b = cls._legs(key)
        return f"({c}) {a!r} (x) {b!r}"


def eta_inner(
    m: ModelSpec, gen_id: str, u: EtaBimoduleElem, v: EtaBimoduleElem
) -> TrigPoly:
    """Group-valued inner product, antilinear in ``u``.

    On simple tensors: <a (x) b, a' (x) b'> =
    E(b* . eta_map(E(a* a')) . b').
    """
    out: dict = {}
    for cu, a, b in u:
        b_adj = b.adjoint()
        for cv, a2, b2 in v:
            inner = eta_map(
                m, gen_id, conditional_expectation(m, a.adjoint() * a2)
            )
            scalar = cu.conjugate() * cv
            for t, g_c in inner.terms.items():
                term = conditional_expectation(m, b_adj * CoreWord.u(t) * b2)
                for r, c in (term * (g_c * scalar)).terms.items():
                    _accumulate(out, r, c)
    return TrigPoly._raw(out)


def core_differentiate(gen_id: str, cw: CoreWord) -> EtaBimoduleElem:
    """Tensor-valued derivation on (word) U_r: the letter of ``gen_id`` at
    position k, with normal-form time t, contributes
    (word[:k] U_t) (x) (sigma_{-t}(word[k+1:]) U_{r-t}); U steps and
    letters of other generators are constants."""
    w, r = cw.word, cw.r
    return EtaBimoduleElem(
        (1.0, CoreWord._raw(w[:k], letter.time, cw.coeff),
         CoreWord._raw(shift_word(w[k + 1:], -letter.time), r - letter.time))
        for k, letter in enumerate(w)
        if letter.gen == gen_id
    )


def verify_core_identity(
    m: ModelSpec, gen_id: str, q: CoreWord, zeta: NcPoly
) -> Residual:
    """Max coefficient deviation between <zeta, Q> and the derivation side.

    The left side is E(zeta* Q); the right side pairs the unit tensor with
    the derivative of Q in the group-valued inner product.  Zero for the
    embedded conjugate variable.  The scale is the sum of the two sides'
    largest coefficient magnitudes.
    """
    lhs_terms: dict = {}
    for w, c in zeta.adjoint().terms.items():
        term = conditional_expectation(m, CoreWord(w, 0, c) * q)
        for r, v in term.terms.items():
            _accumulate(lhs_terms, r, v)
    unit = EtaBimoduleElem.simple(CoreWord.one(), CoreWord.one())
    rhs = eta_inner(m, gen_id, unit, core_differentiate(gen_id, q))
    lhs = TrigPoly._raw(lhs_terms)
    return Residual((lhs - rhs).max_abs(), lhs.max_abs() + rhs.max_abs())


def factoriality_bound(alpha: float, delta: float) -> float:
    """Information lower bound from an almost-commuting projection of
    trace ``alpha``: 4 alpha^2 (1-alpha)^2 / delta^2."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    # alpha * (1 - alpha) first: float multiplication commutes, so the
    # alpha <-> 1 - alpha symmetry is exact for exactly-complementary inputs
    prod = alpha * (1.0 - alpha)
    return (2.0 * prod / delta) ** 2
