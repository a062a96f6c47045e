"""Symbolic layer for the crossed product of the model by its modular flow.

Elements are handled in two shapes: trigonometric polynomials (finite
sums of multiples of the flow unitaries U_r, a *-algebra under
U_s U_t = U_{s+t}) and core words, i.e. products of primary letters and
U steps.  The commutation rule U_s X_t = X_{t+s} U_s brings every such
product to the normal form (word) * U_r with exact bookkeeping of the
time tags (ints or Fractions, ticks of the model's 1/time_den), and core
words are stored in that form:
(w, r) (w', r') = (w + sigma_r(w'), r + r').  That is what makes the
conditional expectation onto the group part computable:
E(m U_r) = state(m) U_r.

On top of that sit the diagonal completely positive map
U_t -> eta(t) U_t, the group-valued inner product of simple tensors

    <a (x) b, a' (x) b'> = E(b* eta_map(E(a* a')) b'),

and the tensor-valued derivation with d(X_t) = U_t (x) U_{-t}, d(U_s) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import (
    Time,
    TimeLike,
    Word,
    X_FAMILY,
    _SparseSum,
    _accumulate,
    as_time,
    shift_word,
    word_adjoint,
    x,
)
from . import moments
from .model import ModelSpec
from .moments import Residual, evaluate_state, pairing_table

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

    _UNIT = 0

    @staticmethod
    def _normal_term(t, c) -> tuple:
        return as_time(t), complex(c)

    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return super().__mul__(other)
        out: dict[Time, complex] = {}
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


@dataclass(frozen=True, slots=True, order=True)
class CoreWord:
    """Core word in normal form, the monomial ``(word) U_r``.

    ``word`` holds primary letters only; their times already include every
    U step written before them, by U_s X_t = X_{t+s} U_s.  Core words
    order by (word, r).
    """

    word: Word = ()
    r: Time = 0

    def __post_init__(self):
        word = tuple(self.word)
        if any(letter.family != X_FAMILY for letter in word):
            raise ValueError("core words carry primary letters only")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "r", as_time(self.r))

    @classmethod
    def _raw(cls, word: Word, r: Time) -> "CoreWord":
        # the parts must already be canonical: a tuple of primary letters
        # and an exact time tag, as products and legs of canonical core
        # words are; skips the checks and coercions of the constructor
        obj = object.__new__(cls)
        _set_word(obj, word)
        _set_r(obj, r)
        return obj

    @classmethod
    def one(cls) -> "CoreWord":
        return cls._raw((), 0)

    @classmethod
    def u(cls, r: TimeLike) -> "CoreWord":
        return cls((), r)

    def __mul__(self, other):
        if not isinstance(other, CoreWord):
            return NotImplemented
        tail = shift_word(other.word, self.r) if self.r else other.word
        return CoreWord._raw(self.word + tail, self.r + other.r)

    def adjoint(self) -> "CoreWord":
        # (w U_r)* = U_{-r} w* and letters are self-adjoint
        return CoreWord._raw(shift_word(word_adjoint(self.word), -self.r),
                             -self.r)


# slot setters of the frozen dataclass, for CoreWord._raw
_set_word = CoreWord.word.__set__
_set_r = CoreWord.r.__set__


def conditional_expectation(m: ModelSpec, cw: CoreWord,
                            states=None) -> TrigPoly:
    """Expectation onto the group part: (m U_r) -> state(m) U_r.

    ``states`` maps words to state values already computed (see
    :func:`verify_core_identity`); a word not in it is evaluated by
    :func:`evaluate_state`.
    """
    val = states.get(cw.word) if states is not None else None
    if val is None:
        val = evaluate_state(m, cw.word)
    return TrigPoly._raw({cw.r: val} if val != 0 else {})


def eta_map(m: ModelSpec, gen_id: str, p: TrigPoly) -> TrigPoly:
    """The diagonal completely positive map U_t -> eta(t) U_t, eta at the
    real time of the tag t.

    Agrees with conditional_expectation(X_0 p X_0) term by term.
    """
    eta = m.gen(gen_id).eta
    out = {}
    for t, c in p._terms.items():
        v = c * eta(m.real_time(t))
        if v != 0:
            out[t] = v
    return TrigPoly._raw(out)


class EtaBimoduleElem(_SparseSum):
    """Finite sum of simple tensors a (x) b of core words.

    Terms are keyed on the pair of legs (a, b), core words in normal form,
    so the bimodule relations that normal-forming encodes hold on the
    nose; every scalar lives in the term's coefficient.  The constructor
    takes ``(coeff, a, b)`` triples.
    """

    __slots__ = ()

    @staticmethod
    def _normal_term(coeff, a, b) -> tuple:
        return (a, b), complex(coeff)

    @classmethod
    def simple(cls, a: CoreWord, b: CoreWord) -> "EtaBimoduleElem":
        return cls([(1.0, a, b)])

    def __iter__(self) -> Iterator:
        """Yield (coeff, a, b) in key order."""
        for (a, b), c in self.sorted_terms():
            yield c, a, b

    @staticmethod
    def _term_str(key, c) -> str:
        a, b = key
        return f"({c}) {a!r} (x) {b!r}"


def eta_inner(
    m: ModelSpec, gen_id: str, u: EtaBimoduleElem, v: EtaBimoduleElem,
    states=None,
) -> TrigPoly:
    """Group-valued inner product, antilinear in ``u``.

    On simple tensors: <a (x) b, a' (x) b'> =
    E(b* . eta_map(E(a* a')) . b').  ``states`` is passed to every
    :func:`conditional_expectation`.
    """
    out: dict = {}
    for cu, a, b in u:
        b_adj = b.adjoint()
        for cv, a2, b2 in v:
            inner = eta_map(
                m, gen_id, conditional_expectation(m, a.adjoint() * a2,
                                                   states)
            )
            scalar = cu.conjugate() * cv
            for t, g_c in inner._terms.items():
                term = conditional_expectation(
                    m, b_adj * CoreWord._raw((), t) * b2, states)
                for r, c in (term * (g_c * scalar))._terms.items():
                    _accumulate(out, r, c)
    return TrigPoly._raw(out)


def core_differentiate(gen_id: str, cw: CoreWord) -> EtaBimoduleElem:
    """Tensor-valued derivation on (word) U_r: the letter of ``gen_id`` at
    position k, with normal-form time t, contributes
    (word[:k] U_t) (x) (sigma_{-t}(word[k+1:]) U_{r-t}); U steps and
    letters of other generators are constants."""
    w, r = cw.word, cw.r
    return EtaBimoduleElem(
        (1.0, CoreWord._raw(w[:k], letter.time),
         CoreWord._raw(shift_word(w[k + 1:], -letter.time), r - letter.time))
        for k, letter in enumerate(w)
        if letter.gen == gen_id
    )


def _interval_states(word, phi, gen_id: str) -> dict:
    """States of the words that :func:`verify_core_identity` evaluates,
    read from the pairing table ``phi`` of ``word`` = X_0 w: the whole
    word, and for each letter of ``gen_id`` in w the prefix before it and
    the suffix after it."""
    n = len(word)
    states = {word: phi[0][n]}
    for k in range(1, n):
        if word[k].gen == gen_id:
            states[word[1:k]] = phi[1][k]
            states[word[k + 1:]] = phi[k + 1][n]
    return states


def verify_core_identity(m: ModelSpec, gen_id: str, q: CoreWord,
                         etas=None) -> Residual:
    """Max coefficient deviation between <zeta, Q> and the derivation side.

    zeta is the embedded conjugate variable of ``gen_id``, for these free
    semicircular models its letter X_0.  The left side is E(zeta* Q); the
    right side pairs the unit tensor with the derivative of Q in the
    group-valued inner product.  The scale is the sum of the two sides'
    largest coefficient magnitudes.

    With Q = w U_r, every state either side takes is that of a subword of
    X_0 w: the whole word, and per term of the derivative a prefix and a
    suffix of w (the flow shifts a term's legs by -t and the product
    shifts them back by t, exactly).  So one kernel and one
    :func:`pairing_table` of X_0 w serve both sides, through a lookup
    keyed by word; ``etas`` is a run's eta table on ``m`` (see
    :func:`moments.word_kernel`).
    """
    zq = CoreWord((x(gen_id, 0),)) * q
    # the kernel is looked up on its module, as evaluate_state's is
    phi = pairing_table(moments.word_kernel(m, zq.word, None, etas))
    states = _interval_states(zq.word, phi, gen_id)
    lhs = conditional_expectation(m, zq, states)
    unit = EtaBimoduleElem.simple(CoreWord.one(), CoreWord.one())
    rhs = eta_inner(m, gen_id, unit, core_differentiate(gen_id, q), states)
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
    root = 2.0 * prod / delta
    if root * root == float("inf"):
        raise ValueError(f"delta {delta!r} is too small, the bound overflows")
    return root**2
