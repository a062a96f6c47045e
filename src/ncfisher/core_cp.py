"""Symbolic layer for the crossed product of the model by its modular flow.

Elements are handled in two shapes: trigonometric polynomials, finite
sums of multiples of the flow unitaries U_r held as dicts {r: coefficient}
(the values of the expectation and of the inner product below), and core
words, i.e. products of primary letters and U steps.  With
U_s U_t = U_{s+t}, the commutation rule U_s X_t = X_{t+s} U_s brings
every such product to the normal form (word) * U_r with exact
bookkeeping of the time tags (ints or Fractions, ticks of the model's
1/time_den), and core words are stored in that form:
(w, r) (w', r') = (w + sigma_r(w'), r + r').  That is what makes the
conditional expectation onto the group part computable:
E(m U_r) = state(m) U_r.

On top of that sit the diagonal completely positive map
U_t -> eta(t) U_t, the group-valued inner product of sums of simple
tensors, held as dicts {(a, b): coefficient} keyed on their legs (core
words in normal form, so the bimodule relations hold on the nose),

    <a (x) b, a' (x) b'> = E(b* eta_map(E(a* a')) b'),

and the tensor-valued derivation with d(X_t) = U_t (x) U_{-t}, d(U_s) = 0.
No dict holds a zero coefficient.
"""
from __future__ import annotations

from operator import itemgetter

from .algebra import (
    Time,
    TimeLike,
    Word,
    X_FAMILY,
    _accumulate,
    as_time,
    shift_word,
    word_adjoint,
    x,
)
from . import moments
from .model import ModelSpec, finite_max
from .moments import Residual, evaluate_state

__all__ = [
    "CoreWord",
    "conditional_expectation",
    "eta_map",
    "eta_inner",
    "core_differentiate",
    "verify_core_identity",
    "factoriality_bound",
]


class CoreWord(tuple):
    """Core word in normal form, the monomial ``(word) U_r``.

    ``word`` holds primary letters only; their times already include every
    U step written before them, by U_s X_t = X_{t+s} U_s.  A core word is
    the tuple ``(word, r)``, so it hashes, compares and orders as that
    pair does, in C.  It is a monomial, not a sum or a sequence: it takes
    no scalars, and ``2 * cw`` and ``cw + cw`` are refused rather than
    repeating or concatenating the pair.
    """

    __slots__ = ()

    _fields = ("word", "r")

    def __new__(cls, word: Word = (), r: TimeLike = 0):
        word = tuple(word)
        if any(letter.family != X_FAMILY for letter in word):
            raise ValueError("core words carry primary letters only")
        return tuple.__new__(cls, (word, as_time(r)))

    @classmethod
    def _raw(cls, word: Word, r: Time) -> "CoreWord":
        # the parts must already be canonical: a tuple of primary letters
        # and an exact time tag, as products and legs of canonical core
        # words are; skips the checks and coercions of the constructor
        return tuple.__new__(cls, (word, r))

    word = property(itemgetter(0), doc="the primary letters, in order")
    r = property(itemgetter(1), doc="the time tag of the trailing U step")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"CoreWord(word={self[0]!r}, r={self[1]!r})"

    @classmethod
    def one(cls) -> "CoreWord":
        return cls._raw((), 0)

    @classmethod
    def u(cls, r: TimeLike) -> "CoreWord":
        return cls((), r)

    def __mul__(self, other):
        if not isinstance(other, CoreWord):
            return self._refuse(other)
        word, r = self
        tail = shift_word(other[0], r) if r else other[0]
        return CoreWord._raw(word + tail, r + other[1])

    def _refuse(self, other):
        # a core word is a monomial, not a sequence: returning
        # NotImplemented would let tuple repetition or concatenation answer
        raise TypeError(f"a core word takes no {type(other).__name__} "
                        "operand here")

    __rmul__ = __add__ = _refuse

    def adjoint(self) -> "CoreWord":
        # (w U_r)* = U_{-r} w* and letters are self-adjoint
        word, r = self
        word = word_adjoint(word)
        return CoreWord._raw(shift_word(word, -r) if r else word, -r)


def conditional_expectation(m: ModelSpec, cw: CoreWord,
                            states=None) -> dict:
    """Expectation onto the group part: (m U_r) -> state(m) U_r, as the
    map {r: state(m)}, empty when the state is 0.

    ``states`` maps words to state values already computed (see
    :func:`verify_core_identity`); a word not in it is evaluated by
    :func:`evaluate_state`.
    """
    word, r = cw
    val = states.get(word) if states is not None else None
    if val is None:
        val = evaluate_state(m, word)
    return {r: val} if val != 0 else {}


def eta_map(m: ModelSpec, gen_id: str, p: dict) -> dict:
    """The diagonal completely positive map U_t -> eta(t) U_t, eta at the
    real time of the tag t, dropping the terms it sends to 0.

    Agrees with conditional_expectation(X_0 p X_0) term by term.
    """
    eta = m.gen(gen_id).eta
    out = {}
    for t, c in p.items():
        v = c * eta(m.real_time(t))
        if v != 0:
            out[t] = v
    return out


#: 1 (x) 1, the derivative of X_0, which :func:`verify_core_identity`
#: pairs with the derivative of Q
_UNIT_TENSOR = {(CoreWord.one(), CoreWord.one()): 1 + 0j}


def eta_inner(m: ModelSpec, gen_id: str, u: dict, v: dict,
              states=None) -> dict:
    """Group-valued inner product of two sums of simple tensors,
    antilinear in ``u``.

    On simple tensors: <a (x) b, a' (x) b'> =
    E(b* . eta_map(E(a* a')) . b').  The terms of each sum are taken in
    the order of their legs.  ``states`` is passed to every
    :func:`conditional_expectation`.
    """
    out: dict = {}
    terms = sorted(v.items())  # sorted once
    for (a, b), cu in sorted(u.items()):
        a_adj, b_adj, cu_bar = a.adjoint(), b.adjoint(), cu.conjugate()
        for (a2, b2), cv in terms:
            inner = eta_map(
                m, gen_id, conditional_expectation(m, a_adj * a2, states)
            )
            scalar = cu_bar * cv
            for t, g_c in inner.items():
                term = conditional_expectation(
                    m, b_adj * CoreWord._raw((), t) * b2, states)
                # term * (g_c * scalar), accumulated as it is formed
                s = g_c * scalar
                if s != 0:
                    for r, c in term.items():
                        _accumulate(out, r, c * s)
    return out


def core_differentiate(gen_id: str, cw: CoreWord) -> dict:
    """Tensor-valued derivation on (word) U_r: the letter of ``gen_id`` at
    position k, with normal-form time t, contributes
    (word[:k] U_t) (x) (sigma_{-t}(word[k+1:]) U_{r-t}); U steps and
    letters of other generators are constants."""
    w, r = cw
    # the left legs differ in length, so no two terms share a key
    return {
        (CoreWord._raw(w[:k], letter.time),
         CoreWord._raw(shift_word(w[k + 1:], -letter.time), r - letter.time)):
        1 + 0j
        for k, letter in enumerate(w)
        if letter.gen == gen_id
    }


def _interval_states(word, phi, gen_id: str) -> dict:
    """States of the words that :func:`verify_core_identity` evaluates,
    read from the rows ``phi`` that :func:`moments.interval_states` gives
    for ``word`` = X_0 w: the whole word, and for each letter of
    ``gen_id`` in w the prefix before it and the suffix after it."""
    n = len(word)
    states = {word: phi[0].get(n, 0j)}
    for k in range(1, n):
        if word[k].gen == gen_id:
            states[word[1:k]] = phi[1].get(k, 0j)
            states[word[k + 1:]] = phi[k + 1].get(n, 0j)
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
    shifts them back by t, exactly).  So one
    :func:`moments.interval_states` pass over X_0 w serves both sides,
    through a lookup keyed by word; ``etas`` is a run's eta table on ``m``
    (see :func:`moments.interval_states`).
    """
    zq = CoreWord._raw((x(gen_id, 0),), 0) * q
    # the pass is looked up on its module, as evaluate_state's is
    phi = moments.interval_states(m, zq.word, None, etas)
    states = _interval_states(zq.word, phi, gen_id)
    lhs = conditional_expectation(m, zq, states)
    rhs = eta_inner(m, gen_id, _UNIT_TENSOR, core_differentiate(gen_id, q),
                    states)
    diff = {r: lhs.get(r, 0j) - rhs.get(r, 0j) for r in {**lhs, **rhs}}
    return Residual(_max_abs(diff), _max_abs(lhs) + _max_abs(rhs))


def _max_abs(p: dict) -> float:
    """The largest coefficient magnitude of ``p``, 0.0 for none; raises
    ArithmeticError on one that is not finite, which ``max`` would pass
    over behind a larger one."""
    return finite_max(map(abs, p.values()), "a coefficient magnitude")


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
