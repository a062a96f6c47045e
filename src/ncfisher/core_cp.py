"""Symbolic layer for the crossed product of the model by its modular flow.

Elements are handled in two shapes: trigonometric polynomials (finitely
supported combinations of the flow unitaries U_r, a *-algebra under
U_s U_t = U_{s+t}) and core words, i.e. scalar multiples of alternating
products of primary letters and U steps.  The commutation rule
U_s X_t = X_{t+s} U_s normal-forms every core word into (word) * U_r with
exact rational bookkeeping, which is what makes the conditional
expectation onto the group part computable: E(m U_r) = state(m) U_r.

On top of that sit the diagonal completely positive map
U_t -> eta(t) U_t, the group-valued inner product of simple tensors

    <a (x) b, a' (x) b'> = E(b* eta_map(E(a* a')) b'),

and the tensor-valued derivation with d(X_t) = U_t (x) U_{-t}, d(U_s) = 0.
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .algebra import (
    Letter,
    NcPoly,
    TimeLike,
    Word,
    X_FAMILY,
    _SparseSum,
    _accumulate,
    as_time,
    x,
)
from .model import ModelSpec
from .moments import evaluate_state

__all__ = [
    "TrigPoly",
    "UStep",
    "CoreWord",
    "EtaBimoduleElem",
    "normal_form",
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

    @classmethod
    def one(cls) -> "TrigPoly":
        return cls._raw({Fraction(0): 1 + 0j})

    @classmethod
    def u(cls, t: TimeLike) -> "TrigPoly":
        return cls._raw({as_time(t): 1 + 0j})

    def coefficient(self, t: TimeLike) -> complex:
        return self._terms.get(as_time(t), 0j)

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


class UStep(NamedTuple):
    """A single flow unitary U_r inside a core word."""

    r: Fraction


Token = Union[Letter, UStep]


class CoreWord:
    """Scalar multiple of an alternating product of letters and U steps."""

    __slots__ = ("coeff", "tokens")

    def __init__(self, tokens=(), coeff: complex = 1.0):
        toks = []
        for tok in tokens:
            if isinstance(tok, Letter):
                if tok.family != X_FAMILY:
                    raise ValueError("core words carry primary letters only")
                toks.append(tok)
            elif isinstance(tok, UStep):
                toks.append(UStep(as_time(tok.r)))
            else:
                raise TypeError(f"bad core token {tok!r}")
        object.__setattr__(self, "tokens", tuple(toks))
        object.__setattr__(self, "coeff", complex(coeff))

    def __setattr__(self, name, value):
        raise AttributeError("CoreWord is immutable")

    @classmethod
    def one(cls) -> "CoreWord":
        return cls(())

    @classmethod
    def u(cls, r: TimeLike) -> "CoreWord":
        return cls((UStep(as_time(r)),))

    @classmethod
    def x_letter(cls, gen: str, t: TimeLike = 0) -> "CoreWord":
        return cls((x(gen, t),))

    @classmethod
    def from_word(cls, w: Word, coeff: complex = 1.0) -> "CoreWord":
        return cls(tuple(w), coeff)

    def __mul__(self, other):
        if isinstance(other, CoreWord):
            return CoreWord(self.tokens + other.tokens, self.coeff * other.coeff)
        if isinstance(other, numbers.Complex):
            return CoreWord(self.tokens, self.coeff * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return CoreWord(self.tokens, self.coeff * complex(other))
        return NotImplemented

    def adjoint(self) -> "CoreWord":
        toks = []
        for tok in reversed(self.tokens):
            if isinstance(tok, UStep):
                toks.append(UStep(-tok.r))
            else:
                toks.append(tok)  # letters are self-adjoint
        return CoreWord(tuple(toks), self.coeff.conjugate())

    def normal_form(self) -> tuple:
        """Rewrite to (word, r): push every U step to the right.

        Uses U_s X_t = X_{t+s} U_s exactly; r is the total U exponent.
        The scalar coefficient is not part of the return value.
        """
        shift = Fraction(0)
        letters = []
        for tok in self.tokens:
            if isinstance(tok, UStep):
                shift += tok.r
            else:
                letters.append(tok._replace(time=tok.time + shift))
        return tuple(letters), shift

    def __eq__(self, other):
        if not isinstance(other, CoreWord):
            return NotImplemented
        return (self.coeff == other.coeff
                and self.normal_form() == other.normal_form())

    def __hash__(self):
        return hash((self.coeff, self.normal_form()))

    def __repr__(self):
        bits = []
        for tok in self.tokens:
            bits.append(f"U:{tok.r}" if isinstance(tok, UStep) else str(tok))
        body = " ".join(bits) if bits else "1"
        return f"CoreWord(({self.coeff}) {body})"


def normal_form(cw: CoreWord) -> tuple:
    """Normal shape (word, r) of a core word, ignoring its coefficient."""
    return cw.normal_form()


def conditional_expectation(m: ModelSpec, cw: CoreWord) -> TrigPoly:
    """Expectation onto the group part: (m U_r) -> state(m) U_r."""
    word, r = cw.normal_form()
    val = cw.coeff * evaluate_state(m, word)
    return TrigPoly({r: val}) if val != 0 else TrigPoly.zero()


def eta_map(m: ModelSpec, gen_id: str, p: TrigPoly) -> TrigPoly:
    """The diagonal completely positive map U_t -> eta(t) U_t.

    Agrees with conditional_expectation(X_0 p X_0) term by term.
    """
    g = m.gen(gen_id)
    return TrigPoly({t: c * g.eta(t) for t, c in p.terms.items()})


class EtaBimoduleElem(_SparseSum):
    """Finite sum of simple tensors a (x) b of core words.

    Terms are keyed on the normal forms of both legs, so the bimodule
    relations that normal-forming encodes hold on the nose.  The
    constructor takes ``(coeff, a, b)`` triples.
    """

    __slots__ = ()

    @staticmethod
    def _normal_term(coeff, a, b) -> tuple:
        key = (a.normal_form(), b.normal_form())
        return key, complex(coeff) * a.coeff * b.coeff

    @classmethod
    def simple(cls, a: CoreWord, b: CoreWord, coeff: complex = 1.0
               ) -> "EtaBimoduleElem":
        return cls([(coeff, a, b)])

    @staticmethod
    def _legs(key) -> tuple:
        # the coefficient-1 core words (word) U_r of both normal forms
        return tuple(CoreWord(w + ((UStep(r),) if r else ())) for w, r in key)

    def __iter__(self) -> Iterator:
        """Yield (coeff, a, b) with coefficient-1 core words."""
        for key, c in self.sorted_terms():
            yield (c, *self._legs(key))

    def left_mul(self, cw: CoreWord) -> "EtaBimoduleElem":
        """x . (a (x) b) = (x a) (x) b."""
        return EtaBimoduleElem((c, cw * a, b) for c, a, b in self)

    def right_mul(self, cw: CoreWord) -> "EtaBimoduleElem":
        """(a (x) b) . y = a (x) (b y)."""
        return EtaBimoduleElem((c, a, b * cw) for c, a, b in self)

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
    """Tensor-valued derivation: letters of ``gen_id`` at written time t
    contribute (prefix U_t) (x) (U_{-t} suffix); U steps and letters of
    other generators are constants."""
    return EtaBimoduleElem(
        (1.0, CoreWord(cw.tokens[:k] + (UStep(tok.time),), cw.coeff),
         CoreWord((UStep(-tok.time),) + cw.tokens[k + 1:]))
        for k, tok in enumerate(cw.tokens)
        if isinstance(tok, Letter) and tok.gen == gen_id
    )


def verify_core_identity(
    m: ModelSpec, gen_id: str, q: CoreWord, zeta: NcPoly
) -> float:
    """Max coefficient deviation between <zeta, Q> and the derivation side.

    The left side is E(zeta* Q); the right side pairs the unit tensor with
    the derivative of Q in the group-valued inner product.  Zero for the
    embedded conjugate variable.
    """
    lhs: dict = {}
    for w, c in zeta.adjoint().terms.items():
        term = conditional_expectation(m, CoreWord.from_word(w, c) * q)
        for r, v in term.terms.items():
            _accumulate(lhs, r, v)

    rhs: dict = {}
    for c, a, b in core_differentiate(gen_id, q):
        inner = eta_map(m, gen_id, conditional_expectation(m, a))
        for t, g_c in inner.terms.items():
            term = conditional_expectation(m, CoreWord.u(t) * b) * (g_c * c)
            for r, v in term.terms.items():
                _accumulate(rhs, r, v)
    return (TrigPoly._raw(lhs) - TrigPoly._raw(rhs)).max_abs()


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
