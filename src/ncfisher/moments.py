"""State evaluation by the non-crossing pairing formula.

A word of letters evaluates to the sum over non-crossing pair partitions
of the product of two-letter covariances.  The covariance of two letters
is the generator's two-point function at their time difference when both
family and generator id agree, and zero otherwise; this block-diagonal
kernel is exactly what makes distinct generators (and the X/Y families)
mutually free.

Time tags are ints or Fractions counting ticks of 1/``time_den`` of the
model, and every evaluator here turns a tag into a real time through
``ModelSpec.real_time`` (the tag itself at ``time_den`` 1).

A single word is evaluated in one pass over its kernel.  The kernel holds
cov(l_i, l_k) for i < k at odd distance.  The word's tags are put over
their common denominator den as integer ticks (den is 1 for int tags), so
every tag difference is an exact int d and eta gets d / (den time_den),
the correctly rounded double of the exact real difference; eta is called
once per distinct (generator, tick difference).  A complex shift of a
prefix or suffix block enters as a per-letter offset (z on the block, 0
elsewhere), in real time, added to that double.  The pass
fills the pairing sum over index intervals [i, j), shortest first, by the
first-letter recursion

    phi[i, j) = sum_k cov(l_i, l_k) phi[i+1, k) phi[k+1, j),

which is cubic in the word length; :func:`pairing_table` returns the whole
table, so the state of every subword w[i:j] comes from the one pass.
Nothing is kept on the model, and nothing is cached between calls unless
the caller passes one eta table through them: a sampled run of many words
on one model does (``etas``, a plain dict it owns).  The table holds eta
by (generator, tick denominator, tick difference, offset difference), so
each distinct eta value of the run is computed once.
A word with an odd number of letters has no pair partition, so its value
is exactly ``0j`` (both parts +0.0, as the pass itself would give) and no
kernel is built for it: no tick denominators, no eta calls.  The size
limit ``MAX_WORD_LETTERS`` is still checked first, whatever the parity.

Bases of many words are evaluated all at once in the free Fock space
instead (the free Gaussian functor): letter (family, gen, t) acts as
creation plus annihilation of the one-particle vector with components
sqrt(w_j) exp(2 pi i t x_j) in the block of (family, gen), so
<f_s, f_t> = eta(t - s), and the word W maps the vacuum to a vector W.Omega
with state(U* W) = <U.Omega, W.Omega>.  :func:`fock_vectors` builds these
vectors for every word over an alphabet of real-time letters up to a
degree, degree by degree with all letters applied at once; the interval
pass stays the evaluator for single words, complex shifts included, and the
cross-check of the Fock vectors.

An independent oracle enumerates pair partitions depth first, dropping a
partial pairing as soon as a new pair crosses a placed one (the literal
crossing predicate) or its kernel product is exactly 0; it shares nothing
with the interval pass above except the covariance kernel.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Letter, NcPoly, Word
from .model import ModelSpec

__all__ = [
    "SizeLimitError",
    "MAX_WORD_LETTERS",
    "StateValue",
    "Residual",
    "covariance",
    "evaluate_state",
    "evaluate_state_detailed",
    "evaluate_state_shifted",
    "word_kernel",
    "pairing_table",
    "pairing_sum",
    "fock_dimension",
    "fock_vectors",
    "expectation",
    "brute_force_oracle",
]

ORACLE_MAX_LETTERS = 12

#: longest word the interval pass takes; its time is cubic in the length
MAX_WORD_LETTERS = 256


class SizeLimitError(ValueError):
    """Input too large for the work asked of it: a word too long for the
    interval pass or the exhaustive oracle."""


@dataclass(frozen=True)
class StateValue:
    """State value plus two diagnostics that are not part of it: the
    number of family-compatible non-crossing pairings that contributed,
    and ``magnitude``, the sum of the magnitudes of their kernel products,
    the scale against which the value's rounding is measured."""

    value: complex
    partition_count: int
    magnitude: float


class Residual(float):
    """Absolute residual of an identity between state values, a float,
    carrying in ``scale`` the summed magnitude of the terms it compares."""

    def __new__(cls, absolute: float, scale: float):
        obj = super().__new__(cls, absolute)
        obj.scale = scale
        return obj

    @property
    def relative(self) -> float:
        """The residual over max(1, scale): rounding in large terms is
        measured against their size, and small terms keep the absolute
        residual."""
        return float(self) / max(1.0, self.scale)


def covariance(m: ModelSpec, a: Letter, b: Letter) -> complex:
    """Kernel value for the ordered letter pair (a, b): eta at the real
    time of their tag difference when family and generator agree, zero
    otherwise.  The difference of exact tags is exact, so eta gets its
    correctly rounded double; the oracle also takes complex tags, whose
    difference is taken in complex doubles."""
    if a.family != b.family or a.gen != b.gen:
        return 0j
    return m.gen(a.gen).eta(m.real_time(b.time - a.time))


def _check_length(n: int) -> None:
    if n > MAX_WORD_LETTERS:
        raise SizeLimitError(
            f"words have at most {MAX_WORD_LETTERS} letters, got {n}"
        )


def _is_odd(letters) -> bool:
    """True when the word has an odd number of letters, so its state is
    exactly 0; raises :class:`SizeLimitError` first for words over
    ``MAX_WORD_LETTERS``, whatever their parity."""
    n = len(letters)
    _check_length(n)
    return n % 2 == 1


def word_kernel(m: ModelSpec, letters, offsets=None, etas=None) -> list:
    """Kernel of a word, by rows: row i lists ``(k, cov(l_i, l_k))`` in
    increasing k over the later letters at odd distance whose family and
    generator agree with letter i, leaving out exact zeros.

    Letter tags are put over their common denominator ``den`` as integer
    ticks, so tag differences are exact ints d and eta gets
    ``m.real_time(d, den)``, the correctly rounded float of the exact real
    difference d / (den time_den).  ``offsets``, one per letter (default
    0), are real times added after that: the pair (i, k) gets eta at
    ``m.real_time(d, den) + (offsets[k] - offsets[i])``, which is how a
    complex shift of a block of letters enters.  eta is called once
    per distinct (generator, den, tick difference, offset difference),
    whatever the family: ``etas`` is the table of those values, a dict
    that a run on ``m`` may share between its words (default: a fresh one
    per call).  Raises :class:`SizeLimitError` first for words over
    ``MAX_WORD_LETTERS``.
    """
    n = len(letters)
    _check_length(n)
    if offsets is None:
        offsets = [0] * n
    if etas is None:
        etas = {}
    den = math.lcm(*[l.time.denominator for l in letters])
    ticks = [l.time.numerator * (den // l.time.denominator) for l in letters]
    classes: dict = {}  # (family, generator) -> positions, increasing
    for i, l in enumerate(letters):
        classes.setdefault((l.family, l.gen), []).append(i)
    rows = [[] for _ in range(n)]
    for (_, gen), where in classes.items():
        eta = m.gen(gen).eta
        # (generator, den) -> {(tick diff, offset diff): eta}
        cache = etas.setdefault((gen, den), {})
        for a, i in enumerate(where):
            ti, oi, row = ticks[i], offsets[i], rows[i]
            for k in where[a + 1:]:
                if (k - i) & 1:
                    key = (ticks[k] - ti, offsets[k] - oi)
                    c = cache.get(key)
                    if c is None:
                        c = cache[key] = eta(m.real_time(key[0], den)
                                             + key[1])
                    if c != 0:
                        row.append((k, c))
    return rows


def pairing_table(rows, one=1 + 0j) -> list:
    """Non-crossing pairing sums of every index interval of a word, from
    its kernel ``rows``: ``phi[i][j]`` for 0 <= i <= j <= n is the sum over
    the letters i .. j-1, so the state of the subword w[i:j].

    Fills the intervals of even length row by row from the last letter,
    so every interval is filled after the shorter ones it needs:

        phi[i, j) = sum_k rows[i][k] * phi[i+1, k) * phi[k+1, j)

    summed in increasing k, the order of the first-letter recursion.
    ``one`` is the value of the empty interval: ``1 + 0j`` for state
    values, or the integer 1 with every row entry 1 to count pairings.
    An interval of odd length has no pairing and holds ``one - one``;
    the entries below the diagonal are never read.
    """
    n = len(rows)
    zero = one - one
    # row i starts as one at even distance from i (the empty interval and
    # the slots the recursion fills) and zero at odd distance
    pattern = [one, zero] * (n // 2 + 2)
    phi = [pattern[i % 2:i % 2 + n + 1] for i in range(n + 1)]
    for i in range(n - 2, -1, -1):
        inner, cur, row = phi[i + 1], phi[i], rows[i]
        for j in range(i + 2, n + 1, 2):
            total = zero
            for k, c in row:
                if k >= j:
                    break
                total += c * inner[k] * phi[k + 1][j]
            cur[j] = total
    return phi


def pairing_sum(rows, one=1 + 0j):
    """Non-crossing pairing sum of a whole word from its kernel ``rows``:
    the [0, n) entry of :func:`pairing_table`, ``one - one`` for odd n."""
    n = len(rows)
    if n % 2:
        return one - one
    return pairing_table(rows, one)[0][n]


def _phi(m: ModelSpec, letters, etas=None) -> complex:
    if _is_odd(letters):
        return 0j
    return pairing_sum(word_kernel(m, letters, None, etas))


def evaluate_state(m: ModelSpec, w: Word, etas=None) -> complex:
    """Value of the model state on the word ``w``.

    1 for the empty word, exactly ``0j`` for odd length with no kernel
    built; otherwise the non-crossing pairing sum, computed by one
    interval pass over the word's kernel.  ``etas`` is a run's eta table
    on ``m`` (see :func:`word_kernel`).
    """
    return _phi(m, tuple(w), etas)


def evaluate_state_detailed(m: ModelSpec, w: Word) -> StateValue:
    letters = tuple(w)
    n = len(letters)
    rows = word_kernel(m, letters)  # checks the length before the mask
    mask = [
        [(k, 1) for k in range(i + 1, n, 2)
         if letters[k].family == a.family and letters[k].gen == a.gen]
        for i, a in enumerate(letters)
    ]
    return StateValue(
        value=pairing_sum(rows),
        partition_count=pairing_sum(mask, 1),
        magnitude=pairing_sum([[(k, abs(c)) for k, c in row] for row in rows],
                              1.0),
    )


def evaluate_state_shifted(m: ModelSpec, w: Word, positions, z,
                           etas=None) -> complex:
    """Evaluate with ``z`` added to the time tags of a prefix or suffix
    block of ``w``.

    The block enters the kernel as a complex offset ``z`` on its letters
    (0 on the others), so a pair across the block boundary gets eta at
    the double of its time difference plus or minus ``z``, and a pair on
    one side at the double of its time difference.  ``z`` may be complex;
    at real ``z`` this agrees with evaluating the shifted word directly up
    to rounding.  ``positions`` are 0-based indices and must form a
    contiguous prefix or suffix block.  A word of odd length gives
    exactly ``0j`` with no kernel built.  ``etas`` is a run's eta table on
    ``m`` (see :func:`word_kernel`).
    """
    letters = tuple(w)
    n = len(letters)
    pos = sorted(set(int(p) for p in positions))
    if pos and (pos[0] < 0 or pos[-1] >= n):
        raise ValueError("positions out of range")
    k = len(pos)
    is_prefix = pos == list(range(0, k))
    is_suffix = pos == list(range(n - k, n))
    if not (is_prefix or is_suffix):
        raise ValueError("positions must form a prefix or suffix block")
    if _is_odd(letters):
        return 0j
    z, block = complex(z), set(pos)
    offsets = [z if i in block else 0j for i in range(n)]
    return pairing_sum(word_kernel(m, letters, offsets, etas))


def fock_dimension(k: int, degree: int) -> int:
    """Dimension 1 + k + ... + k^degree of the full Fock space over a
    k-dimensional one-particle space, truncated at ``degree`` particles."""
    return sum(k**n for n in range(degree + 1))


def fock_vectors(m: ModelSpec, alphabet: Sequence[Letter], degree: int):
    """Vectors W.Omega of every word over ``alphabet`` with at most
    ``degree`` letters, in the truncated full Fock space.

    Returns the D x n complex matrix V with one column per word, degree by
    degree from the empty word and each degree in ``itertools.product``
    order, so V^H V holds state(w_i* w_j) and row 0 the state values.  The
    one-particle space is the direct sum of C^{k} over the (family,
    generator) pairs of the alphabet, k the generator's atom count; D
    counts particle numbers up to ``degree``.  Letter tags must be real.

    An n-particle tensor is stored first factor fastest, so fewer particles
    fill a prefix of the rows.  The degree-d block is the degree-(d-1)
    block with all a letters applied at once: one batched annihilation (a
    contraction with the conjugated one-particle vectors), one batched
    creation (an outer product), and a reshape that puts letter l applied
    to word j in column l a^{d-1} + j.
    """
    offsets: dict = {}
    k = 0
    for letter in alphabet:
        key = (letter.family, letter.gen)
        if key not in offsets:
            offsets[key] = k
            k += len(m.gen(letter.gen).atoms)
    a = len(alphabet)
    f = np.zeros((a, k), dtype=complex)  # row l: one-particle vector of l
    for l, letter in enumerate(alphabet):
        start = offsets[(letter.family, letter.gen)]
        phase = 2j * math.pi * float(m.real_time(letter.time))
        for j, at in enumerate(m.gen(letter.gen).atoms):
            f[l, start + j] = math.sqrt(at.w) * cmath.exp(phase * at.x)

    vecs = np.zeros((fock_dimension(k, degree), fock_dimension(a, degree)),
                    dtype=complex, order="F")
    vecs[0, 0] = 1
    block = vecs[:1, :1]  # degree d - 1, up to d - 1 particles
    for d in range(1, degree + 1):
        rows, n = block.shape
        # creation: row 1 + r k + i of l on word j is f[l, i] block[r, j]
        created = block[:, None, None] * f.T[:, :, None]  # (rows, k, a, n)
        new = np.zeros((1 + rows * k, a, n), dtype=complex)
        new[1:] = created.reshape(rows * k, a, n)
        # annihilation: contract the first factor with conj(f[l])
        below = fock_dimension(k, d - 2)
        new[:below] += f.conj() @ block[1:].reshape(below, k, n)
        block = new.reshape(len(new), a * n)
        first = fock_dimension(a, d - 1)  # words of lower degree come first
        vecs[:len(block), first:first + a * n] = block
    return vecs


def expectation(m: ModelSpec, p: NcPoly, etas=None) -> complex:
    """Linear extension of the state to polynomials; ``etas`` is a run's
    eta table on ``m`` (see :func:`word_kernel`)."""
    return sum((c * _phi(m, w, etas) for w, c in p._terms.items()), 0j)


# ----------------------------------------------------------------------
# independent oracle
# ----------------------------------------------------------------------


def _crosses(p, q) -> bool:
    a, b = p
    c, d = q
    return (a < c < b < d) or (c < a < d < b)


def brute_force_oracle(m: ModelSpec, w: Word) -> complex:
    """Exhaustive evaluation over pair partitions, limited to 12 letters.

    Pair partitions are enumerated depth first: the first free letter is
    paired with each later free letter in turn, and the rest is paired
    recursively.  A partial pairing is dropped as soon as its new pair
    crosses one already placed (the literal interval-crossing predicate)
    or its running kernel product is exactly 0; no completion of it could
    contribute.  The surviving pairings are summed in enumeration order,
    each the product of its pairs in the order they were placed.
    """
    letters = tuple(w)
    n = len(letters)
    if n > ORACLE_MAX_LETTERS:
        raise SizeLimitError(
            f"oracle handles at most {ORACLE_MAX_LETTERS} letters, got {n}"
        )
    total = 0j
    placed: list = []

    def extend(free, prod):
        nonlocal total
        if not free:
            total += prod
            return
        first, rest = free[0], free[1:]
        for i, other in enumerate(rest):
            pair = (first, other)
            if any(_crosses(p, pair) for p in placed):
                continue
            value = prod * covariance(m, letters[first], letters[other])
            if value == 0:
                continue
            placed.append(pair)
            extend(rest[:i] + rest[i + 1:], value)
            placed.pop()

    if n % 2 == 0:
        extend(tuple(range(n)), 1 + 0j)
    return total
