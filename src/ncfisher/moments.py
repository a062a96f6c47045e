"""State evaluation by the non-crossing pairing formula.

A word of letters evaluates to the sum over its non-crossing pair
partitions of the product of two-letter covariances (:func:`covariance`):
the generator's eta at the letters' time difference when family and
generator id agree, and zero otherwise.  This block-diagonal kernel is
what makes distinct generators, and the X and Y families, mutually free.
So a word with no non-crossing pairing within its (family, generator)
classes has state exactly 0: one scan with a stack of classes, which
pops a letter's class when it is on top and pushes it otherwise, ends
non-empty exactly then (the class sequence is not the identity in the
free product of one Z/2 per class; odd length is a special case).
:func:`evaluate_state` and :func:`evaluate_state_shifted` read ``0j``
for such a word with no pass run.  A sum of words is a plain dict
``{word: coeff}``, and its state is taken word by word.

Two evaluators here compute it independently: :func:`interval_states`,
one pass per word, behind :func:`evaluate_state` and its variants; and
:func:`brute_force_oracle`, exhaustive up to 12 letters.  A third, the
Fock build of the Galerkin solver (:func:`ncfisher.conjugate.fock_vectors`),
gives every word of a basis at once in the free Fock space.
"""
from __future__ import annotations

import math

from .algebra import Letter, Word
from .model import ModelSpec, _Frozen, _set

__all__ = [
    "SizeLimitError",
    "MAX_WORD_LETTERS",
    "StateValue",
    "Residual",
    "covariance",
    "evaluate_state",
    "evaluate_state_detailed",
    "evaluate_state_shifted",
    "interval_states",
    "brute_force_oracle",
]

ORACLE_MAX_LETTERS = 12

#: longest word the interval pass takes; its time is cubic in the length
MAX_WORD_LETTERS = 256


class SizeLimitError(ValueError):
    """Input too large for the work asked of it: a word too long for the
    interval pass or the exhaustive oracle."""


class StateValue(_Frozen):
    """State value plus two diagnostics that are not part of it: the
    number of family-compatible non-crossing pairings that contributed,
    and ``magnitude``, the sum of the magnitudes of their kernel products,
    the scale against which the value's rounding is measured."""

    __slots__ = _fields = ("value", "partition_count", "magnitude")

    def __init__(self, value: complex, partition_count: int,
                 magnitude: float):
        _set(self, "value", value)
        _set(self, "partition_count", partition_count)
        _set(self, "magnitude", magnitude)


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


def _unpairable(letters) -> bool:
    """True when the word has no non-crossing pairing within its (family,
    generator) classes, so its state is exactly 0: the stack scan of the
    module docstring ends non-empty.  Raises :class:`SizeLimitError` first
    for words over ``MAX_WORD_LETTERS``, whatever their letters."""
    _check_length(len(letters))
    stack = []
    for l in letters:
        cls = l.family, l.gen
        if stack and stack[-1] == cls:
            stack.pop()
        else:
            stack.append(cls)
    return bool(stack)


def _ticks(times) -> tuple:
    """(den, ticks): exact ``times`` over their common denominator den, as
    the int ticks time * den."""
    ratios = [t.as_integer_ratio() for t in times]
    den = math.lcm(*[d for _, d in ratios])
    return den, [p * (den // d) for p, d in ratios]


def interval_states(m: ModelSpec, letters, offsets=None, etas=None) -> list:
    """Pairing sums of the index intervals of a word, by one pass from its
    last letter to its first: ``phi[i].get(j, 0j)`` is the state of the
    subword w[i:j], for 0 <= i <= j <= n.

    Row ``phi[i]`` maps an end j to phi[i, j).  It holds i, at 1 + 0j, and
    exactly the ends j for which [i, j) has a pairing whose covariances
    are all nonzero, each balanced: as many letters of each class at even
    as at odd positions.  The partners of letter i are the later letters k of
    its (family, generator) class whose inside [i+1, k) row i+1 holds; in
    increasing k, the pass adds c * phi[i+1, k) * phi[k+1, j) to
    phi[i, j) for every end j of row k+1, each interval summing from 0j in
    the order of the first-letter recursion

        phi[i, j) = sum_k cov(l_i, l_k) phi[i+1, k) phi[k+1, j).

    c = cov(l_i, l_k), and exact zeros add nothing.  Every other pair's
    inside has no such pairing, so its terms are signed zeros, none -0.0:
    adding them would change no bit, and every interval no term reaches
    reads 0j, as in a dense fill over every pair at odd distance while
    every value is finite.  A dense fill spreads a NaN covariance into
    those intervals as NaN * 0; the pass leaves them 0j.

    Letter tags are put over their common denominator ``den`` as integer
    ticks, so tag differences are exact ints d and eta gets
    ``m.real_time(d, den)``, the correctly rounded float of the exact real
    difference d / (den time_den); int tags are their own ticks, at den
    1.  ``offsets``, one per letter (default 0), are real times added
    after that: the pair (i, k) gets eta at ``m.real_time(d, den) + od``,
    od = ``offsets[k] - offsets[i]``, which is how a complex shift of a
    block of letters enters; where od is 0, a complex 0j included, eta
    gets the real time alone and runs its real path.  eta is called once
    per distinct (generator, den, d, od) over the partner pairs, whatever
    the family, and a generator's eta is first looked up at its first
    partner pair: ``etas`` is the table of those values, a dict that a run
    on ``m`` may share between its words (default: a fresh one per call).
    It maps (generator, den) to a dict keyed by d where od is 0 and by
    (d, od) elsewhere, so a pair inside a shifted block shares the entry
    of an unshifted pair.  Raises :class:`SizeLimitError` first for words
    over ``MAX_WORD_LETTERS``.
    """
    n = len(letters)
    _check_length(n)
    if etas is None:
        etas = {}
    den, ticks = _ticks(l.time for l in letters)
    scale = den * m.time_den  # m.real_time(d, den) is d / scale
    tables: dict = {}  # generator -> (eta, {d or (d, offset diff): eta})
    later: dict = {}  # (family, generator) -> its positions after i
    phi = [None] * n + [{n: 1 + 0j}]
    for i in range(n - 1, -1, -1):
        l = letters[i]
        cur = phi[i] = {i: 1 + 0j}
        ks = later.get((l.family, l.gen))
        if ks is None:
            later[l.family, l.gen] = [i]
            continue
        inner, cache = phi[i + 1], None
        for k in reversed(ks):
            a = inner.get(k)
            if a is None:
                continue
            if cache is None:
                eta, cache = tables.get(l.gen) or tables.setdefault(
                    l.gen,
                    (m.gen(l.gen).eta, etas.setdefault((l.gen, den), {})))
                ti = ticks[i]
                oi = offsets[i] if offsets else 0
            key = d = ticks[k] - ti
            od = offsets[k] - oi if offsets else 0
            if od:
                key = (d, od)
            c = cache.get(key)
            if c is None:
                t = d if scale == 1 else d / scale
                c = cache[key] = eta(t + od if od else t)
            if c != 0:
                ck = c * a
                for j, b in phi[k + 1].items():
                    cur[j] = cur.get(j, 0j) + ck * b
        ks.append(i)
    return phi


def _phi(m: ModelSpec, letters, etas=None) -> complex:
    """The state of ``letters``: exactly ``0j`` with no pass run and no
    eta call for a word with no pairing within its classes, where the pass
    would store no end n in row 0 and read the same positive zero."""
    if _unpairable(letters):
        return 0j
    n = len(letters)
    return interval_states(m, letters, None, etas)[0].get(n, 0j)


def evaluate_state(m: ModelSpec, w: Word, etas=None) -> complex:
    """Value of the model state on the word ``w``.

    1 for the empty word, exactly ``0j`` with no pass run for a word with
    no pairing within its (family, generator) classes, odd ones included;
    otherwise the non-crossing pairing sum, read from one
    :func:`interval_states` pass.  ``etas`` is a run's eta table on ``m``
    (see :func:`interval_states`).
    """
    return _phi(m, tuple(w), etas)


def evaluate_state_detailed(m: ModelSpec, w: Word) -> StateValue:
    """Value of the model state on ``w`` with two diagnostics.

    ``value`` is the pairing sum of one :func:`interval_states` pass, run
    whether or not the word can be paired within its classes: the
    ``moment`` command reports this value against the exhaustive oracle,
    so it is the pass's own reading, not the class scan's.
    ``partition_count`` is the number of non-crossing pairings of letters
    of one (family, generator) class, whatever their kernel values: the
    first-letter recursion over every such pair at odd distance, in
    Python ints, so it stays exact past 2^53.  ``magnitude``,
    the sum of the moduli of the pairing terms, is the real part of a
    second pass that reads the first pass's eta table with every value
    replaced by its modulus, so it meets the same pairs, every lookup hits
    and eta is not called again.  Its sums are complex, so past overflow
    inf * 0 in an imaginary part makes that real part NaN.  Every term is
    >= 0, so such a NaN is read as inf, the value of a float fill; the
    magnitude stays NaN only where a modulus is itself NaN.
    """
    letters = tuple(w)
    n = len(letters)
    etas: dict = {}
    # the pass checks the length before the counts are filled
    value = interval_states(m, letters, None, etas)[0].get(n, 0j)
    count = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    for i in range(n - 2, -1, -1):
        cls = letters[i].family, letters[i].gen
        for k in range(i + 1, n, 2):
            inner = count[i + 1][k]
            if inner and (letters[k].family, letters[k].gen) == cls:
                for j in range(k + 1, n + 1, 2):
                    count[i][j] += inner * count[k + 1][j]
    moduli = {key: {d: abs(c) for d, c in table.items()}
              for key, table in etas.items()}
    magnitude = interval_states(m, letters, None, moduli)[0].get(n, 0j).real
    if math.isnan(magnitude) and not any(
            math.isnan(c) for table in moduli.values()
            for c in table.values()):
        magnitude = math.inf
    return StateValue(
        value=value,
        partition_count=count[0][n],
        magnitude=magnitude,
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
    contiguous prefix or suffix block.  A word with no pairing within its
    (family, generator) classes, odd ones included, gives exactly ``0j``
    with no pass run: the shift moves times, not classes.  ``etas`` is a
    run's eta table on ``m`` (see :func:`interval_states`).
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
    if _unpairable(letters):
        return 0j
    z, block = complex(z), set(pos)
    offsets = [z if i in block else 0j for i in range(n)]
    return interval_states(m, letters, offsets, etas)[0].get(n, 0j)


# ----------------------------------------------------------------------
# independent oracle
# ----------------------------------------------------------------------


def brute_force_oracle(m: ModelSpec, w: Word) -> complex:
    """Exhaustive evaluation over pair partitions, limited to 12 letters.

    Pair partitions are enumerated depth first: the first free letter is
    paired with each later free letter in turn, and the rest is paired
    recursively.  A later letter with an odd number of free letters
    between the two is passed over: those letters could only pair with
    each other, or across the new pair.  A partial pairing is dropped as
    soon as its new pair crosses one already placed (the literal
    interval-crossing predicate) or its running kernel product is exactly
    0.  No completion of a pairing passed over or dropped could
    contribute.  The surviving pairings are summed in enumeration order,
    each the product of its pairs in the order they were placed.  The
    covariance of an index pair is computed the first time a branch
    reaches it and kept for the rest of the call, so :func:`covariance`
    runs at most once per index pair, never through an eta table.
    """
    letters = tuple(w)
    n = len(letters)
    if n > ORACLE_MAX_LETTERS:
        raise SizeLimitError(
            f"oracle handles at most {ORACLE_MAX_LETTERS} letters, got {n}"
        )
    total = 0j
    placed: list = []
    covs: dict = {}  # (first, other) -> their covariance

    def extend(free, prod):
        nonlocal total
        if not free:
            total += prod
            return
        c, rest = free[0], free[1:]
        # rest[:i], the free letters between c and d, must pair among
        # themselves, so i is even
        for i in range(0, len(rest), 2):
            d = rest[i]
            # the new pair (c, d) against each placed pair (a, b)
            for a, b in placed:
                if a < c < b < d or c < a < d < b:
                    break
            else:
                cov = covs.get((c, d))
                if cov is None:
                    cov = covs[c, d] = covariance(m, letters[c], letters[d])
                value = prod * cov
                if value == 0:
                    continue
                placed.append((c, d))
                extend(rest[:i] + rest[i + 1:], value)
                placed.pop()

    if n % 2 == 0:
        extend(tuple(range(n)), 1 + 0j)
    return total
