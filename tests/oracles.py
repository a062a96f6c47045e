"""Literal and symbolic reference forms the tests compare the package with.

The exhaustive oracle of :mod:`ncfisher.moments` prunes its enumeration;
``literal_oracle`` here enumerates every pair partition, filters the
crossing ones with the literal predicate and multiplies the kernel along
each survivor, in the same order.  The L2 forms multiply polynomials
symbolically and evaluate the state word by word, the definitions the
Fock-coordinate audits of :mod:`ncfisher.conjugate` stand in for.
``flipped_word_sums`` is the noise expansion by its definition, one
pairing pass per set of flipped letters, which
:func:`ncfisher.brownian.expand_state` replaces by its closed form.
``greedy_scan`` is the basis prune of :mod:`ncfisher.conjugate` by its
definition, one column at a time, which the solver's one-QR
guess-and-confirm replaces.
``solution_polynomial`` turns a solver result into the polynomial the
symbolic forms take.  ``pair_with_y`` and ``random_ncpoly`` are helpers
only the tests use.
"""
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from ncfisher.algebra import NcPoly, TimeLike, y
from ncfisher.conjugate import PRUNE_RTOL, BasisSpec, solve_conjugate
from ncfisher.model import ModelSpec
from ncfisher.moments import covariance, expectation, pairing_sum, word_kernel
from ncfisher.sampling import HALF_GRID, random_word


def all_pairings(items):
    """Yield every partition of ``items`` into unordered pairs."""
    items = list(items)
    if not items:
        yield []
        return
    first = items.pop(0)
    for i, other in enumerate(items):
        rest = items[:i] + items[i + 1:]
        for tail in all_pairings(rest):
            yield [(first, other)] + tail


def is_noncrossing(pairing) -> bool:
    """Literal interval-nesting predicate on a list of (i, j) pairs."""
    pairs = [tuple(sorted(p)) for p in pairing]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (a, b), (c, d) = pairs[i], pairs[j]
            if (a < c < b < d) or (c < a < d < b):
                return False
    return True


def literal_oracle(m, w) -> complex:
    """Sum over all non-crossing pair partitions of the kernel products,
    each product taken in the order of its pairs."""
    letters = tuple(w)
    total = 0j
    for pairing in all_pairings(range(len(letters))):
        if not is_noncrossing(pairing):
            continue
        prod = 1 + 0j
        for i, j in pairing:
            prod *= covariance(m, letters[i], letters[j])
        total += prod
    return total


def inner_product(m, p: NcPoly, q: NcPoly) -> complex:
    """Sesquilinear form <p, q> = state(p* q); antilinear in ``p``."""
    return expectation(m, p.adjoint() * q)


def l2_norm(m, p: NcPoly) -> float:
    return math.sqrt(max(inner_product(m, p, p).real, 0.0))


def l2_distance(m, p: NcPoly, q: NcPoly) -> float:
    return l2_norm(m, p - q)


def solution_polynomial(sol) -> NcPoly:
    """The solver's conjugate variable as a polynomial in its basis words."""
    return NcPoly(sol.coefficient_map())


def symbolic_self_adjoint_defect(m, sol) -> float:
    p = solution_polynomial(sol)
    return l2_norm(m, p - p.adjoint())


def symbolic_covariance_residual(m, gen, s, basis: BasisSpec,
                                 b_gens=()) -> float:
    sol0 = solve_conjugate(m, gen, basis, b_gens)
    sol1 = solve_conjugate(m, gen, basis.shifted(s), b_gens, target_time=s)
    return l2_distance(m, solution_polynomial(sol0).shift(s),
                       solution_polynomial(sol1))


def flipped_word_sums(m, w, max_order, absolute=False) -> dict:
    """Noise expansion of ``w`` by enumeration: for k = 0 .. min(n,
    2 max_order), the key ``Fraction(k, 2)`` holds the sum over every set
    of k positions of the state of ``w`` with those letters flipped to
    the partner family.

    Flipping changes only which letters pair, not their time differences,
    so the kernel of ``w`` is built once and each set keeps the pairs on
    one side of it.  With ``absolute`` the kernel entries are replaced by
    their magnitudes, which sums the magnitudes of the pairing terms.
    """
    letters = tuple(w)
    n = len(letters)
    rows = word_kernel(m, letters)
    if absolute:
        rows = [[(j, abs(c)) for j, c in row] for row in rows]
    coeffs = {}
    for k in range(min(n, 2 * max_order) + 1):
        total = 0j
        for subset in combinations(range(n), k):
            flipped = [False] * n
            for i in subset:
                flipped[i] = True
            total += pairing_sum([
                [(j, c) for j, c in row if flipped[j] == flipped[i]]
                for i, row in enumerate(rows)
            ])
        coeffs[Fraction(k, 2)] = total
    return coeffs


def greedy_scan(vecs: np.ndarray) -> tuple:
    """Greedy scan over the columns of ``vecs`` keeping those whose squared
    Gram-Schmidt residual against the kept ones exceeds PRUNE_RTOL times
    their own squared norm (classical Gram-Schmidt, applied twice).

    Returns ``(kept, Q, R)`` with ``vecs[:, kept] = Q R``, Q orthonormal
    and R upper triangular with a positive diagonal: each kept column's
    projection coefficients from both passes above the diagonal, the norm
    of its residual on it.
    """
    dim = vecs.shape[0]
    q = np.zeros((dim, dim), dtype=complex)  # orthonormal kept directions
    qh = np.zeros((dim, dim), dtype=complex)  # their conjugates, as rows
    r_fac = np.zeros((dim, dim), dtype=complex)  # kept columns = q r_fac
    kept: list = []
    for i in range(vecs.shape[1]):
        n = len(kept)
        if n == dim:
            break  # the kept words span the whole Fock space
        v = vecs[:, i]
        d = float(np.vdot(v, v).real)
        if d <= 0:
            continue
        span, span_h = q[:, :n], qh[:n]
        c = span_h @ v
        r = v - span @ c
        c2 = span_h @ r
        r -= span @ c2
        res = float(np.vdot(r, r).real)
        if res > PRUNE_RTOL * d:
            q[:, n] = r / math.sqrt(res)
            qh[n] = q[:, n].conj()
            r_fac[:n, n] = c + c2
            r_fac[n, n] = math.sqrt(res)
            kept.append(i)
    k = len(kept)
    return kept, q[:, :k], r_fac[:k, :k]


def pair_with_y(m: ModelSpec, gen: str, e: NcPoly,
                y_time: TimeLike = 0) -> complex:
    """Inner product of the partner letter of ``gen`` at ``y_time`` with
    the derivative ``e``: the state of Y_{y_time} . e."""
    return expectation(m, NcPoly.letter(y(gen, y_time)) * e)


def random_ncpoly(
    rng: random.Random,
    gens,
    max_len: int,
    n_terms: int = 3,
    pool=HALF_GRID,
) -> NcPoly:
    """Between 1 and ``n_terms`` random words of at most ``max_len``
    letters with coefficients uniform in the unit square."""
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        w = random_word(rng, gens, max_len, pool=pool)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((w, c))
    return NcPoly(terms)
