"""Literal and symbolic reference forms the tests compare the package with.

The exhaustive oracle of :mod:`ncfisher.moments` prunes its enumeration;
``literal_oracle`` here enumerates every pair partition, filters the
crossing ones with the literal predicate and multiplies the kernel along
each survivor, in the same order.  The L2 forms multiply polynomials
symbolically and evaluate the state word by word, the definitions the
Fock-coordinate audits of :mod:`ncfisher.conjugate` stand in for.
"""
import math

from ncfisher.algebra import NcPoly
from ncfisher.conjugate import BasisSpec, solve_conjugate
from ncfisher.moments import covariance, expectation


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


def symbolic_self_adjoint_defect(m, sol) -> float:
    p = sol.polynomial()
    return l2_norm(m, p - p.adjoint())


def symbolic_covariance_residual(m, gen, s, basis: BasisSpec,
                                 b_gens=()) -> float:
    sol0 = solve_conjugate(m, gen, basis, b_gens)
    sol1 = solve_conjugate(m, gen, basis.shifted(s), b_gens, target_time=s)
    return l2_distance(m, sol0.polynomial().shift(s), sol1.polynomial())
