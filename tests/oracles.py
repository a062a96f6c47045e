"""Literal and symbolic reference forms the tests compare the package with.

The exhaustive oracle of :mod:`ncfisher.moments` prunes its enumeration;
``literal_oracle`` here enumerates every pair partition, filters the
crossing ones with the literal predicate and multiplies the kernel along
each survivor, in the same order.  The L2 forms multiply polynomials
symbolically and evaluate the state word by word, the definitions the
Fock-coordinate audits of :mod:`ncfisher.conjugate` stand in for.
``full_kernel`` is the kernel of every pair that the parity and family
rules allow.  ``pairable_kernel`` keeps the pairs of it whose inside has
a pairing with nonzero covariances, the pairs
:func:`ncfisher.moments.interval_states` visits, found by the pairing
count over the full kernel (``pairing_counts``); ``pairable_pairs``
lists those pairs, whatever their own covariance.  ``class_pairings``
counts the pairings of a word within its classes over a kernel of ones,
the existence check the class scan of :mod:`ncfisher.moments` is judged
against.
``row_by_row_table`` is the pairing table of a kernel filled one
interval at a time, each summing its kernel entries in increasing k, the
order of the first-letter recursion that the interval pass keeps bit for
bit.
``flipped_word_sums`` is the noise expansion by its definition, one
pairing pass over the full kernel per set of flipped letters, which
:func:`ncfisher.brownian.expand_state` replaces by its closed form.
``greedy_scan`` is the basis prune of :mod:`ncfisher.conjugate` by its
definition, one column at a time, which the solver's one-QR
guess-and-confirm replaces; ``masked_projection_prune`` is that
guess-and-confirm with every other column confirmed by a masked
projection, the reference for its confirm through the tail of Q^H v.
``batched_fock_vectors`` is the Fock build of
:mod:`ncfisher.conjugate` with each degree's block made in a fresh array
and copied into V, the reference for the build in place.
``rebuilt_basis_norm`` is the Fock-coordinate norm of the audits with V
rebuilt from the basis alphabet, as the audits computed it before they
read the V of the solve.  ``literal_eta`` is the two-point function as the
literal complex exponential sum, which the real-time eta of
:mod:`ncfisher.model` replaces.  ``fraction_alphabet`` and ``all_k_rhs``
are the Galerkin set-up on Fraction times: the basis alphabet sorted by
the Fraction pivot key, with the tracial collapse always run, and the
right-hand side over Fraction time differences with every product of
state factors, the references for the set-up on integer ticks.
``solution_polynomial`` turns a solver result into the polynomial the
symbolic forms take.  ``choice_time``, ``choice_word`` and
``choice_core_word`` are the draws of :mod:`ncfisher.sampling` through
``rng.choice``, ``rng.randint`` and ``rng.random``, which the module
replaces by reading ``rng.getrandbits`` itself.  ``literal_eta_inner``
is the group-valued inner product of :mod:`ncfisher.core_cp` through the
generic sum operations, one product and one scaled copy per term.
``one_particle_projection`` is every Galerkin answer in closed form: a
letter X_t acts on the vacuum as the one-particle vector
f_t[j] = sqrt(w_j) e^{2 pi i t x_j} over its generator's atoms, so the
solution is the projection of f_{t0} onto the span of the grid's
vectors, whatever the degree.  ``pair_with_y`` and ``random_ncpoly`` are
helpers only the tests use.
"""
import cmath
import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np

from ncfisher.algebra import (NcPoly, TimeLike, X_FAMILY, Letter, as_time,
                              x, y)
from ncfisher.conjugate import (PRUNE_RTOL, BasisSpec, fock_dimension,
                                 fock_vectors, solve_conjugate)
from ncfisher.model import ModelSpec
from ncfisher.core_cp import CoreWord, conditional_expectation, eta_map
from ncfisher.moments import covariance, expectation
from ncfisher.sampling import HALF_GRID_TICKS, random_word


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


def choice_time(rng: random.Random) -> int:
    return rng.choice(HALF_GRID_TICKS)


def choice_word(rng: random.Random, gens, max_len: int,
                families=(X_FAMILY,)) -> tuple:
    gens = list(gens)
    letters = []
    for _ in range(rng.randint(0, max_len)):
        fam = rng.choice(families)
        gen = rng.choice(gens)
        letters.append(Letter(fam, gen, choice_time(rng)))
    return tuple(letters)


def choice_core_word(rng: random.Random, gens, max_x_degree: int):
    gens = list(gens)
    letters = []
    shift = 0
    for _ in range(rng.randint(0, max_x_degree)):
        if rng.random() < 0.6:
            shift += choice_time(rng)
        letters.append(x(rng.choice(gens), choice_time(rng) + shift))
    if rng.random() < 0.7:
        shift += choice_time(rng)
    return CoreWord(tuple(letters), shift)


def literal_eta_inner(m, gen_id, u, v, states=None):
    """<u, v> as a sum over pairs of simple tensors a (x) b of ``u`` and
    a' (x) b' of ``v``, in key order, of conj(c) c' E(b* eta_map(E(a* a'))
    b'): each term's coefficients scaled by its scalar and added into the
    sum in turn, a sum that drops every key whose coefficient adds up to
    zero."""
    out = {}
    for (a, b), cu in sorted(u.items()):
        for (a2, b2), cv in sorted(v.items()):
            inner = eta_map(m, gen_id,
                            conditional_expectation(m, a.adjoint() * a2,
                                                    states))
            for t, g_c in inner.items():
                term = conditional_expectation(
                    m, b.adjoint() * CoreWord.u(t) * b2, states)
                scalar = g_c * (cu.conjugate() * cv)
                if scalar == 0:
                    continue
                for r, c in term.items():
                    total = out.get(r, 0j) + c * scalar
                    if total == 0:
                        out.pop(r, None)
                    else:
                        out[r] = total
    return out


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


def rebuilt_basis_norm(m, sol, coefficients) -> float:
    """Norm of the Fock vector V c of ``coefficients`` on the basis words
    of ``sol``, with V rebuilt from the basis's degree-1 words."""
    words = sol.basis_words
    alphabet = [w[0] for w in words if len(w) == 1]
    return float(np.linalg.norm(
        fock_vectors(m, alphabet, len(words[-1])) @ coefficients))


def literal_eta(g, z) -> complex:
    """sum_k w_k exp(2 pi i z x_k) in complex arithmetic, term by term."""
    phase = 2j * math.pi * complex(z)
    total = 0
    for a in g.atoms:
        total += a.w * cmath.exp(phase * a.x)
    return total


def fraction_alphabet(m, target_gen, spec: BasisSpec, b_gens=(),
                      target_time: TimeLike = 0) -> list:
    """The letters of :func:`ncfisher.conjugate.enumerate_basis` in pivot
    order, sorted on Fraction times: target generator first, then by
    generator, distance from the target time and time; the letters of
    flow-fixed generators then collapsed to time 0."""
    t0 = Fraction(target_time)
    gens = list(dict.fromkeys([target_gen, *b_gens]))
    alphabet = [x(g, t) for g in gens for t in spec.time_grid]
    alphabet.sort(key=lambda l: (l.gen != target_gen, l.gen,
                                 abs(l.time - t0), l.time))
    tracial = {g.gen_id for g in m.generators if g.is_tracial}
    return list(dict.fromkeys(
        l._replace(time=Fraction(0)) if l.gen in tracial else l
        for l in alphabet))


def all_k_rhs(m, target_gen, alphabet, phi, t0) -> np.ndarray:
    """The right-hand side of :func:`ncfisher.conjugate._rhs` with the
    kernel at ``m.real_time`` of each Fraction time difference and every
    product phi_k (x) e (x) phi_{d-1-k}, odd k included."""
    gen = m.gen(target_gen)
    a = len(alphabet)
    e = np.array([gen.eta(m.real_time(l.time - t0))
                  if l.gen == target_gen else 0
                  for l in alphabet], dtype=complex)
    return np.concatenate([
        sum(((phi[k][:, None, None] * e[:, None] * phi[d - 1 - k]).ravel()
             for k in range(d)), np.zeros(a**d, dtype=complex))
        for d in range(len(phi))
    ])


def symbolic_self_adjoint_defect(m, sol) -> float:
    p = solution_polynomial(sol)
    return l2_norm(m, p - p.adjoint())


def reversal_by_lookup(words) -> list:
    """Index of each word's reversal in ``words``, found by keying a dict
    on the words themselves."""
    index = {w: i for i, w in enumerate(words)}
    return [index[w[::-1]] for w in words]


def symbolic_covariance_residual(m, gen, s, basis: BasisSpec,
                                 b_gens=()) -> float:
    sol0 = solve_conjugate(m, gen, basis, b_gens)
    sol1 = solve_conjugate(m, gen, basis.shifted(s), b_gens, target_time=s)
    return l2_distance(m, solution_polynomial(sol0).shift(s),
                       solution_polynomial(sol1))


def full_kernel(m, letters, offsets=None) -> list:
    """Kernel of every compatible pair, by rows for
    :func:`row_by_row_table`: row i lists
    ``(k, covariance(m, l_i, l_k))`` for every later letter k at odd
    distance, leaving out exact zeros, among them every pair of letters
    of two classes.  ``offsets``, one per letter, are real times added to
    the real time of each pair's tag difference, as
    :func:`ncfisher.moments.interval_states` adds them."""
    n = len(letters)
    rows = []
    for i, a in enumerate(letters):
        row = []
        for k in range(i + 1, n, 2):
            b = letters[k]
            if offsets is None:
                c = covariance(m, a, b)
            elif (a.family, a.gen) == (b.family, b.gen):
                c = m.gen(a.gen).eta(m.real_time(b.time - a.time)
                                     + (offsets[k] - offsets[i]))
            else:
                c = 0j
            if c != 0:
                row.append((k, c))
        rows.append(row)
    return rows


def pairing_counts(rows) -> list:
    """``counts[i][j]``, the number of pairings of the letters i .. j-1
    over the entries of the kernel ``rows``: :func:`row_by_row_table`
    with every entry 1.  Over :func:`full_kernel`, the pairings whose
    covariances are all nonzero."""
    return row_by_row_table([[(k, 1) for k, _ in row] for row in rows], 1)


def class_pairings(letters) -> int:
    """The number of non-crossing pairings of ``letters`` within their
    (family, generator) classes, whatever their covariances:
    :func:`pairing_counts` over the kernel of ones on every pair of one
    class at odd distance."""
    n = len(letters)
    rows = [[(k, 1) for k in range(i + 1, n, 2)
             if (a.family, a.gen) == (letters[k].family, letters[k].gen)]
            for i, a in enumerate(letters)]
    return pairing_counts(rows)[0][n]


def pairable_pairs(m, letters, offsets=None) -> list:
    """The pairs (i, k) of letters of one (family, generator) class whose
    inside, the letters strictly between them, has a pairing with nonzero
    covariances, whatever the covariance of the pair itself."""
    counts = pairing_counts(full_kernel(m, letters, offsets))
    n = len(letters)
    return [(i, k) for i, a in enumerate(letters) for k in range(i + 1, n)
            if (a.family, a.gen) == (letters[k].family, letters[k].gen)
            and counts[i + 1][k]]


def pairable_kernel(m, letters, offsets=None) -> list:
    """The rows of :func:`full_kernel` less every entry (k, c) of row i
    whose inside [i+1, k) has no pairing with nonzero covariances: the
    kernel :func:`ncfisher.moments.interval_states` meets."""
    rows = full_kernel(m, letters, offsets)
    counts = pairing_counts(rows)
    return [[(k, c) for k, c in row if counts[i + 1][k]]
            for i, row in enumerate(rows)]


def row_by_row_table(rows, one=1 + 0j) -> list:
    """Non-crossing pairing sums ``phi[i][j]`` of every index interval
    [i, j), 0 <= i <= j <= n, from the kernel ``rows``: for each row i
    from the last letter and each j at even distance, the sum from
    ``one - one`` of ``c * phi[i+1][k] * phi[k+1][j]`` over the entries
    (k, c) with k < j, in increasing k.  Intervals of odd length hold
    ``one - one``; nothing reads the entries below the diagonal."""
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


def flipped_word_sums(m, w, max_order, absolute=False) -> dict:
    """Noise expansion of ``w`` by enumeration: for k = 0 .. min(n,
    2 max_order), the key ``Fraction(k, 2)`` holds the sum over every set
    of k positions of the state of ``w`` with those letters flipped to
    the partner family.

    Flipping changes only which letters pair, not their time differences,
    so the full kernel of ``w`` is built once and each set keeps the
    pairs on one side of it.  The full kernel keeps this oracle
    independent of the pairs the interval pass skips.  With ``absolute``
    the kernel entries are replaced by their magnitudes, which sums the
    magnitudes of the pairing terms.
    """
    letters = tuple(w)
    n = len(letters)
    rows = full_kernel(m, letters)
    if absolute:
        rows = [[(j, abs(c)) for j, c in row] for row in rows]
    coeffs = {}
    for k in range(min(n, 2 * max_order) + 1):
        total = 0j
        for subset in combinations(range(n), k):
            flipped = [False] * n
            for i in subset:
                flipped[i] = True
            total += row_by_row_table([
                [(j, c) for j, c in row if flipped[j] == flipped[i]]
                for i, row in enumerate(rows)
            ])[0][n]
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


def batched_fock_vectors(m, alphabet, degree) -> np.ndarray:
    """:func:`ncfisher.conjugate.fock_vectors` as it was built before it
    wrote into V: each degree's block made in a fresh array from the
    outer product of the lower block with the one-particle vectors, the
    annihilation contraction added to it, and the block copied into V."""
    offsets: dict = {}
    k = 0
    for letter in alphabet:
        key = (letter.family, letter.gen)
        if key not in offsets:
            offsets[key] = k
            k += len(m.gen(letter.gen).atoms)
    a = len(alphabet)
    f = np.zeros((a, k), dtype=complex)
    for l, letter in enumerate(alphabet):
        start = offsets[(letter.family, letter.gen)]
        phase = 2j * math.pi * float(m.real_time(letter.time))
        for j, at in enumerate(m.gen(letter.gen).atoms):
            f[l, start + j] = math.sqrt(at.w) * cmath.exp(phase * at.x)

    vecs = np.zeros((fock_dimension(k, degree), fock_dimension(a, degree)),
                    dtype=complex, order="F")
    vecs[0, 0] = 1
    block = vecs[:1, :1]
    for d in range(1, degree + 1):
        rows, n = block.shape
        created = block[:, None, None] * f.T[:, :, None]
        new = np.zeros((1 + rows * k, a, n), dtype=complex)
        new[1:] = created.reshape(rows * k, a, n)
        below = fock_dimension(k, d - 2)
        new[:below] += f.conj() @ block[1:].reshape(below, k, n)
        block = new.reshape(len(new), a * n)
        first = fock_dimension(a, d - 1)
        vecs[:len(block), first:first + a * n] = block
    return vecs


def masked_projection_prune(vecs: np.ndarray, guess: np.ndarray) -> tuple:
    """:func:`ncfisher.conjugate._prune_independent` with the confirm it
    had before it read every other column through the tail of Q^H v for
    a unitary Q: a reduced QR of the guessed columns, and each other
    column's residual |v - Q Q^H v|^2, with Q masked to the guessed
    columns before it.  The same decisions and scan, on zeroed buffers;
    returns ``(kept, Q, R, rounds)``."""
    dim, n = vecs.shape
    kept = np.flatnonzero(guess)[:dim]
    end = kept[-1] + 1 if len(kept) == dim else n
    m = len(kept)
    q, r = np.linalg.qr(vecs[:, kept])
    diag = r.diagonal()
    size = np.abs(diag)
    phase = np.ones_like(diag)
    np.divide(diag, size, out=phase, where=size >= sys.float_info.min)
    q *= phase
    r *= phase.conj()[:, None]
    r[range(m), range(m)] = size
    residual = np.empty(end)
    residual[kept] = size**2
    other = np.flatnonzero(~guess[:end])
    w = vecs[:, other]
    c = np.conjugate(q.T, order="C") @ w
    c[kept[:, None] > other] = 0
    w -= q @ c
    residual[other] = (w.real**2 + w.imag**2).sum(axis=0)
    v = vecs[:, :end]
    norm_sq = (v.real**2 + v.imag**2).sum(axis=0)
    differ = np.flatnonzero((residual > PRUNE_RTOL * norm_sq) != guess[:end])
    if not len(differ):
        return kept.tolist(), q, r, 1
    j = int(differ[0])
    k = int(np.searchsorted(kept, j))
    kept = kept[:k].tolist()
    q0, r0 = q, r
    q, qh, r = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    q[:, :m], qh[:m], r[:m, :m] = q0, q0.T.conj(), r0
    for i in range(j, n):
        v = vecs[:, i]
        floor = PRUNE_RTOL * float(np.vdot(v, v).real)
        c = qh[:k] @ v
        w = v - q[:, :k] @ c
        if float(np.vdot(w, w).real) <= floor:
            continue
        c2 = qh[:k] @ w
        w -= q[:, :k] @ c2
        res = float(np.vdot(w, w).real)
        if res > floor:
            q[:, k] = w / math.sqrt(res)
            qh[k] = q[:, k].conj()
            r[:k, k] = c + c2
            r[k, k] = math.sqrt(res)
            kept.append(i)
            k += 1
            if k == dim:
                break
    return kept, q[:, :k], r[:k, :k], i - j + 2


def one_particle_projection(m: ModelSpec, gen: str, time_grid,
                            target_time: TimeLike = 0) -> tuple:
    """(||P_K f_{t0}||^2, {letter: coefficient}) for the conjugate
    variable of ``gen`` at ``target_time`` on a basis over ``time_grid``.

    K is the span of the one-particle vectors f_t of the grid's letters
    of ``gen``, built from the model's atoms; a flow-fixed generator's
    letters are one operator, X_0.  Other generators' vectors are
    orthogonal to f_{t0}, so they do not enter.  The fit of f_{t0} by the
    letters' vectors is QR least squares; they must be independent.
    """
    g = m.gen(gen)
    times = [Fraction(0)] if g.is_tracial else list(time_grid)
    root_w = np.sqrt([a.w for a in g.atoms])
    xs = np.array([a.x for a in g.atoms])

    def vector(t):
        return root_w * np.exp(2j * math.pi * float(m.real_time(t)) * xs)

    a = np.column_stack([vector(as_time(t)) for t in times])
    q, r = np.linalg.qr(a)
    qf = q.conj().T @ vector(as_time(target_time))
    coefficients = np.linalg.solve(r, qf)
    return (float(np.vdot(qf, qf).real),
            {x(gen, t): c for t, c in zip(times, coefficients)})


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
) -> NcPoly:
    """Between 1 and ``n_terms`` random words of at most ``max_len``
    letters with coefficients uniform in the unit square.  The tags are
    the draws of :func:`ncfisher.sampling.random_word`, ticks of
    1/``sampling.TIME_DEN``, so use the polynomial with a model of that
    ``time_den``."""
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        w = random_word(rng, gens, max_len)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((w, c))
    return NcPoly(terms)
