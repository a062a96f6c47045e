"""Galerkin solver for conjugate variables and the derived functionals.

The conjugate variable xi of a generator's letter is defined by its
pairings b_P = <partner, d(P)> with every polynomial P.  The solver
truncates trial and test space to the span of a finite word basis
(:func:`enumerate_basis`), so its solution is the orthogonal projection of
xi onto that span whenever xi exists.  :func:`_solve` builds the words'
vectors in the truncated free Fock space (:func:`fock_vectors`), prunes
them to an independent subset (:func:`_prune_independent`) and solves on
its QR factor.  The Fock space is the free Gaussian functor of the
letters' one-particle space, so one QR of the guessed letters' vectors
there rotates the build into a frame where the guessed words' factor is
read off V, not computed.  The L2 audits are norms of Fock vectors too,
with the V the solve built.  Row 0 of V holds the state of every basis
word, so the Fock build is an evaluator of the state beside the two of
:mod:`ncfisher.moments`, independent of both.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import Letter, TimeLike, as_time, x
from .model import ConfigError, ModelSpec
from .moments import Residual, _ticks

__all__ = [
    "BasisError",
    "BasisSpec",
    "ConjugateSolution",
    "enumerate_basis",
    "fock_dimension",
    "fock_vectors",
    "solve_conjugate",
    "solve_family",
    "self_adjoint_defect",
    "embedded_distance",
    "fisher_multi",
    "CramerRaoReport",
    "cramer_rao_audit",
    "chi_star",
    "covariance_distance",
    "modular_covariance_check",
]

PRUNE_RTOL = 1e-10       # squared residual over squared norm below which
                         # a word counts as dependent on its predecessors
MAX_BASIS_ENTRIES = 2_000_000  # words times Fock dimension of one solve


class BasisError(ValueError):
    """Invalid basis specification for the requested solve."""


@dataclass(frozen=True)
class BasisSpec:
    """Finite truncation: all words up to ``max_degree`` over the letters
    of the target generator and the solve's ``b_gens`` at the times in
    ``time_grid``.

    The word set is closed under adjoints (letters are self-adjoint and
    all words up to the degree bound are present).
    """

    time_grid: tuple
    max_degree: int

    def __post_init__(self):
        grid = tuple(as_time(t) for t in self.time_grid)
        object.__setattr__(self, "time_grid", grid)
        if not grid:
            raise BasisError("time grid must be non-empty")
        if len(set(grid)) != len(grid):
            raise BasisError("time grid entries must be distinct")
        if not isinstance(self.max_degree, int) or self.max_degree < 1:
            raise BasisError("max_degree must be an integer >= 1")

    def shifted(self, s: TimeLike) -> "BasisSpec":
        ds = as_time(s)
        return BasisSpec(tuple(t + ds for t in self.time_grid),
                         self.max_degree)


def _letter_pivot_key(gen: str, tick: int, target_gen: str,
                      target_tick: int):
    """Target generator first, then by generator, distance from the target
    time and time, on ticks of one common denominator."""
    return (gen != target_gen, gen, abs(tick - target_tick), tick)


def enumerate_basis(m: ModelSpec, target_gen: str, spec: BasisSpec,
                    b_gens: Sequence[str] = (),
                    target_time: TimeLike = 0) -> list:
    """Basis words in pivot order: the empty word, then degree by
    degree with target-generator letters nearest the target time first.

    The order decides which words the prune keeps, so it moves only the
    printed coefficients, not xi, and an exactly representable solution
    is printed concentrated.  Letters of flow-fixed generators are
    collapsed to time 0 before the words are formed, so each such
    generator contributes one letter.
    Raises :class:`BasisError` before enumerating when the word count
    times the Fock dimension exceeds ``MAX_BASIS_ENTRIES``, or when the
    solve's squared numbers may overflow a double.
    """
    t0 = as_time(target_time)
    gens = list(dict.fromkeys([target_gen, *b_gens]))
    for g in gens:
        m.gen(g)  # raises ConfigError for unknown ids
    if t0 not in spec.time_grid:
        raise BasisError(
            f"target time {t0} must belong to the basis time grid"
        )
    _, (tick0, *ticks) = _ticks((t0, *spec.time_grid))
    order = sorted(((g, i) for g in gens for i in range(len(ticks))),
                   key=lambda gi: _letter_pivot_key(gi[0], ticks[gi[1]],
                                                    target_gen, tick0))
    alphabet = [x(g, spec.time_grid[i]) for g, i in order]
    tracial = {g for g in gens if m.gen(g).is_tracial}
    if tracial:
        alphabet = list(dict.fromkeys(
            l._replace(time=Fraction(0)) if l.gen in tracial else l
            for l in alphabet
        ))

    # word count and Fock dimension, summed degree by degree so that a
    # huge degree stops at the first one over the bound
    atoms = sum(len(m.gen(g).atoms) for g in gens)
    n = dim = 0
    for d in range(spec.max_degree + 1):
        n += len(alphabet) ** d
        dim += atoms**d
        if n * dim > MAX_BASIS_ENTRIES:
            raise BasisError(
                f"degree {d} already gives {n} basis words in a Fock space "
                f"of dimension {dim}, over {MAX_BASIS_ENTRIES} entries; "
                "lower the degree or the grid size"
            )
    # Every squared number of the solve must be a finite double.  A letter
    # of mass v is 2 sqrt(v) in operator norm, so a word of k <= d letters
    # has a Fock vector of squared norm at most 4^k v^k.  Its rhs entry is
    # 0 for even k, and for odd k a state of k + 1 letters, at most
    # C((k+1)/2) v^((k+1)/2) with C(n)^2 <= 4^(2n-1), C the Catalan number.
    # Residual and Gram entries sum at most N such terms.  The kept Gram,
    # whose condition the reports print, holds the vacuum's 1 and norms up
    # to 4^d v^d, and eigenvalues down to about w^d, w the smallest atom
    # weight, so its condition grows like s^d, s = max(1, v) / min(1, w).
    # N 4^d s^e, e = d rounded up to even, bounds all of these scales.
    v = max(m.gen(g).v for g in gens)
    w = min(a.w for g in gens for a in m.gen(g).atoms)
    log_bound = (math.log(n) + d * math.log(4.0)
                 + (d + d % 2) * math.log(max(1.0, v) / min(1.0, w)))
    if log_bound > math.log(sys.float_info.max):
        raise BasisError(
            f"degree {d} at mass {v!r} and smallest atom weight {w!r} may "
            f"reach e^{log_bound:.1f} in the solve, past the largest double"
        )
    words: list = [()]
    for d in range(1, spec.max_degree + 1):
        words.extend(itertools.product(alphabet, repeat=d))
    return words


@dataclass(frozen=True, eq=False)
class _KeptFactor:
    """The triangular factor R of the kept words' Fock vectors, one per
    solve and shared by every solution of a family, with the condition
    number of the kept words' Gram computed on its first read."""

    r: np.ndarray

    @functools.cached_property
    def gram_condition(self) -> float:
        cond = float(np.linalg.cond(self.r))
        if not cond * np.finfo(float).eps < 1:
            # past 1/eps the SVD can lose a graded R's smallest singular
            # value, even to 0; R's inverse keeps it
            cond = float(np.linalg.norm(self.r, 2)
                         * np.linalg.norm(np.linalg.inv(self.r), 2))
        return cond**2


@dataclass(frozen=True, eq=False)
class ConjugateSolution:
    """Solved Galerkin data for one conjugate-variable problem.

    ``r`` is the triangular factor of the kept words' Fock vectors,
    V_kept = QR, and ``z`` the reduced solution, R^H z = b[kept], so that
    xi = Q z and ``xi_norm_sq`` = |z|^2.  ``coefficients`` (xi on the basis
    words, zero off ``kept``) and ``gram_condition`` (the condition number
    of the kept words' Gram, cond(R)^2 from the singular values of R, with
    nothing cut off) are computed on first read and then kept; the
    solutions of one family share R, so they share one ``gram_condition``.
    ``vecs`` is V in the solve's orthonormal frame: F(Q_F)^H V, the Fock
    vectors of the basis words rotated by the Fock image of one unitary
    on the one-particle space (:func:`_solve`), so it has V's Gram and
    V's row 0, and every L2 norm through it is V's.  It is one array
    shared by the solutions of a family; ``fock_dim``, its row
    count, is the dimension of the truncated Fock space the basis words
    live in (an upper bound on ``len(kept)``); ``prune_rounds`` is
    1 when the prune's guess held, and otherwise 1 plus the number of
    words it then scanned one at a time.
    """

    target_time: Fraction
    basis_words: tuple
    kept: tuple
    factor: _KeptFactor = field(repr=False)
    vecs: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    residual: float
    xi_norm_sq: float
    phi_star: float
    prune_rounds: int

    @property
    def r(self) -> np.ndarray:
        return self.factor.r

    @property
    def fock_dim(self) -> int:
        return self.vecs.shape[0]

    @property
    def gram_condition(self) -> float:
        return self.factor.gram_condition

    @functools.cached_property
    def coefficients(self) -> np.ndarray:
        c = np.zeros(len(self.basis_words), dtype=complex)
        c[list(self.kept)] = np.linalg.solve(self.r, self.z)
        return c

    def coefficient_map(self) -> dict:
        return {
            w: c
            for w, c in zip(self.basis_words, self.coefficients)
            if c != 0
        }


def fock_dimension(k: int, degree: int) -> int:
    """Dimension 1 + k + ... + k^degree of the full Fock space over a
    k-dimensional one-particle space, truncated at ``degree`` particles."""
    return sum(k**n for n in range(degree + 1))


def _one_particle_vectors(m: ModelSpec,
                         alphabet: Sequence[Letter]) -> np.ndarray:
    """The a x k complex matrix whose row l is the one-particle vector of
    letter l of ``alphabet``: f_t[j] = sqrt(w_j) exp(2 pi i t x_j) over its
    generator's atoms, at time t, so <f_s, f_t> = eta(t - s).

    The one-particle space is the direct sum of C^{k_g} over the (family,
    generator) pairs of the alphabet, in order of first appearance, k_g
    the generator's atom count; k sums them.  Letter tags must be real.
    """
    offsets: dict = {}
    k = 0
    for letter in alphabet:
        key = (letter.family, letter.gen)
        if key not in offsets:
            offsets[key] = k
            k += len(m.gen(letter.gen).atoms)
    f = np.zeros((len(alphabet), k), dtype=complex)
    for l, letter in enumerate(alphabet):
        start = offsets[(letter.family, letter.gen)]
        phase = 2j * math.pi * float(m.real_time(letter.time))
        for j, at in enumerate(m.gen(letter.gen).atoms):
            f[l, start + j] = math.sqrt(at.w) * cmath.exp(phase * at.x)
    return f


def fock_vectors(f: np.ndarray, degree: int) -> np.ndarray:
    """Vectors W.Omega of every word with at most ``degree`` letters over
    an alphabet whose letter l acts as creation plus annihilation of the
    one-particle vector ``f[l]`` (:func:`_one_particle_vectors`), in the
    truncated full Fock space over C^k, k = ``f.shape[1]``: the free
    Gaussian functor.

    Returns the D x n complex matrix V with one column per word, degree by
    degree from the empty word and each degree in ``itertools.product``
    order, so V^H V holds state(w_i* w_j) and row 0 the state values; D
    counts particle numbers up to ``degree``.  The functor carries a
    unitary U on C^k to F(U) on the Fock space, so the rows U^H f[l] give
    F(U)^H V, with the same Gram and the same row 0.

    An n-particle tensor is stored first factor fastest, so fewer particles
    fill a prefix of the rows.  The degree-d block is the degree-(d-1)
    block with all a letters applied at once, built in its own slice of
    V, seen as rows x a x a^{d-1} so that letter l applied to word j is
    column l a^{d-1} + j: one batched creation (an outer product) written
    into the rows past the vacuum, then one batched annihilation (a
    contraction with the conjugated one-particle vectors) added in place
    to the rows of two particles fewer.
    """
    a, k = f.shape
    vecs = np.zeros((fock_dimension(k, degree), fock_dimension(a, degree)),
                    dtype=complex, order="F")
    vecs[0, 0] = 1
    if not a:
        return vecs  # no word but the empty one
    block = vecs[:1, :1]  # degree d - 1, up to d - 1 particles
    first = 1  # words of lower degree come first
    for d in range(1, degree + 1):
        rows, n = block.shape
        out = vecs[:1 + rows * k, first:first + a * n]
        new = out.reshape(len(out), a, n)
        # creation: row 1 + r k + i of l on word j is f[l, i] block[r, j]
        created = new[1:].reshape(rows, k, a, n)
        # a reshape copies where it cannot view; a copy would lose the writes
        assert np.shares_memory(created, vecs)
        np.multiply(block[:, None, None], f.T[:, :, None], out=created)
        # annihilation: contract the first factor with conj(f[l]), into
        # the rows of up to d - 2 particles
        below = (rows - 1) // k
        new[:below] += f.conj() @ block[1:].reshape(below, k, n)
        block = out
        first += a * n
    return vecs


def _prune_independent(vecs: np.ndarray, guess: np.ndarray,
                       rows: np.ndarray) -> tuple:
    """Greedy prune of the columns of ``vecs``: column j is kept iff its
    squared residual against the kept columns before it exceeds
    PRUNE_RTOL times its own squared norm, and no column after the one
    that completes the space is kept.

    ``guess`` is a boolean mask of the columns expected to be kept, and
    the guessed columns (cut to the space's dimension) must come already
    factored: zero off ``rows``, and on ``rows``, taken in their order,
    upper triangular with a real diagonal that is positive or zero.  So
    they are E R, E the unit vectors of ``rows``, and R is read off.  A
    column's residual against the guessed columns before it is the
    squared norm of its entries off their rows: R's squared diagonal for
    a guessed column.  A right guess is confirmed there.  Where a
    decision differs from the guess, the decisions before the first
    difference stand, and so do R's leading columns for them; the columns
    from it on are then decided one at a time against that factor, by
    classical Gram-Schmidt applied twice (once, for a column the first
    projection already shows dependent), until the kept columns span the
    space.  No column after the one that completes the space is read.

    Returns ``(kept, rows, q, R, rounds)`` with ``vecs[:, kept] = Q R``
    for Q = [E | q], E the unit vectors of the returned ``rows`` (the
    leading guessed columns kept) and ``q`` the orthonormal columns the
    scan added; R is upper triangular with a real positive diagonal, and
    ``rounds`` is 1 plus the number of columns read one at a time.  The
    tests pin ``kept`` to a plain column-by-column scan
    (``tests/oracles.greedy_scan``).
    """
    dim, n = vecs.shape
    kept = np.flatnonzero(guess)[:dim]
    m = len(kept)
    end = kept[-1] + 1 if m == dim else n
    # residual of each column against the guessed columns before it, the
    # squares off their rows summed directly (|v|^2 less the squares on
    # them would carry a rounding error of order eps |v|^2 into a residual
    # near PRUNE_RTOL |v|^2)
    sq = vecs[:, :end].real**2
    sq += vecs[:, :end].imag**2
    norm_sq = sq.sum(axis=0)
    rank = np.full(dim, m)  # a row's place in ``rows``, m off them
    rank[rows] = np.arange(m)
    before = np.cumsum(guess[:end]) - guess[:end]
    sq[rank[:, None] < before] = 0
    residual = sq.sum(axis=0)
    differ = np.flatnonzero((residual > PRUNE_RTOL * norm_sq) != guess[:end])
    if not len(differ):
        return (kept.tolist(), rows, np.zeros((dim, 0), dtype=complex),
                vecs[rows[:, None], kept], 1)
    j = int(differ[0])
    k = head = int(np.searchsorted(kept, j))
    kept = kept[:k].tolist()
    # the scan starts from the unit vectors of the rows of the guessed
    # columns that stand, writes each kept column into Q and its conjugate
    # into Q^H from column k on, and its coefficients into R
    q = np.zeros((dim, dim), dtype=complex)
    q[rows[:k], np.arange(k)] = 1
    qh = q.T.copy()
    r = np.zeros((dim, dim), dtype=complex)
    r[:k, :k] = vecs[rows[:k, None], kept]
    for i in range(j, n):
        v = vecs[:, i]
        floor = PRUNE_RTOL * float(np.vdot(v, v).real)
        c = qh[:k] @ v
        w = v - q[:, :k] @ c
        # projecting once more cannot raise the residual, so a column the
        # first projection takes to the floor is dependent
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
                break  # the kept columns span the space
    # one round for the guess, one more per column read from ``j`` to ``i``
    return kept, rows[:head], q[:, head:k], r[:k, :k], i - j + 2


def _rhs(m: ModelSpec, target_gen: str, alphabet: list, phi: list,
         t0: Fraction) -> np.ndarray:
    """b_P = <partner, d(P)> of ``target_gen`` on every basis word P.  The
    partner pairs only with the letter it replaces, so b_W is the sum over
    the target's letters W_k, at time t_k, of eta(t_k - t0) state(W[:k])
    state(W[k+1:]): on the degree-d words, sum_k phi_k (x) e (x)
    phi_{d-1-k}, with phi_k the state values of the degree-k words and e
    the kernel at the target's letters, 0 at the other generators' (the
    partner is free of them).

    e takes eta at ``m.real_time(d, den)``, d the int tick difference over
    one denominator den of the letter times and ``t0``.  phi_k is exactly
    zero at odd k, so the products with an odd factor are left out: each
    is a signed zero, which changes no bit of a sum started at +0."""
    gen = m.gen(target_gen)
    a = len(alphabet)
    den, (tick0, *ticks) = _ticks((t0, *(l.time for l in alphabet)))
    e = np.array([gen.eta(m.real_time(t - tick0, den))
                  if l.gen == target_gen else 0
                  for l, t in zip(alphabet, ticks)], dtype=complex)
    return np.concatenate([
        sum(((phi[k][:, None, None] * e[:, None] * phi[d - 1 - k]).ravel()
             for k in range(0, d, 2) if d % 2),
            np.zeros(a**d, dtype=complex))
        for d in range(len(phi))
    ])


@functools.lru_cache(maxsize=64)
def _guess(counts: tuple, degree: int) -> tuple:
    """Where the prune's guess puts the words over an alphabet grouped by
    generator, with ``counts`` the (letter count, atom count) pair of each
    group in order.  In exact arithmetic the prune keeps the words over
    the first atom-count letters of each generator (the guessed letters):
    they span its one-particle space, and a word with a later letter is a
    combination of words that come before it.

    Returns ``(letters, words, rows)``: the guessed letters' indices in
    the alphabet, the boolean mask of the guessed words in basis order,
    and, in that order, the row of each guessed word's own coordinate in
    a Fock space over C^k whose first coordinates are those of the
    guessed letters: particle number, then product order over the
    guessed letters, each tensor stored first factor fastest."""
    first = np.concatenate([np.arange(n) < min(n, k) for n, k in counts])
    k = sum(k for _, k in counts)
    guessed = int(first.sum())
    masks = [np.ones(1, dtype=bool)]
    own = [np.zeros(1, dtype=np.intp)]  # tensor offsets of the last degree
    for d in range(1, degree + 1):
        masks.append(np.multiply.outer(first, masks[-1]).ravel())
        own.append((np.arange(guessed)[:, None] + k * own[-1]).ravel())
    rows = np.concatenate([fock_dimension(k, d - 1) + offsets
                           for d, offsets in enumerate(own)])
    out = (np.flatnonzero(first), np.concatenate(masks), rows)
    for array in out:
        array.flags.writeable = False  # shared by every solve of the shape
    return out


def _solve(m: ModelSpec, targets: Sequence[str], basis: BasisSpec,
           b_gens: Sequence[str] = (), target_time: TimeLike = 0) -> list:
    """Solutions for every generator in ``targets`` on one basis: the words
    of :func:`enumerate_basis` over the letters of every target and of
    ``b_gens``, in the first target's pivot order.  One Fock build and one
    prune to a maximal independent subset, with its factor V_kept = QR,
    serve every target.  The prune is needed: translates of a k-atom
    generator span a k-dimensional one-particle space, so the words'
    Gram is exactly rank-deficient, and a minimum-norm pseudo-inverse
    would smear an exact solution over dependent words.

    The factor comes from one QR of the guessed letters' one-particle
    vectors (:func:`_guess`), F_G = Q_F R_F with a real positive diagonal:
    the Fock build runs on the rotated vectors Q_F^H f, with R_F's columns
    written exactly for the guessed letters, so it gives V in the frame of
    F(Q_F), where every guessed word's vector is zero off the guessed
    rows and upper triangular on them.  That is R, and Q = F(Q_F) E is
    never formed.  Each target gets its own b_P = <partner, d(P)>,
    R^H z = b[kept], residual (the norm of the unmatched defining data
    over the full basis, V^H Q z - b with z placed on the guessed rows)
    and phi_star (xi_norm_sq over its second moment).  The normal
    equations are never formed, so the working condition is cond(R), the
    square root of the Gram's."""
    t0 = as_time(target_time)
    words = enumerate_basis(m, targets[0], basis, (*targets[1:], *b_gens),
                            t0)
    alphabet = [w[0] for w in itertools.takewhile(
        lambda w: len(w) == 1, itertools.islice(words, 1, None))]
    counts = tuple((len(list(group)), len(m.gen(g).atoms))
                   for g, group in itertools.groupby(alphabet,
                                                     lambda l: l.gen))
    letters, guess, rows = _guess(counts, basis.max_degree)
    f = _one_particle_vectors(m, alphabet)
    q_f, r_f = np.linalg.qr(f[letters].T, mode="complete")
    diag = r_f.diagonal()
    size = np.abs(diag)
    phase = np.ones_like(diag)
    # 1/size overflows at a subnormal size, a letter the prune drops
    np.divide(diag, size, out=phase, where=size >= sys.float_info.min)
    q_f[:, :len(letters)] *= phase
    r_f[:len(letters)] *= phase.conj()[:, None]
    np.fill_diagonal(r_f, size)
    rotated = f @ q_f.conj()
    rotated[letters] = r_f.T  # exact zeros below R_F's diagonal
    vecs = fock_vectors(rotated, basis.max_degree)
    # the words of degree d are columns ends[d] to ends[d + 1]
    ends = list(itertools.accumulate(
        (len(alphabet)**d for d in range(basis.max_degree + 1)), initial=0))
    phi = [vecs[0, ends[d]:ends[d + 1]] for d in range(basis.max_degree + 1)]
    kept, rows, q, r, rounds = _prune_independent(vecs, guess, rows)

    words, rh = tuple(words), r.conj().T
    factor = _KeptFactor(r)
    solutions = []
    for g in targets:
        b = _rhs(m, g, alphabet, phi, t0)
        rhs = b.conjugate()
        # numpy has no triangular solver; LU on the triangular factor is
        # still backward stable
        z = np.linalg.solve(rh, rhs[kept])
        xi_norm_sq = float(np.vdot(z, z).real)
        # xi = Q z: z's head placed on ``rows``, its tail through ``q``
        xi = q @ z[len(rows):]
        xi[rows] += z[:len(rows)]
        # V^H xi, conjugated around V^T rather than through a copy of V^H
        vh_xi = (vecs.T @ xi.conj()).conj()
        solutions.append(ConjugateSolution(
            target_time=t0, basis_words=words, kept=tuple(kept),
            factor=factor, vecs=vecs, z=z, rhs=b,
            residual=float(np.linalg.norm(vh_xi - rhs)),
            xi_norm_sq=xi_norm_sq, phi_star=xi_norm_sq / m.gen(g).v,
            prune_rounds=rounds))
    return solutions


def solve_conjugate(m: ModelSpec, target_gen: str, basis: BasisSpec,
                    b_gens: Sequence[str] = (),
                    target_time: TimeLike = 0) -> ConjugateSolution:
    """The conjugate variable of ``target_gen`` at ``target_time``, solved
    on the words over its letters and those of ``b_gens`` (:func:`_solve`
    with one target).  Its ``xi_norm_sq`` is the squared norm of xi_B,
    the projection of xi onto the span of the basis words: a lower bound
    on the squared norm of xi, which the basis grid sets."""
    return _solve(m, [target_gen], basis, b_gens, target_time)[0]


def solve_family(m: ModelSpec, gens: Sequence[str],
                 basis: BasisSpec) -> list:
    """One solution per generator of the family, in order; ids must not
    repeat.  Every conjugate variable of the family lives in the L2 space
    of the whole family, so one :func:`_solve` serves all.  The first
    solution is bit for bit ``solve_conjugate(m, gens[0], basis,
    b_gens=gens[1:])``; each other one is the projection its own solve
    gives, computed in the first's pivot order, and shares the first's
    basis size, kept size, Fock dimension, prune rounds and R, so the
    family computes its Gram condition once."""
    gens = list(gens)
    if not gens:
        raise ConfigError("at least one generator is required")
    if len(set(gens)) < len(gens):
        raise ConfigError(f"generator ids repeat in {gens}")
    return _solve(m, gens, basis)


def _basis_norm(solution: ConjugateSolution,
                coefficients: np.ndarray) -> float:
    """L2 norm of the polynomial with ``coefficients`` on the solution's
    basis words: the norm of its Fock vector V c, with the V its solve
    built."""
    return float(np.linalg.norm(solution.vecs @ coefficients))


def _reversal(words: Sequence) -> np.ndarray:
    """Index of each word's reversal in ``words``, a basis in
    :func:`enumerate_basis` order, found without hashing a word.

    With a letters, the degree-d words follow the first
    ``fock_dimension(a, d - 1)`` in ``itertools.product`` order, the C
    order of an a x ... x a array of their letter indices, and reversing
    every word transposes that array.
    """
    a = sum(len(w) == 1 for w in words)
    return np.concatenate([
        fock_dimension(a, d - 1) + np.arange(a**d).reshape((a,) * d).T.ravel()
        for d in range(len(words[-1]) + 1)
    ])


def self_adjoint_defect(solution: ConjugateSolution) -> float:
    """L2 norm of xi - xi*; small for every well-posed solve.

    Letters are self-adjoint, so the adjoint of a word is the word reversed
    and the basis is closed under it: with ``rev`` the reversal permutation
    of basis indices, xi - xi* has coefficients c - conj(c)[rev] and its L2
    norm is that of its Fock vector V (c - conj(c)[rev]).
    """
    c = solution.coefficients
    rev = _reversal(solution.basis_words)
    return _basis_norm(solution, c - c[rev].conj())


def embedded_distance(inner: ConjugateSolution,
                      outer: ConjugateSolution) -> float:
    """L2 distance between two solutions when every basis word of ``inner``
    is a basis word of ``outer``: ``inner``'s coefficients are scattered
    onto ``outer``'s words, and the difference is measured through
    ``outer``'s Fock vectors."""
    index = {w: i for i, w in enumerate(outer.basis_words)}
    c = np.zeros(len(outer.basis_words), dtype=complex)
    c[[index[w] for w in inner.basis_words]] = inner.coefficients
    return _basis_norm(outer, c - outer.coefficients)


def fisher_multi(
    m: ModelSpec, gens: Sequence[str], basis: BasisSpec
) -> float:
    """Sum over the family of per-generator normalized conjugate norms,
    each generator solved against the words of all the others."""
    return sum(sol.phi_star for sol in solve_family(m, gens, basis))


@dataclass(frozen=True)
class CramerRaoReport:
    """Both sides of the information-variance product.

    ``lhs`` is the tuple-normalized information (sum of squared conjugate
    norms over the family's total second moment) multiplied by the squared
    total second moment; ``rhs`` is n^2.  The identity is asserted only
    for normalized models (every generator of unit second moment); other
    models get the report without an assertion.  ``solutions`` holds the
    per-generator solves, in the order of the generators.
    """

    n: int
    second_moment: float
    phi_star_tuple: float
    lhs: float
    rhs: float
    ratio: float
    normalized: bool
    asserted: bool
    note: str
    solutions: tuple


def cramer_rao_audit(
    m: ModelSpec, gens: Sequence[str], basis: BasisSpec, solutions=None
) -> CramerRaoReport:
    """The Cramer-Rao product of the family ``gens`` on ``basis``.
    ``solutions``, one per generator, are the family's solutions on that
    basis when the caller has them (as :func:`solve_family` gives them);
    without them the family is solved here."""
    gens = list(gens)
    sols = tuple(solve_family(m, gens, basis) if solutions is None
                 else solutions)
    second_moment = math.fsum(m.gen(g).v for g in gens)
    phi_star_tuple = math.fsum(sol.xi_norm_sq for sol in sols) / second_moment
    lhs = phi_star_tuple * second_moment**2
    n = len(gens)
    rhs = float(n * n)
    normalized = all(abs(m.gen(g).v - 1.0) <= m.tolerance for g in gens)
    return CramerRaoReport(
        n=n,
        second_moment=second_moment,
        phi_star_tuple=phi_star_tuple,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        normalized=normalized,
        asserted=normalized,
        note="" if normalized else "normalization audit",
        solutions=sols,
    )


def chi_star(
    m: ModelSpec,
    gens: Sequence[str],
    tail_cutoff: float,
    basis: BasisSpec,
) -> float:
    """Entropy-style integral along the matched-covariance perturbation.

    At parameter t the perturbed family is realized inside the model class
    as the generators with all weights scaled by (1 + t); the integrand is
    (n/(1+t) - Fisher(t)) / 2 on [0, ``tail_cutoff``], and nothing is added
    beyond it.  Fisher(t) equals Fisher(0) = F (a d-letter word's Fock
    vector scales by (1+t)^(d/2), its rhs entry by (1+t)^((d+1)/2), and
    the prune's test is relative), so one family solve on ``m`` serves
    every t and the integral is (n log(1 + c) - F c) / 2, c the cutoff.
    Raises :class:`ConfigError` for a negative cutoff, for an empty
    family (:func:`solve_family`), and for a cutoff at which the integral
    is not a finite double.
    """
    if tail_cutoff < 0:
        raise ConfigError(f"tail cutoff must not be negative, got "
                          f"{tail_cutoff}")
    fisher = fisher_multi(m, gens, basis)
    value = 0.5 * (len(gens) * math.log1p(tail_cutoff) - fisher * tail_cutoff)
    if not math.isfinite(value):
        raise ConfigError(f"tail cutoff {tail_cutoff!r} puts chi* at "
                          f"{value}, past the largest double")
    return value


def covariance_distance(solution: ConjugateSolution,
                        shifted: ConjugateSolution) -> float:
    """L2 distance between ``solution`` moved by a time shift s and
    ``shifted``, the solution of the problem shifted by s (target letter
    at time s over the grid shifted by s).

    The basis is shift-covariant: shifting the words of the unshifted
    solve gives the words of the shifted one, position by position
    (letters of flow-fixed generators stay at time 0, and their Fock
    vectors do not depend on time).  So the distance is that of the two
    coefficient vectors through the shifted solve's Fock vectors.
    """
    return _basis_norm(shifted, solution.coefficients - shifted.coefficients)


def modular_covariance_check(
    m: ModelSpec, gen_id: str, s: TimeLike, basis: BasisSpec
) -> Residual:
    """:func:`covariance_distance` of the solve on ``basis`` and the solve
    of the problem shifted by ``s``, on the scale |xi| of the first."""
    ds = as_time(s)
    solution = solve_conjugate(m, gen_id, basis)
    shifted = solve_conjugate(m, gen_id, basis.shifted(ds), target_time=ds)
    return Residual(covariance_distance(solution, shifted),
                    math.sqrt(solution.xi_norm_sq))
