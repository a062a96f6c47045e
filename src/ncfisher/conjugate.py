"""Galerkin solver for conjugate variables and the derived functionals.

The defining data of the conjugate variable of a generator are the pairings
b_P = <partner, d(P)> over polynomials P; the solver truncates both trial
and test space to the span of a finite word basis, so the solution is the
orthogonal projection of the true conjugate variable onto that span
whenever the latter exists.

Three numerical facts shape the implementation:

* The basis is every word over one alphabet up to the degree, so
  :func:`ncfisher.moments.fock_vectors` builds the vectors W.Omega in the
  truncated free Fock space degree by degree, all letters at once, and the
  Gram matrix is V^H V.  By freeness the partner letter of b_W pairs only
  with the inserted partner, so b_W = sum over target letters W_k at time
  t_k of eta(t_k - t0) state(W[:k]) state(W[k+1:]), on each degree a sum
  of tensor products of state values (row 0 of V) and the kernel on the
  alphabet.  The L2 audits (``self_adjoint_defect``, the covariance and
  freeness distances) are norms of Fock vectors V c too, with V rebuilt
  from the basis alphabet; the consistency of V with the single-word
  interval pass of :mod:`ncfisher.moments` is pinned by the tests.
* Gram matrices of time-translate words are not merely ill-conditioned but
  exactly rank-deficient for finitely-atomic covariances (translates of a
  k-atom generator span a k-dimensional one-particle space, and the words
  span at most the Fock dimension).  A plain minimum-norm pseudo-inverse
  would therefore smear an exact solution over linearly dependent words.
  The solver first prunes the basis to a maximal independent subset of
  the Fock vectors, greedily in a deterministic order that puts the
  target letter first (degree ascending, then distance of the letter
  times from the target time).  In exact arithmetic that keeps the words
  over the first k letters of each generator, k its atom count, so the
  prune guesses those and confirms the guess with one QR and one masked
  projection, correcting it window by window where rounding says
  otherwise; the solve is on that QR, V_kept = QR.  Vector-level outputs
  (residual, norms, the projection itself) do not depend on the order;
  only the reported coefficients do, and with it an exactly representable
  solution is reported concentrated.
* The defining equations V_kept^H xi = b are solved as R^H z = b and
  R c = z with xi = Q z, never through the normal equations V_kept^H V_kept,
  so the working condition is that of R, the square root of the Gram's,
  and no direction the prune kept is dropped afterwards.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import Letter, TimeLike, as_time, x
from .model import ConfigError, ModelSpec
from .moments import fock_dimension, fock_vectors

__all__ = [
    "BasisError",
    "DegenerateGramError",
    "GridError",
    "BasisSpec",
    "ConjugateSolution",
    "enumerate_basis",
    "solve_conjugate",
    "solve_family",
    "self_adjoint_defect",
    "embedded_distance",
    "fisher_multi",
    "CramerRaoReport",
    "cramer_rao_audit",
    "chi_star",
    "modular_covariance_check",
]

PRUNE_RTOL = 1e-10       # squared residual over squared norm below which
                         # a word counts as dependent on its predecessors
MAX_BASIS_ENTRIES = 2_000_000  # words times Fock dimension of one solve


class BasisError(ValueError):
    """Invalid basis specification for the requested solve."""


class DegenerateGramError(RuntimeError):
    """No basis word survived the rank screen."""


class GridError(ValueError):
    """Invalid quadrature grid."""


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


def _letter_pivot_key(letter: Letter, target_gen: str, target_time: Fraction):
    return (
        letter.gen != target_gen,
        letter.gen,
        abs(letter.time - target_time),
        letter.time,
    )


def enumerate_basis(
    m: ModelSpec,
    target_gen: str,
    spec: BasisSpec,
    b_gens: Sequence[str] = (),
    target_time: TimeLike = 0,
) -> list:
    """Basis words in pivot order: the empty word, then degree by
    degree with target-generator letters nearest the target time first.

    Letters of flow-fixed generators are collapsed to time 0 before the
    words are formed, so each such generator contributes one letter.
    Raises :class:`BasisError` before enumerating when the word count
    times the Fock dimension exceeds ``MAX_BASIS_ENTRIES``.
    """
    t0 = as_time(target_time)
    gens = list(dict.fromkeys([target_gen, *b_gens]))
    for g in gens:
        m.gen(g)  # raises ConfigError for unknown ids
    if t0 not in spec.time_grid:
        raise BasisError(
            f"target time {t0} must belong to the basis time grid"
        )
    alphabet = [x(g, t) for g in gens for t in spec.time_grid]
    alphabet.sort(key=lambda l: _letter_pivot_key(l, target_gen, t0))
    tracial = {g.gen_id for g in m.generators if g.is_tracial}
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
    words: list = [()]
    for d in range(1, spec.max_degree + 1):
        words.extend(itertools.product(alphabet, repeat=d))
    return words


@dataclass(frozen=True, eq=False)
class ConjugateSolution:
    """Solved Galerkin data for one conjugate-variable problem.

    ``fock_dim`` is the dimension of the truncated Fock space the basis
    words live in (an upper bound on ``len(kept)``); ``gram_condition`` is
    the condition number of the kept words' Gram, cond(R)^2 from the
    singular values of the triangular factor, with nothing cut off.
    ``prune_rounds`` counts the rounds the prune took: 1 when its guess
    held, more when words near the threshold overturned it.
    """

    target_gen: str
    target_time: Fraction
    basis_words: tuple
    kept: tuple
    coefficients: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    residual: float
    xi_norm_sq: float
    phi_star: float
    gram_condition: float
    fock_dim: int
    prune_rounds: int

    def coefficient_map(self) -> dict:
        return {
            w: c
            for w, c in zip(self.basis_words, self.coefficients)
            if c != 0
        }


def _prune_independent(vecs: np.ndarray, guess: np.ndarray) -> tuple:
    """Greedy prune of the columns of ``vecs``: column j is kept iff its
    squared residual against the kept columns before it exceeds
    PRUNE_RTOL times its own squared norm, and no column after the one
    that completes the space is kept.

    ``guess`` is a boolean mask of the columns expected to be kept.  A
    round decides a window of the open columns.  It projects the guessed
    columns up to the window's end (cut to the space's dimension) and the
    window's other columns off the factor of the final ones, and extends
    that factor by a QR of the guessed ones (block Gram-Schmidt, twice).
    A guessed column's residual against the guessed columns before it is
    then on R's diagonal, and one masked projection gives the others'.
    Where a decision differs from the guess, the decisions before the
    first difference are final, that column takes its computed decision,
    the computed decisions after it are the next guess, and the next
    window is as long as the run the guess held.  A window without a
    difference is final, and the next one is twice as long.  The first
    window holds every column, so a right guess is confirmed in one
    round, and each round makes at least one more decision final.  A
    round reads no column after the guessed one that completes the space.

    Returns ``(kept, Q, R, rounds)`` with ``vecs[:, kept] = Q R``, Q
    orthonormal and R upper triangular with a real positive diagonal.
    """
    dim, n = vecs.shape
    guess = np.array(guess, dtype=bool)
    q = np.zeros((dim, dim), dtype=complex)  # columns of the factor
    qh = np.zeros((dim, dim), dtype=complex)  # their conjugates, as rows
    r = np.zeros((dim, dim), dtype=complex)
    final = 0  # the decisions of the columns before this one are final
    p = 0  # q[:, :p] r[:p, :p] factors the final kept columns
    width = n  # how many open columns a round decides
    rounds = 0
    while True:
        rounds += 1
        kept = np.flatnonzero(guess)[:dim]
        end = kept[-1] + 1 if len(kept) == dim else n
        stop = min(end, final + width)
        # the guessed columns before ``stop`` that are not final, then the
        # window's other columns, projected off the final columns
        new = kept[p:np.searchsorted(kept, stop)]
        m = len(new)
        k = p + m
        v = vecs[:, final:stop]
        other = np.flatnonzero(~guess[final:stop])
        b = np.hstack([vecs[:, new], v[:, other]])
        c1 = qh[:p] @ b
        b -= q[:, :p] @ c1
        # factor the guessed ones
        q2, r2 = np.linalg.qr(b[:, :m])
        if p:
            # project Q off the final columns once more and QR it again, so
            # that Q stays orthonormal however close the guessed columns
            # are to each other (block Gram-Schmidt twice)
            c2 = qh[:p] @ q2
            q2, r3 = np.linalg.qr(q2 - q[:, :p] @ c2)
            c1[:, :m] += c2 @ r2
            r2 = r3 @ r2
        diag = r2.diagonal()
        size = np.abs(diag)
        phase = np.ones_like(diag)
        np.divide(diag, size, out=phase, where=size > 0)
        q[:, p:k] = q2 * phase
        qh[p:k] = q[:, p:k].T.conj()
        r[:p, p:k] = c1[:, :m]
        r[p:k, p:k] = r2 * phase.conj()[:, None]
        r[range(p, k), range(p, k)] = size
        # residual of each open column against the guessed columns before
        # it: the diagonal of R for a guessed column, |v - Q Q^H v|^2 for
        # another (|v|^2 - |Q^H v|^2 would carry a rounding error of order
        # eps |v|^2 into a residual near PRUNE_RTOL |v|^2)
        residual = np.empty(stop - final)
        guessed = new >= final
        residual[new[guessed] - final] = size[guessed] ** 2
        w = b[:, m:]
        c = qh[p:k] @ w
        c[new[:, None] >= final + other] = 0
        w -= q[:, p:k] @ c
        residual[other] = (w.real**2 + w.imag**2).sum(axis=0)
        norm_sq = (v.real**2 + v.imag**2).sum(axis=0)
        decided = residual > PRUNE_RTOL * norm_sq
        differ = np.flatnonzero(decided != guess[final:stop])
        if len(differ):
            j = final + differ[0]
            guess[j:stop] = decided[differ[0]:]
            final, p = j + 1, p + np.searchsorted(new, j)
            width = max(1, differ[0])
        elif stop < end:
            final, p = stop, k
            width *= 2
        else:
            return kept.tolist(), q[:, :k], r[:k, :k], rounds


def solve_conjugate(
    m: ModelSpec,
    target_gen: str,
    basis: BasisSpec,
    b_gens: Sequence[str] = (),
    target_time: TimeLike = 0,
) -> ConjugateSolution:
    """Solve the truncated defining equations of the conjugate variable.

    Builds the Fock vectors of the basis words and from them
    b_P = <partner, d(P)> for every basis word P, prunes the basis to a
    maximal independent subset with its factor V_kept = QR, and solves
    R^H z = b[kept], R c = z; the solution is xi = Q z, so
    xi_norm_sq = |z|^2.  The residual is the Euclidean norm of the
    unmatched part of the defining data over the full basis, phi_star the
    solution's squared norm normalized by the target's second moment, and
    ``gram_condition`` cond(R)^2.
    """
    t0 = as_time(target_time)
    words = enumerate_basis(m, target_gen, basis, b_gens, t0)
    n = len(words)
    alphabet = [w[0] for w in words if len(w) == 1]
    vecs = fock_vectors(m, alphabet, basis.max_degree)
    gen = m.gen(target_gen)

    # b on the degree-d words is sum_k phi_k (x) e (x) phi_{d-1-k}: phi_k
    # holds the state values of the degree-k words (row 0 of V, from
    # column 1 + a + ... + a^(k-1) on) and e the kernel at target letters
    a = len(alphabet)
    e = np.array([gen.eta(l.time - t0) if l.gen == target_gen else 0
                  for l in alphabet], dtype=complex)
    phi = [vecs[0, fock_dimension(a, d - 1):fock_dimension(a, d)]
           for d in range(basis.max_degree + 1)]
    b = np.concatenate([
        sum(((phi[k][:, None, None] * e[:, None] * phi[d - 1 - k]).ravel()
             for k in range(d)), np.zeros(a**d, dtype=complex))
        for d in range(basis.max_degree + 1)
    ])

    # in exact arithmetic the prune keeps the words over the first k
    # letters of each generator, k its atom count: those letters span its
    # one-particle space, and a word with a later letter is a combination
    # of words that come before it
    first = np.array([
        sum(o.gen == l.gen for o in alphabet[:i]) < len(m.gen(l.gen).atoms)
        for i, l in enumerate(alphabet)
    ])
    masks = [np.ones(1, dtype=bool)]
    for _ in range(basis.max_degree):
        masks.append(np.multiply.outer(first, masks[-1]).ravel())
    guess = np.concatenate(masks)

    rhs = b.conjugate()

    kept, q, r, rounds = _prune_independent(vecs, guess)
    if not kept:
        raise DegenerateGramError("no basis word survives the rank screen")

    # numpy has no triangular solver; LU on the triangular factors is
    # still backward stable
    z = np.linalg.solve(r.conj().T, rhs[kept])
    coefficients = np.zeros(n, dtype=complex)
    coefficients[kept] = np.linalg.solve(r, z)
    residual = float(np.linalg.norm(vecs.conj().T @ (q @ z) - rhs))
    xi_norm_sq = float(np.vdot(z, z).real)
    return ConjugateSolution(
        target_gen=target_gen,
        target_time=t0,
        basis_words=tuple(words),
        kept=tuple(kept),
        coefficients=coefficients,
        rhs=b,
        residual=residual,
        xi_norm_sq=xi_norm_sq,
        phi_star=xi_norm_sq / gen.v,
        gram_condition=float(np.linalg.cond(r) ** 2),
        fock_dim=vecs.shape[0],
        prune_rounds=rounds,
    )


def solve_family(
    m: ModelSpec, gens: Sequence[str], basis: BasisSpec
) -> list:
    """One solution per generator of the family, in order, each generator
    solved against the words of all the others; ids must not repeat."""
    gens = list(gens)
    if not gens:
        raise ConfigError("at least one generator is required")
    if len(set(gens)) < len(gens):
        raise ConfigError(f"generator ids repeat in {gens}")
    return [
        solve_conjugate(m, g, basis, b_gens=tuple(h for h in gens if h != g))
        for g in gens
    ]


def _basis_norm(
    m: ModelSpec, solution: ConjugateSolution, coefficients: np.ndarray
) -> float:
    """L2 norm of the polynomial with ``coefficients`` on the solution's
    basis words: the norm of its Fock vector V c, with V rebuilt from the
    basis's degree-1 words (its alphabet) rather than kept on the
    solution."""
    words = solution.basis_words
    alphabet = [w[0] for w in words if len(w) == 1]
    vecs = fock_vectors(m, alphabet, len(words[-1]))
    return float(np.linalg.norm(vecs @ coefficients))


def self_adjoint_defect(m: ModelSpec, solution: ConjugateSolution) -> float:
    """L2 norm of xi - xi*; small for every well-posed solve.

    Letters are self-adjoint, so the adjoint of a word is the word reversed
    and the basis is closed under it: with ``rev`` the reversal permutation
    of basis indices, xi - xi* has coefficients c - conj(c)[rev] and its L2
    norm is that of its Fock vector V (c - conj(c)[rev]).
    """
    words = solution.basis_words
    index = {w: i for i, w in enumerate(words)}
    rev = [index[w[::-1]] for w in words]
    c = solution.coefficients
    return _basis_norm(m, solution, c - c[rev].conj())


def embedded_distance(
    m: ModelSpec, inner: ConjugateSolution, outer: ConjugateSolution
) -> float:
    """L2 distance between two solutions when every basis word of ``inner``
    is a basis word of ``outer``: ``inner``'s coefficients are scattered
    onto ``outer``'s words, and the difference is measured through
    ``outer``'s Fock vectors."""
    index = {w: i for i, w in enumerate(outer.basis_words)}
    c = np.zeros(len(outer.basis_words), dtype=complex)
    c[[index[w] for w in inner.basis_words]] = inner.coefficients
    return _basis_norm(m, outer, c - outer.coefficients)


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
    xi_norm_sqs: tuple
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
    m: ModelSpec, gens: Sequence[str], basis: BasisSpec
) -> CramerRaoReport:
    gens = list(gens)
    sols = tuple(solve_family(m, gens, basis))
    norms = [sol.xi_norm_sq for sol in sols]
    second_moment = math.fsum(m.gen(g).v for g in gens)
    phi_star_tuple = math.fsum(norms) / second_moment
    lhs = phi_star_tuple * second_moment**2
    n = len(gens)
    rhs = float(n * n)
    normalized = all(abs(m.gen(g).v - 1.0) <= m.tolerance for g in gens)
    return CramerRaoReport(
        n=n,
        xi_norm_sqs=tuple(norms),
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
    eps_grid: Sequence[float],
    tail_cutoff: float,
    basis: BasisSpec,
) -> float:
    """Entropy-style quadrature along the matched-covariance perturbation.

    At parameter t the perturbed family is realized inside the model class
    as the generators with all weights scaled by (1 + t); the integrand is
    (n/(1+t) - Fisher(t)) / 2, integrated by trapezoid over ``eps_grid``.
    The tail holds the last computed Fisher value constant on
    [grid end, tail_cutoff] and integrates n/(1+t) there exactly; nothing
    is added beyond ``tail_cutoff``.
    """
    gens = list(gens)
    if not gens:
        return 0.0
    grid = [float(t) for t in eps_grid]
    if not grid or grid[0] != 0.0:
        raise GridError("eps grid must start at 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise GridError("eps grid must be strictly increasing")
    if tail_cutoff < grid[-1]:
        raise GridError("tail cutoff must not precede the grid end")
    n = len(gens)
    fishers = [
        fisher_multi(m.scaled(1.0 + t), gens, basis) for t in grid
    ]
    integrand = [0.5 * (n / (1.0 + t) - f) for t, f in zip(grid, fishers)]
    quad = math.fsum(
        0.5 * (integrand[i] + integrand[i + 1]) * (grid[i + 1] - grid[i])
        for i in range(len(grid) - 1)
    )
    t_end = grid[-1]
    tail = 0.5 * (
        n * math.log((1.0 + tail_cutoff) / (1.0 + t_end))
        - fishers[-1] * (tail_cutoff - t_end)
    )
    return quad + tail


def modular_covariance_check(
    m: ModelSpec, gen_id: str, s: TimeLike, basis: BasisSpec,
    b_gens: Sequence[str] = (),
) -> float:
    """L2 distance between the shifted solution and the solution of the
    shifted problem (target letter at time s over the shifted grid).

    The basis is shift-covariant: shifting the words of the unshifted
    solve gives the words of the shifted one, position by position
    (letters of flow-fixed generators stay at time 0, and their Fock
    vectors do not depend on time).  So the distance is that of the two
    coefficient vectors through the shifted solve's Fock vectors.
    """
    ds = as_time(s)
    sol0 = solve_conjugate(m, gen_id, basis, b_gens)
    sol1 = solve_conjugate(
        m, gen_id, basis.shifted(ds), b_gens, target_time=ds
    )
    return _basis_norm(m, sol1, sol0.coefficients - sol1.coefficients)
