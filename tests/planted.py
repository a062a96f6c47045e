"""Planted defects: each row of ``ROWS`` replaces one attribute,
``owner.name``, by ``planted(the original)``, and records what catches it.
``fails`` holds the ids of the suite checks whose ``passed`` is JSON false
at seeds 0-3, and ``exits`` the code of each ``--tol`` command that does
not exit 0 ("suite": 2 where the suite itself refuses).  A run that exits
2 prints an ``error:`` line holding the row's ``error``.  ``margins`` keeps
predicates on a suite check's ``details`` at every seed, or on a command's
``outputs``, keyed by check id or command.  ``test_planted_defects.py``
checks every row's whole outcome."""

import dataclasses
from fractions import Fraction

import numpy as np

from ncfisher import (brownian, conjugate, core_cp, derivation, moments,
                      sampling, suite)
from ncfisher.algebra import X_FAMILY, Y_FAMILY, NcPoly, _accumulate, y
from ncfisher.conjugate import ConjugateSolution
from ncfisher.model import GeneratorSpec
from ncfisher.moments import Residual
from oracles import full_kernel, pairable_kernel, row_by_row_table


@dataclasses.dataclass
class Row:
    owner: object
    name: str
    planted: object
    fails: str = ""
    exits: dict = dataclasses.field(default_factory=dict)
    error: str = "nan"
    margins: dict = dataclasses.field(default_factory=dict)


def kernel_at_minus_t(interval_states):
    def planted(m, letters, offsets=None, *args, **kwargs):
        letters = tuple(l._replace(time=-l.time) for l in letters)
        if offsets is not None:
            offsets = [-o for o in offsets]
        return interval_states(m, letters, offsets, *args, **kwargs)
    return planted


def nan_on_four_letters(evaluate):
    """``evaluate`` with every state of a 4-letter word planted NaN."""
    return lambda m, w, *rest, **kwargs: (
        complex("nan") if len(w) == 4 else evaluate(m, w, *rest, **kwargs))


def scaled_norm(solve):
    return lambda *args, **kwargs: [
        dataclasses.replace(s, xi_norm_sq=s.xi_norm_sq * (1 + 1e-6))
        for s in solve(*args, **kwargs)]


def scaled_z(solve):
    def planted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, z=sol.z * (1 + 1e-6))
    return planted


def dense_rows(rows) -> list:
    """The dense table of the kernel ``rows``, as rows of the pass."""
    return [dict(enumerate(row)) for row in row_by_row_table(rows)]


def without_first_kernel_entry(_):
    """The pass over the kernel it meets, less the first letter's first
    entry: the rows' dense table, read as the pass's rows are."""
    def planted(m, letters, offsets=None, etas=None):
        rows = pairable_kernel(m, letters, offsets)
        if rows:
            rows[0] = rows[0][1:]
        return dense_rows(rows)
    return planted


def adjacent_pairs_only(_):
    """The pass over the kernel of the adjacent pairs of one class alone,
    the pairs with nothing inside: the rows' dense table."""
    def planted(m, letters, offsets=None, etas=None):
        return dense_rows([[(k, c) for k, c in row if k == i + 1]
                           for i, row in enumerate(
                               full_kernel(m, letters, offsets))])
    return planted


def eta_map_at_minus_t(m, gen_id, p):
    eta = m.gen(gen_id).eta
    return {t: c * eta(m.real_time(-t)) for t, c in p.items()}


def nan_eta_map_term(m, gen_id, p):
    out = eta_map_at_minus_t(m, gen_id, p)
    return {**out, 10**6: complex("nan")} if out else {}


def short_prefix_read(states):
    def planted(word, phi, gen_id):
        phi = list(phi)
        phi[1] = {j + 1: v for j, v in phi[1].items()}
        return states(word, phi, gen_id)
    return planted


def dropped_last_occurrence(gen_id, p):
    out = {}
    for w, c in p._terms.items():
        at = [k for k, l in enumerate(w)
              if l.family == X_FAMILY and l.gen == gen_id]
        for k in at[:-1]:
            _accumulate(out, w[:k] + (y(gen_id, w[k].time),) + w[k + 1:], c)
    return NcPoly._raw(out)


def partner_at_minus_t(differentiate):
    return lambda gen_id, p: NcPoly(
        (tuple(y(l.gen, -l.time) if l.family == Y_FAMILY else l for l in w),
         c)
        for w, c in differentiate(gen_id, p).terms.items())


def unpairable_by_letter(_):
    """The class scan of :mod:`ncfisher.moments` with a stack of whole
    letters, times included: a pairable word whose partners differ in
    time reads 0."""
    def planted(letters):
        moments._check_length(len(letters))
        stack = []
        for l in letters:
            if stack and stack[-1] == l:
                stack.pop()
            else:
                stack.append(l)
        return bool(stack)
    return planted


def truncated_prune(prune):
    def planted(vecs, guess):
        kept, q, r, rounds = prune(vecs, guess)
        return kept[:2], q[:, :2], r[:2, :2], rounds
    return planted


def phi_star_over_v_squared(solve):
    return lambda m, targets, *args, **kwargs: [
        dataclasses.replace(s, phi_star=s.xi_norm_sq / m.gen(g).v**2)
        for g, s in zip(targets, solve(m, targets, *args, **kwargs))]


ROWS = {
    # a kernel that evaluates eta(-t) for eta(t): every time negated
    "kernel_eta_at_minus_t": Row(
        moments, "interval_states", kernel_at_minus_t,
        fails="brownian core_identity kms wick_oracle",
        exits={"moment": 1, "verify-core": 1}),
    # max(worst, nan) kept the worst so far: these checks used to pass
    "nan_oracle_states": Row(
        suite, "evaluate_state", nan_on_four_letters,
        exits={"suite": 2}, error="oracle difference is nan"),
    "nan_kms_states": Row(
        suite, "evaluate_state_shifted", nan_on_four_letters,
        exits={"suite": 2}, error="two-word deviation is nan"),
    "nan_covariance_distance": Row(
        suite, "covariance_distance", lambda _: lambda *a: float("nan"),
        exits={"suite": 2}, error="covariance distance is nan"),
    # xi_norm_sq off by 1e-6 puts n1.lhs past cramer_rao's 1e-7 tolerance
    "scaled_norm": Row(
        conjugate, "_solve", scaled_norm,
        fails="cramer_rao galerkin_monotonicity",
        exits={"cramer-rao": 1},
        margins={"cramer_rao":
                 lambda d: abs(d["n1"]["lhs"] - 1.000001) <= 1e-9}),
    # the reduced solution z, and so every coefficient, off by 1 + 1e-6
    "scaled_z": Row(
        suite, "solve_conjugate", scaled_z,
        fails="quasi_free_conjugate",
        margins={"quasi_free_conjugate":
                 lambda d: d["two_atom"]["coeff_on_target"][0] - 1 > 9e-7}),
    # the interval pass without the first letter's first kernel entry;
    # measured: max_oracle_diff 3.42 at seed 0
    "dropped_kernel_entry": Row(
        moments, "interval_states", without_first_kernel_entry,
        fails="brownian core_identity insertion_identity kms wick_oracle",
        exits={"moment": 1, "verify-lemma2": 1, "verify-core": 1},
        margins={"wick_oracle": lambda d: d["max_oracle_diff"] > 1}),
    # eta with the sign of its exponent flipped: sum w exp(-2 pi i z x);
    # measured: strip deviation 1.50, two-word deviation 2.52 at seed 0
    "eta_sign": Row(
        GeneratorSpec, "eta", lambda eta: lambda g, z: eta(g, -z),
        fails="covariance_selfadjoint cramer_rao galerkin_monotonicity kms "
              "quasi_free_conjugate",
        exits={"check-kms": 1, "conjugate": 1, "cramer-rao": 1},
        margins={"kms": lambda d: d["max_eta_strip_deviation"] > 1
                 and d["max_two_word_deviation"] > 1}),
    # an eta map that multiplies U_t by eta at the real time of -t;
    # measured: max_residual 0.85 to 1.31 at seeds 0 to 3
    "eta_map_at_minus_t": Row(
        core_cp, "eta_map", lambda _: eta_map_at_minus_t,
        fails="core_identity",
        exits={"verify-core": 1},
        margins={"core_identity": lambda d: d["max_residual"] > 0.5,
                 "verify-core": lambda o: o["max_relative_residual"] > 1e-3}),
    # the core identity's lookup reads each prefix w[:k] one interval
    # short: from phi[1, k) of zeta* Q = X_0 w, where it reads phi[1, k+1)
    "short_prefix_read": Row(
        core_cp, "_interval_states", short_prefix_read,
        fails="core_identity",
        exits={"verify-core": 1},
        margins={"core_identity": lambda d: d["max_residual"] > 0.5,
                 "verify-core": lambda o: o["max_relative_residual"] > 1e-3}),
    # a basis over the target's letters alone, whatever b_gens asks for
    "ignored_b_gens": Row(
        conjugate, "enumerate_basis", lambda enumerate_basis: (
            lambda m, target_gen, spec, b_gens=(), target_time=0:
            enumerate_basis(m, target_gen, spec, (), target_time)),
        fails="cramer_rao freeness_invariance",
        margins={"freeness_invariance":
                 lambda d: d["basis_enlarged"] == d["basis_alone"] == 13}),
    # the partner paired with the letters of every generator, as if each
    # letter were one of the target's
    "all_generator_rhs": Row(
        conjugate, "_rhs", lambda rhs: lambda m, target_gen, alphabet, *a: rhs(
            m, target_gen, [l._replace(gen=target_gen) for l in alphabet],
            *a),
        fails="cramer_rao freeness_invariance",
        margins={"freeness_invariance": lambda d: d["xi_distance"] > 0.5}),
    # a Leibniz rule that skips the last occurrence of the generator;
    # measured: max_residual 3.20 to 4.56 at seeds 0 to 3
    "dropped_occurrence": Row(
        derivation, "differentiate", lambda _: dropped_last_occurrence,
        fails="insertion_identity",
        exits={"verify-lemma2": 1},
        margins={"insertion_identity": lambda d: d["max_residual"] > 1}),
    # a solution not shifted with its target: the partner paired at time 0
    # whatever the target time, so a shifted solve projects X_0 onto the
    # shifted basis; measured: max_covariance_residual 0.51 to 0.68
    "unshifted_rhs": Row(
        conjugate, "_rhs", lambda rhs: lambda m, g, alphabet, phi, t0: rhs(
            m, g, alphabet, phi, Fraction(0)),
        fails="covariance_selfadjoint",
        exits={"covariance": 1},
        margins={"covariance_selfadjoint":
                 lambda d: d["max_covariance_residual"] > 0.25}),
    # a pass that pairs only letters with nothing inside, the effect of a
    # partner rule that counts a class's letters with no parity sign;
    # measured: max_oracle_diff 2.47 to 3.42 at seeds 0 to 3
    "unsigned_signature": Row(
        moments, "interval_states", adjacent_pairs_only,
        fails="core_identity kms wick_oracle",
        exits={"moment": 1, "verify-core": 1},
        margins={"wick_oracle": lambda d: d["max_oracle_diff"] > 1}),
    # a derivation that puts the partner letter at -t for t
    "partner_at_minus_t": Row(
        derivation, "differentiate", partner_at_minus_t,
        fails="insertion_identity",
        exits={"verify-lemma2": 1},
        margins={"verify-lemma2":
                 lambda o: o["max_relative_residual"] > 1e-3}),
    # xi's coefficients rotated by 1 + 1e-6j
    "rotated_coefficients": Row(
        ConjugateSolution, "coefficients", lambda coefficients: property(
            lambda sol: coefficients.func(sol) * (1 + 1e-6j)),
        fails="covariance_selfadjoint quasi_free_conjugate",
        exits={"conjugate": 1}),
    # xi scaled by 1 + 1e-6: every linear solve is off by that factor
    "scaled_xi": Row(
        np.linalg, "solve",
        lambda solve: lambda a, b: solve(a, b) * (1 + 1e-6),
        fails="cramer_rao galerkin_monotonicity quasi_free_conjugate",
        exits={"cramer-rao": 1}),
    # the pivot order measures letter times from 0, not from the target
    # time, so the shifted problem's words are not the shifted words
    "pivot_from_time_zero": Row(
        conjugate, "_letter_pivot_key",
        lambda key: lambda gen, tick, target_gen, tick0: key(
            gen, tick, target_gen, 0),
        fails="covariance_selfadjoint",
        exits={"covariance": 1}),
    "nan_core_residual": Row(
        sampling, "verify_core_identity",
        lambda _: lambda *a: Residual(float("nan"), float("nan")),
        exits={"suite": 2, "verify-core": 2}),
    "nan_eta_off_the_real_line": Row(
        GeneratorSpec, "eta", lambda eta: lambda g, z: (
            complex("nan") if complex(z).imag else eta(g, z)),
        exits={"suite": 2, "check-kms": 2}),
    # eta at -t breaks the identity, and a NaN term after the real ones,
    # far off every drawn time, never comes first in the difference of
    # the two sides: ``max`` passed over it, and verify-core exited 1
    "nan_eta_map_term": Row(
        core_cp, "eta_map", lambda _: nan_eta_map_term,
        exits={"suite": 2, "verify-core": 2}),
    # the factoriality bound without its square: 2 alpha (1-alpha) / delta
    "unsquared_bound": Row(
        suite, "factoriality_bound",
        lambda _: lambda alpha, delta: 2 * alpha * (1 - alpha) / delta,
        fails="factoriality_bound"),
    # blind spots: every model the suite asserts on has mass 1, and the
    # brownian check reads only the order-1 coefficient, C(1, 1) = 1
    "phi_star_over_v_squared": Row(
        conjugate, "_solve", phi_star_over_v_squared),
    "no_binomial": Row(brownian, "comb", lambda _: lambda n, k: 1),
    # xi's coefficients scaled by 1 + 1e-6, as every command prints them:
    # only the suite's reading of the coefficient on the target fails;
    # conjugate judges xi - xi*, which a uniform scaling keeps at rounding
    "scaled_coefficients": Row(
        ConjugateSolution, "coefficients", lambda coefficients: property(
            lambda sol: coefficients.func(sol) * (1 + 1e-6)),
        fails="quasi_free_conjugate"),
    # the class scan comparing whole letters, times included: a word whose
    # partners differ in time reads 0 where the state reads it, not where
    # the pass does (moment, core_identity); measured: max_oracle_diff
    # 2.98 to 3.42 at seeds 0 to 3
    "unpairable_by_letter": Row(
        moments, "_unpairable", unpairable_by_letter,
        fails="brownian insertion_identity kms wick_oracle",
        exits={"verify-lemma2": 1},
        margins={"wick_oracle": lambda d: d["max_oracle_diff"] > 1}),
    # the prune keeps only the empty word and the target letter;
    # measured: n2.lhs 2 against rhs 4 at seeds 0 to 3
    "truncated_prune": Row(
        conjugate, "_prune_independent", truncated_prune,
        fails="cramer_rao",
        margins={"cramer_rao": lambda d: abs(d["n2"]["lhs"] - 2) < 1e-9}),
}


def plant(monkeypatch, name):
    """Apply the plant of ``ROWS[name]`` through ``monkeypatch``."""
    row = ROWS[name]
    monkeypatch.setattr(row.owner, row.name,
                        row.planted(getattr(row.owner, row.name)))


def applier(name, alias):
    """``plant(monkeypatch, name)`` as a function of ``monkeypatch`` named
    ``alias``: a parametrized test id prints that name."""
    def apply(monkeypatch):
        plant(monkeypatch, name)
    apply.__name__ = alias
    return apply
