"""The identity battery: every exit criterion as one runnable check.

Each check returns a :class:`CheckResult` with its pass flag, the
tolerances it pinned, and enough numbers to see what happened.  The CLI
``suite`` subcommand and the acceptance test module both run exactly this
battery, so there is one source of truth for what "done" means.

A check is asserted unless it passes ``asserted=False``, which makes it a
report-only audit: its numbers are recorded but no identity is claimed.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import TimeLike, as_time, shift_word, x
from .brownian import expand_state
from .conjugate import (
    BasisSpec,
    covariance_distance,
    cramer_rao_audit,
    embedded_distance,
    self_adjoint_defect,
    solve_conjugate,
)
from .core_cp import factoriality_bound
from .model import (KMS_GRID, GeneratorSpec, ModelSpec, finite_max,
                    tracial_model, two_atom_model)
from .model import check_kms as kms_deviation
from .moments import brute_force_oracle, evaluate_state, evaluate_state_shifted
from .sampling import (HALF_GRID, TIME_DEN, core_residual,
                       insertion_residual, random_time, random_word)

__all__ = ["CheckResult", "SuiteContext", "ALL_CHECK_IDS", "run_suite"]

GRID3 = tuple(Fraction(k, 2) for k in range(-1, 2))

CATALAN = [1, 1, 2, 5, 14, 42]


@dataclass
class CheckResult:
    cid: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)
    #: a check is asserted unless it passes False, a report-only audit
    asserted: bool = True
    #: wall seconds the check took, set by :func:`run_suite`; not compared
    seconds: float = field(default=0.0, compare=False)

    def __post_init__(self):
        # a verdict built from numpy values is a numpy bool, which
        # ``passed is False`` does not match
        self.passed = bool(self.passed)
        self.asserted = bool(self.asserted)


@dataclass
class SuiteContext:
    """The models and seed of one suite run, and its solves so far."""

    seed: int
    two_atom: ModelSpec
    tracial: ModelSpec
    pair: ModelSpec
    v4: ModelSpec
    #: (model, generator, basis, target time) -> solution, see :meth:`solve`
    solves: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def fresh(cls, seed: int = 0) -> "SuiteContext":
        two_atom = two_atom_model()
        g = two_atom.generators[0]
        return cls(
            seed=seed,
            two_atom=two_atom,
            tracial=tracial_model(),
            pair=ModelSpec(tuple(GeneratorSpec(i, g.atoms) for i in "12")),
            v4=two_atom.scaled(4.0),
        )

    def rng(self, salt: int) -> random.Random:
        return random.Random(self.seed * 1000003 + salt)

    def solve(self, m: ModelSpec, gen: str, spec: BasisSpec,
              target_time: TimeLike = 0):
        """``solve_conjugate(m, gen, spec, target_time=target_time)``,
        solved once per context: the checks that ask for the same problem
        share one solution.  A model hashes by identity, and a target time
        by its value, so a shift of 0 is the unshifted problem."""
        t0 = as_time(target_time)
        key = (m, gen, spec, t0)
        sol = self.solves.get(key)
        if sol is None:
            sol = self.solves[key] = solve_conjugate(m, gen, spec,
                                                     target_time=t0)
        return sol


def _conjugate_case(ctx: SuiteContext, m: ModelSpec):
    gen = m.generators[0].gen_id
    sol = ctx.solve(m, gen, BasisSpec(HALF_GRID, 3))
    target = (x(gen, 0),)
    cmap = sol.coefficient_map()
    coeff = cmap.get(target, 0j)
    others = finite_max(
        (abs(c) for w, c in cmap.items() if w != target),
        "a coefficient magnitude",
    )
    return coeff, others, sol


def check_quasi_free_conjugate(ctx: SuiteContext) -> CheckResult:
    tol = 1e-8
    details = {}
    ok = True
    for label, m in (("two_atom", ctx.two_atom), ("tracial", ctx.tracial)):
        coeff, others, sol = _conjugate_case(ctx, m)
        details[label] = {
            "coeff_on_target": [coeff.real, coeff.imag],
            "max_other_coeff": others,
            "residual": sol.residual,
            "phi_star": sol.phi_star,
        }
        ok = ok and abs(coeff - 1.0) < tol and others < tol and sol.residual < tol
    details["tolerance"] = tol
    return CheckResult(
        "quasi_free_conjugate",
        "solved conjugate variable is the generator itself at time 0",
        ok,
        details,
    )


def check_wick_oracle(ctx: SuiteContext) -> CheckResult:
    tol = 1e-10
    # the words' tags count ticks of 1/TIME_DEN
    m = ctx.two_atom.with_time_den(TIME_DEN)
    gen = m.generators[0].gen_id
    rng = ctx.rng(2)
    words = [random_word(rng, [gen], 8, families=("X", "Y"))
             for _ in range(500)]
    etas: dict = {}  # the evaluator's; the oracle calls eta itself
    # a word drawn again is evaluated once: the maximum is over the same
    # values
    worst = finite_max(
        (abs(evaluate_state(m, w, etas) - brute_force_oracle(m, w))
         for w in dict.fromkeys(words)),
        "an oracle difference")
    tm = ctx.tracial
    tgen = tm.generators[0].gen_id
    catalan_worst = finite_max(
        (abs(evaluate_state(tm, (x(tgen, 0),) * (2 * k)) - CATALAN[k])
         for k in range(0, 6)),
        "a Catalan difference")
    ok = worst < tol and catalan_worst < tol
    return CheckResult(
        "wick_oracle",
        "recursive evaluator equals the exhaustive pairing oracle",
        ok,
        {
            "max_oracle_diff": worst,
            "max_catalan_diff": catalan_worst,
            "words": 500,
            "tolerance": tol,
        },
    )


def check_kms(ctx: SuiteContext) -> CheckResult:
    grid = KMS_GRID
    strip_tol = 1e-12
    word_tol = 1e-9
    # the strip of a generator depends on its atoms only, so each distinct
    # measure is scanned once (pair's generators are two_atom's); the
    # maximum is over the same deviations.  kms_deviation refuses a
    # deviation that is not finite
    measures: dict = {}
    for m in (ctx.two_atom, ctx.tracial, ctx.pair):
        for g in m.generators:
            measures.setdefault(g.atoms, g)
    max_dev = max(kms_deviation(g, grid) for g in measures.values())
    # the words' tags and the shift t count ticks of 1/TIME_DEN
    m = ctx.two_atom.with_time_den(TIME_DEN)
    gen = m.generators[0].gen_id
    rng = ctx.rng(3)
    devs = []
    etas: dict = {}
    for _ in range(50):
        a = random_word(rng, [gen], 3)
        b = random_word(rng, [gen], 3)
        t = random_time(rng)
        w = a + b
        lhs = evaluate_state_shifted(
            m, w, range(len(a), len(w)), complex(m.real_time(t)) + 1j, etas
        )
        rhs = evaluate_state(m, shift_word(b, t) + a, etas)
        devs.append(abs(lhs - rhs))
    word_dev = finite_max(devs, "a two-word deviation")
    ok = max_dev < strip_tol and word_dev < word_tol
    return CheckResult(
        "kms",
        "detailed balance and the analytic boundary identity hold",
        ok,
        {
            "max_eta_strip_deviation": max_dev,
            "strip_tolerance": strip_tol,
            "max_two_word_deviation": word_dev,
            "word_tolerance": word_tol,
            "grid_points": len(grid),
            "word_pairs": 50,
        },
    )


def check_insertion_identity(ctx: SuiteContext) -> CheckResult:
    tol = 1e-9
    m = ctx.two_atom
    worst, _ = insertion_residual(m, m.generators[0].gen_id, ctx.rng(4),
                                  100, 4)
    return CheckResult(
        "insertion_identity",
        "inserting the conjugate variable equals the two derivative pairings",
        worst < tol,
        {"max_residual": worst, "pairs": 100, "tolerance": tol},
    )


def check_brownian(ctx: SuiteContext) -> CheckResult:
    m = ctx.two_atom
    gen = m.generators[0].gen_id
    eta = m.generators[0].eta
    exact_ok = True
    for t in HALF_GRID:
        exp = expand_state(m, (x(gen, 0), x(gen, t)), 2)
        target = eta(t)
        exact_ok = exact_ok and (
            exp[0] == target
            and exp[1] == target
            and exp[Fraction(1, 2)] == 0
        )
    return CheckResult(
        "brownian",
        "noise expansion reproduces (1+eps) exactly",
        exact_ok,
        {"two_letter_identity_exact": exact_ok},
    )


def check_core_identity(ctx: SuiteContext) -> CheckResult:
    tol = 1e-9
    m = ctx.two_atom
    worst, _ = core_residual(m, m.generators[0].gen_id, ctx.rng(6), 100, 4)
    return CheckResult(
        "core_identity",
        "group-valued pairing of the embedded conjugate variable matches "
        "the tensor derivation",
        worst < tol,
        {"max_residual": worst, "core_words": 100, "tolerance": tol},
    )


def check_covariance_selfadjoint(ctx: SuiteContext) -> CheckResult:
    tol = 1e-8
    m = ctx.two_atom
    gen = m.generators[0].gen_id
    spec = BasisSpec(GRID3, 2)
    rng = ctx.rng(7)
    shifts = [Fraction(rng.randint(-4, 4), 4) for _ in range(10)]
    sol = ctx.solve(m, gen, spec)
    covs, adjs = [], [self_adjoint_defect(sol)]
    for s in shifts:
        sol_shifted = ctx.solve(m, gen, spec.shifted(s), s)
        covs.append(covariance_distance(sol, sol_shifted))
        adjs.append(self_adjoint_defect(sol_shifted))
    for model in (ctx.two_atom, ctx.tracial):
        g = model.generators[0].gen_id
        sol = ctx.solve(model, g, BasisSpec(HALF_GRID, 3))
        adjs.append(self_adjoint_defect(sol))
    worst_cov = finite_max(covs, "a covariance distance")
    worst_adj = finite_max(adjs, "a self-adjoint defect")
    ok = worst_cov < tol and worst_adj < tol
    return CheckResult(
        "covariance_selfadjoint",
        "solutions shift covariantly and are self-adjoint",
        ok,
        {
            "max_covariance_residual": worst_cov,
            "max_selfadjoint_defect": worst_adj,
            "shifts": [str(s) for s in shifts],
            "tolerance": tol,
        },
    )


def check_freeness_invariance(ctx: SuiteContext) -> CheckResult:
    tol = 1e-8
    m = ctx.pair
    spec = BasisSpec(GRID3, 2)
    sol_alone = solve_conjugate(m, "1", spec, b_gens=())
    sol_with = solve_conjugate(m, "1", spec, b_gens=("2",))
    dist = embedded_distance(sol_alone, sol_with)
    dphi = abs(sol_alone.phi_star - sol_with.phi_star)
    # every word over both generators' six letters: 1 + 6 + 36
    ok = dist < tol and dphi < tol and len(sol_with.basis_words) == 43
    return CheckResult(
        "freeness_invariance",
        "words of a free generator added to the basis leave the solution "
        "unchanged",
        ok,
        {
            "xi_distance": dist,
            "phi_star_delta": dphi,
            "basis_alone": len(sol_alone.basis_words),
            "basis_enlarged": len(sol_with.basis_words),
            "tolerance": tol,
        },
    )


def check_galerkin_monotonicity(ctx: SuiteContext) -> CheckResult:
    m = ctx.two_atom
    gen = m.generators[0].gen_id
    ladder = [
        BasisSpec((Fraction(0),), 1),
        BasisSpec((Fraction(0), Fraction(1, 2)), 2),
        BasisSpec(GRID3, 2),
        BasisSpec(HALF_GRID, 3),
    ]
    norms = [ctx.solve(m, gen, spec).xi_norm_sq for spec in ladder]
    bound = m.generators[0].eta(0).real
    slack = 1e-10
    nondecreasing = all(b >= a - slack for a, b in zip(norms, norms[1:]))
    bounded = all(v <= bound + 1e-9 for v in norms)
    return CheckResult(
        "galerkin_monotonicity",
        "solution norms grow with the basis and stay below the exact norm",
        nondecreasing and bounded,
        {"norms": norms, "upper_bound": bound, "rungs": len(ladder)},
    )


def check_cramer_rao(ctx: SuiteContext) -> CheckResult:
    tol = 1e-7
    spec = BasisSpec(GRID3, 2)
    gen = ctx.two_atom.generators[0].gen_id
    # the one-generator family's solve is the unshifted solve of
    # covariance_selfadjoint and the ladder's third rung
    one = cramer_rao_audit(ctx.two_atom, [gen], spec,
                           [ctx.solve(ctx.two_atom, gen, spec)])
    two = cramer_rao_audit(ctx.pair, ["1", "2"], spec)
    v4 = cramer_rao_audit(ctx.v4, [ctx.v4.generators[0].gen_id], spec)
    ok = (
        one.normalized
        and two.normalized
        and abs(one.lhs - one.rhs) < tol
        and abs(two.lhs - two.rhs) < tol
    )
    return CheckResult(
        "cramer_rao",
        "information-variance product equals n^2 for normalized models; "
        "other models are reported, not asserted",
        ok,
        {
            "n1": {"lhs": one.lhs, "rhs": one.rhs, "ratio": one.ratio},
            "n2": {"lhs": two.lhs, "rhs": two.rhs, "ratio": two.ratio},
            "v4_audit": {
                "lhs": v4.lhs,
                "rhs": v4.rhs,
                "ratio": v4.ratio,
                "note": v4.note,
                "asserted": v4.asserted,
            },
            "tolerance": tol,
        },
    )


def check_factoriality_bound(ctx: SuiteContext) -> CheckResult:
    value = factoriality_bound(0.5, 0.1)
    exact = value == 25.0
    symmetric = all(
        factoriality_bound(a, 0.37) == factoriality_bound(1.0 - a, 0.37)
        for a in (0.25, 0.125, 0.5)
    )
    return CheckResult(
        "factoriality_bound",
        "projection bound evaluates exactly and is symmetric in alpha",
        exact and symmetric,
        {"value_at_half_tenth": value, "exact_25": exact,
         "symmetry_exact": symmetric},
    )


# a check's id is its function name without the ``check_`` prefix; a list,
# since perfbench/tracing.py wraps the entries in place
_CHECKS = [
    check_quasi_free_conjugate,
    check_wick_oracle,
    check_kms,
    check_insertion_identity,
    check_brownian,
    check_core_identity,
    check_covariance_selfadjoint,
    check_freeness_invariance,
    check_galerkin_monotonicity,
    check_cramer_rao,
    check_factoriality_bound,
]

ALL_CHECK_IDS = [fn.__name__.removeprefix("check_") for fn in _CHECKS]


def run_suite(seed: int) -> list:
    """Run every check, in the order of ``ALL_CHECK_IDS``, and time each."""
    ctx = SuiteContext.fresh(seed)
    results = []
    for fn in _CHECKS:
        started = time.perf_counter()
        result = fn(ctx)
        result.seconds = time.perf_counter() - started
        results.append(result)
    return results
