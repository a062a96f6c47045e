"""Batch front door: model ingestion, command dispatch, JSON reports.

Reports go to stdout as JSON (sorted keys, lossless float round-trip);
a one-line human summary goes to stderr.  Exit codes: 0 when every
asserted check passed, 1 on an assertion failure, 2 on configuration or
usage errors, inputs over a size limit, arithmetic that overflows a
double and a stdout that cannot take the report (a closed pipe, a full
disk).

Each command runs in a process of its own, so a command imports only
the modules it runs: this module imports at its top what parsing,
dispatch and every model command need (``algebra``, ``model``,
``moments``), and each handler imports the solver, the battery, the
core layer or numpy when it is called.  Only the solver commands and
``suite`` compile the Galerkin solver and load numpy, and no command
loads OpenSSL: the model digest takes SHA-256 from the interpreter's own
module, not from ``hashlib``.  A command that does not load numpy loads
neither ``dataclasses`` nor ``typing`` either: ``dataclasses`` brings
``inspect`` (with ``ast``, ``dis`` and ``tokenize``), and with
``typing`` that was about a quarter of such a process's time, so the
values it builds are plain classes and a letter is a
``collections.namedtuple``.  numpy loads ``inspect`` itself, so the
solver and the battery keep their dataclasses.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

try:
    # hashlib loads OpenSSL, which is heavy to start; the interpreter's
    # own SHA-256 gives the same digest (3.12 on: _sha2, before: _sha256)
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .algebra import Word, Y_FAMILY, word_str, x, y
from .model import (
    ConfigError,
    KMS_GRID,
    ModelSpec,
    check_kms,
    load_model,
    two_atom_model,
)
from .moments import (
    brute_force_oracle,
    evaluate_state_detailed,
    MAX_WORD_LETTERS,
    ORACLE_MAX_LETTERS,
    Residual,
)

__all__ = ["build_parser", "run", "main"]

_WORD_TOKEN = re.compile(r"^([XY])([A-Za-z0-9_]*):(-?[0-9./]+)$")

#: largest phase |t| x, in turns, of a time tag t at the model's fastest
#: frequency x; beyond it the double of t x has too few bits after the
#: point for the exact identities (covariance, adjoint) to hold.  On the
#: default model the largest ``covariance --shift`` it admits, 594,062,
#: leaves a residual of 5e-11; a bound of 2**24 turns admits a residual
#: of 1.3e-9, a false FAIL
MAX_PHASE_TURNS = 2**16

#: most random inputs one ``verify-lemma2`` or ``verify-core`` run draws
MAX_CHECK_COUNT = 10_000

#: largest ``verify-lemma2 --degree``: a word p xi q has up to 2d + 1 letters
MAX_LEMMA2_DEGREE = (MAX_WORD_LETTERS - 1) // 2

#: largest ``verify-core --x-degree``: a word zeta* Q has up to d + 1 letters
MAX_CORE_DEGREE = MAX_WORD_LETTERS - 1

#: most work one ``verify-lemma2`` or ``verify-core`` run may ask for:
#: ``--count`` times the work of one draw, counted in steps of the cubic
#: interval pass.  256**4 admits one ``verify-lemma2`` draw at its largest
#: degree and 128 ``verify-core`` draws at theirs.  The slowest draws
#: measured on a 2-core x86-64 host (Python 3.11): 29 s for
#: ``verify-lemma2`` (``--seed 1072``: p and q of 126 and 127 letters;
#: 37 s on a slower run of the same host) and 0.2 s for ``verify-core``
#: (``--seed 2464``: Q of 255 letters), so the slowest admitted
#: ``verify-core`` run is at most 128 such draws, about 26 s; the default
#: runs ask for at most 1/6,500 of the limit and the heaviest benchmark run
#: (``verify-lemma2 --degree 6``, count 100) for 1/1,500.
MAX_CHECK_WORK = 256**4


def lemma2_draw_work(degree: int) -> int:
    """Work bound of one ``verify-lemma2`` draw: p xi q and the terms of
    both derivatives are at most 2d + 1 words of at most 2d + 1 letters,
    each its own cubic pass."""
    return (2 * degree + 1) ** 4


def core_draw_work(degree: int) -> int:
    """Work bound of one ``verify-core`` draw: one cubic pass over zeta* Q,
    of at most d + 1 letters, serves both sides.  It counts twice: a step
    of it measured 1.3 times a step of a ``verify-lemma2`` draw (0.2 s
    for 256**3 steps against 37 s for 255**4 on one host), rounded up."""
    return 2 * (degree + 1) ** 3


def _model_digest(m: ModelSpec) -> str:
    blob = json.dumps(m.config_dict(), sort_keys=True)
    return sha256(blob.encode("utf-8")).hexdigest()


def _resolve_gen(m: ModelSpec, name: str) -> str:
    if name == "":
        return m.sole_generator().gen_id
    return m.gen(name).gen_id


def parse_word(m: ModelSpec, text: str, allow_y: bool = False) -> Word:
    """Parse space-separated ``<family><gen>:<time>`` tokens.

    The family is the leading X or Y; an empty generator id refers to the
    model's sole generator; times are exact rationals such as ``3/2``.
    """
    letters = []
    for token in text.split():
        match = _WORD_TOKEN.match(token)
        if match is None:
            raise ConfigError(f"cannot parse word token {token!r}")
        family, gen_name, time_text = match.groups()
        t = _parse_time(m, time_text, "--word")
        gen = _resolve_gen(m, gen_name)
        if family == Y_FAMILY:
            if not allow_y:
                raise ConfigError(
                    "partner-family letters are accepted only by `moment`"
                )
            letters.append(y(gen, t))
        else:
            letters.append(x(gen, t))
    return tuple(letters)


def _parse_time(m: ModelSpec, text: str, where: str) -> Fraction:
    """``text`` as an exact rational time tag.

    Tags whose double is not finite are refused, and so are tags so large
    that twice them is not: the evaluators take the double of a difference
    or sum of two tags, which must exist.  Tags past ``MAX_PHASE_TURNS``
    of the model's fastest phase are refused too.
    """
    try:
        t = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad time {text!r} in {where}: {exc}") from None
    try:
        float(2 * t)
    except OverflowError:
        raise ConfigError(
            f"time {text!r} in {where} is too large for a double"
        ) from None
    _check_phase(m, t, where)
    return t


def _check_phase(m: ModelSpec, t, where: str) -> None:
    """Refuse a time whose phase at the model's fastest frequency exceeds
    ``MAX_PHASE_TURNS`` turns, or that is not a finite number."""
    fastest = max(abs(a.x) for g in m.generators for a in g.atoms)
    if not abs(t) * fastest <= MAX_PHASE_TURNS:
        raise ConfigError(
            f"time {t} in {where} is not within {MAX_PHASE_TURNS} turns "
            f"of the model's fastest frequency {fastest!r}"
        )


def _check_magnitude(letters: int, v: float, factor: int, subject: str
                     ) -> None:
    """Refuse ``subject`` when ``factor`` states of words of up to
    ``letters`` letters at mass ``v`` may overflow a double in their sum.

    A word of 2h letters has at most C(h) non-crossing pairings, C the
    Catalan number, and each is a product of h covariances of modulus at
    most v, the largest mass among the word's generators, so the state is
    at most C(h) v^h in modulus; an odd word has no pairing and state
    exactly 0.  C(h + 1) v / C(h) grows with h, so over h <= letters / 2
    the bound peaks at h = 0 or at the largest h.  It is taken in logs,
    where it cannot overflow itself.
    """
    h = letters // 2
    log_bound = (math.lgamma(2 * h + 1) - math.lgamma(h + 1)
                 - math.lgamma(h + 2) + h * math.log(v) + math.log(factor))
    if log_bound > math.log(sys.float_info.max):
        raise ConfigError(f"{subject} at mass {v!r} may reach "
                          f"e^{log_bound:.1f}, past the largest double")


def _check_word_magnitude(m: ModelSpec, w: Word, factor: int = 1) -> None:
    """:func:`_check_magnitude` on one word, whose state is 0 if odd."""
    if len(w) % 2 == 0:
        v = max((m.gen(letter.gen).v for letter in w), default=1.0)
        _check_magnitude(len(w), v, factor, f"a word of {len(w)} letters")


def _finite(flag: str, value: float) -> float:
    """``value`` of ``flag``, refused unless it is a finite number."""
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value}")
    return value


def _parse_floats(text: str, flag: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None
    return [_finite(flag, v) for v in values]


def _json_default(obj):
    """A report value json cannot encode: a complex number, a state or
    an expansion coefficient, as ``re`` and ``im``; anything else, a
    Fraction time or shift, as its text."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return str(obj)


def _basis_from_args(m: ModelSpec, args):
    from .conjugate import BasisSpec

    grid = tuple(_parse_time(m, tok, "--grid")
                 for tok in args.grid.split(",") if tok.strip())
    return BasisSpec(grid, args.degree)


def _gens_from_args(m: ModelSpec, args) -> list:
    """The ids of ``--gens``, empty tokens skipped; every generator when
    the flag is omitted."""
    if not args.gens:
        return list(m.gen_ids())
    gens = [_resolve_gen(m, g.strip()) for g in args.gens.split(",")
            if g.strip()]
    if not gens:
        raise ConfigError(f"--gens {args.gens!r} names no generator")
    return gens


# ----------------------------------------------------------------------
# subcommand handlers: each returns (outputs, verdict: the Residual ``run``
# judges against --tol, suite's flag or None), ``suite`` also its timings
# ----------------------------------------------------------------------


def _cmd_check_kms(m, args):
    grid = (KMS_GRID if args.grid is None
            else _parse_floats(args.grid, "--grid"))
    if not grid:
        raise ConfigError(f"--grid {args.grid!r} holds no times")
    for t in grid:
        _check_phase(m, t, "--grid")
    # both sides of the boundary identity are bounded by the mass v, the
    # scale of each deviation; check_kms raises unless balance holds
    residuals = [Residual(check_kms(g, grid), g.v) for g in m.generators]
    reports = [{"gen": g.gen_id, "detailed_balance_ok": True,
                "max_deviation": float(r),
                "max_relative_deviation": r.relative}
               for g, r in zip(m.generators, residuals)]
    worst = max(residuals, key=lambda r: r.relative)
    return {"generators": reports, "max_deviation": max(map(float, residuals)),
            "max_relative_deviation": worst.relative,
            "grid_points": len(grid)}, worst


def _cmd_moment(m, args):
    """The state of ``--word``, judged on ``oracle_diff`` over max(1, the
    summed pairing magnitude) where the oracle runs, at most
    ``ORACLE_MAX_LETTERS`` letters, and unjudged past it."""
    w = parse_word(m, args.word, allow_y=True)
    _check_word_magnitude(m, w)
    detail = evaluate_state_detailed(m, w)
    out = {
        "word": word_str(w),
        "value": detail.value,
        "partition_count": detail.partition_count,
    }
    residual = None
    if len(w) <= ORACLE_MAX_LETTERS:
        oracle = brute_force_oracle(m, w)
        out["oracle_value"] = oracle
        residual = Residual(abs(detail.value - oracle), detail.magnitude)
        out["oracle_diff"] = float(residual)
    return out, residual


def _solver_health(gen: str, sol) -> dict:
    """Size, rank and conditioning of the Galerkin solve of generator
    ``gen``.  ``prune_rounds`` above 1 means the kept words are
    ill-conditioned near the prune threshold: the prune's guess failed,
    and it then scanned ``prune_rounds - 1`` words one at a time.
    ``residual_over_rhs`` is the residual over |b|: at large mass the
    residual is rounding at the model's scale, 0.096 for a correct
    degree-3 solve on one atom of weight 1e6, which is 2.6e-15 of |b|
    (``test_solver_residual_is_reported_over_the_rhs``).  A zero
    right-hand side, which no residual can be measured against, is
    refused by name."""
    import numpy as np

    from .conjugate import BasisError

    rhs_norm = float(np.linalg.norm(sol.rhs))
    if rhs_norm == 0:
        raise BasisError(
            f"generator {gen!r} has a zero right-hand side: no basis word "
            "pairs with its partner letter")
    return {
        "basis_size": len(sol.basis_words),
        "kept_size": len(sol.kept),
        "prune_rounds": sol.prune_rounds,
        "fock_dim": sol.fock_dim,
        "gram_condition": sol.gram_condition,
        "residual": sol.residual,
        "residual_over_rhs": sol.residual / rhs_norm,
    }


def _cmd_conjugate(m, args):
    """Solve for the conjugate variable and judge its
    ``self_adjoint_defect``, the L2 norm of xi - xi*, over |xi|.  Scaling
    the coefficients by a real 1 + e scales xi - xi* by 1 + e, so a defect
    at rounding level stays there: the judged residual cannot see a
    uniform scaling of the printed coefficients."""
    from .conjugate import self_adjoint_defect, solve_conjugate

    target = _resolve_gen(m, args.target)
    b_gens = tuple(
        _resolve_gen(m, g.strip()) for g in args.b_gens.split(",") if g.strip()
    )
    sol = solve_conjugate(
        m,
        target,
        _basis_from_args(m, args),
        b_gens=b_gens,
        target_time=_parse_time(m, args.time, "--time"),
    )
    defect = self_adjoint_defect(sol)
    out = {
        "target": target,
        "target_time": sol.target_time,
        **_solver_health(target, sol),
        "coefficients": [
            {"word": word_str(w), "re": c.real, "im": c.imag}
            for w, c in sol.coefficient_map().items()
        ],
        "xi_norm_sq": sol.xi_norm_sq,
        "phi_star": sol.phi_star,
        "self_adjoint_defect": defect,
    }
    return out, Residual(defect, math.sqrt(sol.xi_norm_sq))


def _cmd_fisher(m, args):
    from .conjugate import solve_family

    gens = _gens_from_args(m, args)
    sols = solve_family(m, gens, _basis_from_args(m, args))
    per_gen = {g: sol.phi_star for g, sol in zip(gens, sols)}
    total = sum(sol.phi_star for sol in sols)
    solver = {g: _solver_health(g, sol) for g, sol in zip(gens, sols)}
    return {"gens": gens, "per_gen": per_gen, "phi_star_total": total,
            "solver": solver}, None


def _cmd_cramer_rao(m, args):
    import dataclasses

    from .conjugate import cramer_rao_audit

    gens = _gens_from_args(m, args)
    rep = cramer_rao_audit(m, gens, _basis_from_args(m, args))
    out = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)
           if f.name != "solutions"}
    out["solver"] = {g: _solver_health(g, sol)
                     for g, sol in zip(gens, rep.solutions)}
    return out, (Residual(abs(rep.lhs - rep.rhs), rep.rhs) if rep.asserted
                 else None)


def _cmd_chi_star(m, args):
    from .conjugate import chi_star

    gens = _gens_from_args(m, args)
    cutoff = _finite("--tail-cutoff", args.tail_cutoff)
    value = chi_star(m, gens, cutoff, _basis_from_args(m, args))
    return {"gens": gens, "tail_cutoff": cutoff, "value": value}, None


def _check_range(flag: str, value: int, upper: int) -> None:
    if not 1 <= value <= upper:
        raise ConfigError(
            f"{flag} must be between 1 and {upper}, got {value}"
        )


def _check_work(count: int, draw_work: int) -> None:
    work = count * draw_work
    if work > MAX_CHECK_WORK:
        raise ConfigError(
            f"--count {count} at this degree asks for {work} units of work, "
            f"over the limit of {MAX_CHECK_WORK}; lower --count or the degree"
        )


def _verify(m, args, flag: str, upper: int, draw_work: int, letters: int,
            residual):
    """A seeded identity check of ``args.count`` draws at the degree of
    ``flag``, whose words have up to ``letters`` letters.  It is refused
    before drawing when over its count, degree or work limits, or when
    ``letters`` states (the identity sums at most one per letter) may
    overflow a double at the target generator's mass."""
    import random

    key = flag[2:].replace("-", "_")
    d = getattr(args, key)
    _check_range("--count", args.count, MAX_CHECK_COUNT)
    _check_range(flag, d, upper)
    _check_work(args.count, draw_work)
    gen = _resolve_gen(m, args.target)
    _check_magnitude(letters, m.gen(gen).v, letters,
                     f"{flag} {d} (words of up to {letters} letters)")
    worst, judged = residual(m, gen, random.Random(args.seed), args.count, d)
    return {"max_residual": worst, "max_relative_residual": judged.relative,
            "count": args.count, key: d}, judged


def _cmd_verify_lemma2(m, args):
    from .sampling import insertion_residual

    # p xi q, and the up to 2d terms of the two derivative pairings
    d = args.degree
    return _verify(m, args, "--degree", MAX_LEMMA2_DEGREE,
                   lemma2_draw_work(d), 2 * d + 1, insertion_residual)


def _cmd_verify_core(m, args):
    from .sampling import core_residual

    # zeta* Q, and the up to d terms of the derivative of Q
    d = args.x_degree
    return _verify(m, args, "--x-degree", MAX_CORE_DEGREE, core_draw_work(d),
                   d + 1, core_residual)


def _cmd_brownian(m, args):
    from .brownian import expand_state

    w = parse_word(m, args.word, allow_y=False)
    if not w:
        raise ConfigError("brownian needs a non-empty word")
    # the largest binomial C(n/2, j) among the printed coefficients
    h = len(w) // 2
    _check_word_magnitude(m, w,
                          math.comb(h, min(max(args.order, 0), h // 2)))
    expansion = expand_state(m, w, args.order)
    return {
        "word": word_str(w),
        "coefficients": {str(p): c for p, c in sorted(expansion.items())},
    }, None


def _cmd_bound(m, args):
    from .core_cp import factoriality_bound

    alpha = _finite("--alpha", args.alpha)
    delta = _finite("--delta", args.delta)
    return {"alpha": alpha, "delta": delta,
            "value": factoriality_bound(alpha, delta)}, None


def _cmd_covariance(m, args):
    from .conjugate import modular_covariance_check

    target = _resolve_gen(m, args.target)
    shift = _parse_time(m, args.shift, "--shift")
    residual = modular_covariance_check(
        m, target, shift, _basis_from_args(m, args)
    )
    return {"target": target, "shift": shift,
            "residual": float(residual)}, residual


def _cmd_suite(m, args):
    from .suite import run_suite

    results = run_suite(seed=args.seed)
    ok = all(r.passed for r in results if r.asserted)
    checks = [
        {
            "id": r.cid,
            "description": r.description,
            "passed": r.passed,
            "asserted": r.asserted,
            "details": r.details,
        }
        for r in results
    ]
    timings = {r.cid: r.seconds for r in results}
    return {"checks": checks, "all_passed": ok}, ok, timings


_HANDLERS = {
    "check-kms": _cmd_check_kms,
    "moment": _cmd_moment,
    "conjugate": _cmd_conjugate,
    "fisher": _cmd_fisher,
    "cramer-rao": _cmd_cramer_rao,
    "chi-star": _cmd_chi_star,
    "verify-lemma2": _cmd_verify_lemma2,
    "verify-core": _cmd_verify_core,
    "brownian": _cmd_brownian,
    "bound": _cmd_bound,
    "covariance": _cmd_covariance,
    "suite": _cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfisher",
        description="moments, conjugate variables and Fisher information "
        "for modular-flow semicircular families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, model=True, tol=1e-9, seed=False):
        # a subcommand with the common flags its handler reads: --model
        # unless model is false, --tol unless tol is None, --seed if seed
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--model", help="model config JSON; a built-in "
                           "two-atom example is used when omitted")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("check-kms", help="detailed balance and boundary identity")
    p.add_argument("--grid", help="comma separated real times "
                   "(default: 101 points on [-5, 5])")

    p = command("moment", help="evaluate the state on a word")
    p.add_argument("--word", required=True,
                   help='e.g. "X:0 X:1 X:0 X:1" or "Y:0 X:1/2"')

    def add_basis_flags(p, degree=3, grid="-1,-1/2,0,1/2,1"):
        p.add_argument("--grid", default=grid,
                       help="comma separated rational times")
        p.add_argument("--degree", type=int, default=degree)

    p = command("conjugate", help="solve for the conjugate variable")
    add_basis_flags(p)
    p.add_argument("--target", default="", help="generator id")
    p.add_argument("--b-gens", default="", help="comma separated other ids")
    p.add_argument("--time", default="0", help="target letter time")

    p = command("fisher", tol=None,
                help="summed normalized information of a family")
    add_basis_flags(p, degree=2, grid="-1/2,0,1/2")
    p.add_argument("--gens", default="", help="comma separated ids "
                   "(default: all)")

    p = command("cramer-rao", tol=1e-7, help="information-variance audit")
    add_basis_flags(p, degree=2, grid="-1/2,0,1/2")
    p.add_argument("--gens", default="")

    p = command("chi-star", tol=None,
                help="entropy-style integral, in closed form")
    add_basis_flags(p, degree=2, grid="-1/2,0,1/2")
    p.add_argument("--gens", default="")
    p.add_argument("--tail-cutoff", type=float, default=10.0)

    p = command("verify-lemma2", seed=True,
                help="insertion identity on random inputs")
    p.add_argument("--target", default="")
    p.add_argument("--count", type=int, default=100,
                   help=f"random word pairs, 1 to {MAX_CHECK_COUNT}")
    p.add_argument("--degree", type=int, default=4,
                   help=f"most letters in p and q, 1 to {MAX_LEMMA2_DEGREE}")

    p = command("verify-core", seed=True,
                help="crossed-product pairing identity")
    p.add_argument("--target", default="")
    p.add_argument("--count", type=int, default=100,
                   help=f"random core words, 1 to {MAX_CHECK_COUNT}")
    p.add_argument("--x-degree", type=int, default=4,
                   help=f"most letters in Q, 1 to {MAX_CORE_DEGREE}")

    p = command("brownian", tol=None, help="noise expansion of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--order", type=int, default=2)

    p = command("bound", model=False, tol=None,
                help="projection information bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = command("covariance", help="modular covariance of the solver")
    add_basis_flags(p, degree=2, grid="-1/2,0,1/2")
    p.add_argument("--target", default="")
    p.add_argument("--shift", default="1/2")

    command("suite", model=False, tol=None, seed=True,
            help="run the full acceptance battery")
    return parser


_VALUE_FLAGS = ("--grid", "--shift", "--time", "--alpha", "--delta",
                "--tail-cutoff")


def _merge_negative_values(argv):
    # let `--grid -1,0,1` through argparse by folding the value into the flag
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`, built on first use and then reused."""
    return build_parser()


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_negative_values(list(argv)))
    started = time.perf_counter()
    try:
        if "tol" in args:
            _finite("--tol", args.tol)
        m = None
        if "model" in args:
            m = load_model(args.model) if args.model else two_atom_model()
        handler = _HANDLERS[args.command]
        outputs, verdict, *timings = handler(m, args)
        # the one pass rule of every --tol verdict
        relative = verdict.relative if isinstance(verdict, Residual) else None
        passed = verdict if relative is None else relative < args.tol
        report = {
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items()
                       if k != "command" and v is not None},
            "outputs": outputs,
            "passed": passed,
        }
        if m is not None:
            report["model_digest"] = _model_digest(m)
        if "tol" in args:
            report["tolerance"] = args.tol
        if relative is not None:
            report["relative_residual"] = relative
        report["wall_time_s"] = time.perf_counter() - started
        if timings:
            report["timings"] = timings[0]
        # strict JSON: a non-finite number becomes a usage error, exit 2
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=False, default=_json_default)
        # a stdout that cannot take the report fails here, not at exit
        print(text)
        sys.stdout.flush()
    except (ValueError, ArithmeticError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit: let that flush
            # reach the null device, not the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _status(f"error: {exc}")
        return 2
    status = "ok" if passed in (True, None) else "FAIL"
    if relative is not None:
        status += (f": relative residual {relative:.2g} "
                   f"{'<' if passed else '>='} tol {args.tol}")
    _status(f"[{args.command}] {status}")
    return 0 if passed in (True, None) else 1


def _status(line: str) -> None:
    """Print ``line`` to stderr; when stderr cannot take it, the exit code
    alone tells the outcome."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def main() -> None:
    sys.exit(run())
