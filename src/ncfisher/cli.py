"""Batch front door: model ingestion, command dispatch, JSON reports.

Reports go to stdout as JSON (sorted keys, lossless float round-trip);
a one-line human summary goes to stderr.  Exit codes: 0 when every
asserted check passed, 1 on an assertion failure, 2 on configuration or
usage errors, inputs over a size limit, arithmetic that overflows a
double and degenerate Galerkin bases.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import re
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from .algebra import NcPoly, Word, Y_FAMILY, word_str, x, y
from .brownian import expand_state, verify_gradient_expansion
from .conjugate import (
    BasisSpec,
    DegenerateGramError,
    chi_star,
    cramer_rao_audit,
    modular_covariance_check,
    self_adjoint_defect,
    solve_conjugate,
    solve_family,
)
from .core_cp import factoriality_bound
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
)
from .suite import core_residual, insertion_residual, run_suite

__all__ = ["build_parser", "run", "main"]

_WORD_TOKEN = re.compile(r"^([XY])([A-Za-z0-9_]*):(-?[0-9./]+)$")

#: largest phase |t| x, in turns, of a time tag t at the model's fastest
#: frequency x; beyond it the double of t x has too few bits after the
#: point for the exact identities (covariance, adjoint) to hold
MAX_PHASE_TURNS = 2**16

#: most random inputs one ``verify-lemma2`` or ``verify-core`` run draws
MAX_CHECK_COUNT = 10_000

#: largest ``verify-lemma2 --degree``: a word p xi q has up to 2d + 1 letters
MAX_LEMMA2_DEGREE = (MAX_WORD_LETTERS - 1) // 2

#: largest ``verify-core --x-degree``: a word zeta* Q has up to d + 1 letters
MAX_CORE_DEGREE = MAX_WORD_LETTERS - 1

#: most work one ``verify-lemma2`` or ``verify-core`` run may ask for:
#: ``--count`` times the work of one draw, counted as (state evaluations)
#: x (letters per word)^3 for the cubic interval pass.  256**4 admits one
#: draw at the largest degree of either command.  The slowest such draws
#: measured on a 2-core x86-64 host (Python 3.11): 22 s for
#: ``verify-lemma2`` (p and q of 127 and 126 letters) and 6 s for
#: ``verify-core`` (Q of 255 letters); the default runs ask for 1/6,500
#: of it and the heaviest benchmark run (``verify-lemma2 --degree 6``,
#: count 100) for 1/1,500.
MAX_CHECK_WORK = 256**4


def lemma2_draw_work(degree: int) -> int:
    """Work bound of one ``verify-lemma2`` draw: p xi q and the terms of
    both derivatives are at most 2d + 1 words of at most 2d + 1 letters."""
    return (2 * degree + 1) ** 4


def core_draw_work(degree: int) -> int:
    """Work bound of one ``verify-core`` draw: zeta* Q and, per term of
    the derivative, two words of at most d + 1 letters together."""
    return (degree + 1) ** 4


def _model_digest(m: ModelSpec) -> str:
    blob = json.dumps(m.config_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    fastest = max((abs(a.x) for g in m.generators for a in g.atoms),
                  default=0.0)
    if not abs(t) * fastest <= MAX_PHASE_TURNS:
        raise ConfigError(
            f"time {t} in {where} is not within {MAX_PHASE_TURNS} turns "
            f"of the model's fastest frequency {fastest!r}"
        )


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


def _jsonify(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonify(v) for v in obj]
    return str(obj)


def _basis_from_args(m: ModelSpec, args) -> BasisSpec:
    grid = tuple(_parse_time(m, tok, "--grid")
                 for tok in args.grid.split(",") if tok.strip())
    return BasisSpec(grid, args.degree)


def _gens_from_args(m: ModelSpec, args) -> list:
    if getattr(args, "gens", None):
        return [_resolve_gen(m, g.strip()) for g in args.gens.split(",")]
    return list(m.gen_ids())


# ----------------------------------------------------------------------
# subcommand handlers: each returns (outputs dict, passed flag or None),
# and ``suite`` also a timings dict that goes next to ``wall_time_s``
# ----------------------------------------------------------------------


def _cmd_check_kms(m, args):
    grid = (KMS_GRID if args.grid is None
            else _parse_floats(args.grid, "--grid"))
    if not grid:
        raise ConfigError(f"--grid {args.grid!r} holds no times")
    for t in grid:
        _check_phase(m, t, "--grid")
    # both sides of the boundary identity are bounded by the mass v, so
    # the deviation is judged relative to max(1, v)
    reports = []
    worst = worst_relative = 0.0
    for g in m.generators:
        # check_kms raises unless detailed balance holds
        dev = check_kms(g, grid)
        relative = dev / max(1.0, g.v)
        reports.append(
            {
                "gen": g.gen_id,
                "detailed_balance_ok": True,
                "max_deviation": dev,
                "max_relative_deviation": relative,
            }
        )
        worst = max(worst, dev)
        worst_relative = max(worst_relative, relative)
    return {"generators": reports, "max_deviation": worst,
            "max_relative_deviation": worst_relative,
            "grid_points": len(grid)}, worst_relative < args.tol


def _cmd_moment(m, args):
    w = parse_word(m, args.word, allow_y=True)
    detail = evaluate_state_detailed(m, w)
    out = {
        "word": word_str(w),
        "value": detail.value,
        "partition_count": detail.partition_count,
    }
    passed = None
    if len(w) <= ORACLE_MAX_LETTERS:
        oracle = brute_force_oracle(m, w)
        out["oracle_value"] = oracle
        out["oracle_diff"] = abs(detail.value - oracle)
        passed = out["oracle_diff"] <= args.tol * max(1.0, detail.magnitude)
    return out, passed


def _solver_health(sol) -> dict:
    """Size, rank and conditioning of one Galerkin solve; more than one
    prune round means the kept words are ill-conditioned near the
    prune threshold."""
    return {
        "basis_size": len(sol.basis_words),
        "kept_size": len(sol.kept),
        "prune_rounds": sol.prune_rounds,
        "fock_dim": sol.fock_dim,
        "gram_condition": sol.gram_condition,
        "residual": sol.residual,
    }


def _cmd_conjugate(m, args):
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
    defect = self_adjoint_defect(m, sol)
    out = {
        "target": target,
        "target_time": sol.target_time,
        **_solver_health(sol),
        "coefficients": [
            {"word": word_str(w), "re": c.real, "im": c.imag}
            for w, c in sol.coefficient_map().items()
        ],
        "xi_norm_sq": sol.xi_norm_sq,
        "phi_star": sol.phi_star,
        "self_adjoint_defect": defect,
    }
    return out, defect < args.tol


def _cmd_fisher(m, args):
    gens = _gens_from_args(m, args)
    sols = solve_family(m, gens, _basis_from_args(m, args))
    per_gen = {g: sol.phi_star for g, sol in zip(gens, sols)}
    total = sum(sol.phi_star for sol in sols)
    solver = {g: _solver_health(sol) for g, sol in zip(gens, sols)}
    return {"gens": gens, "per_gen": per_gen, "phi_star_total": total,
            "solver": solver}, None


def _cmd_cramer_rao(m, args):
    gens = _gens_from_args(m, args)
    rep = cramer_rao_audit(m, gens, _basis_from_args(m, args))
    out = {
        "n": rep.n,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "ratio": rep.ratio,
        "second_moment": rep.second_moment,
        "phi_star_tuple": rep.phi_star_tuple,
        "normalized": rep.normalized,
        "asserted": rep.asserted,
        "note": rep.note,
        "solver": {g: _solver_health(sol)
                   for g, sol in zip(gens, rep.solutions)},
    }
    passed = abs(rep.lhs - rep.rhs) < args.tol if rep.asserted else None
    return out, passed


def _cmd_chi_star(m, args):
    gens = _gens_from_args(m, args)
    eps = _parse_floats(args.eps, "--eps")
    cutoff = _finite("--tail-cutoff", args.tail_cutoff)
    value = chi_star(m, gens, eps, cutoff, _basis_from_args(m, args))
    return {
        "gens": gens,
        "eps_grid": eps,
        "tail_cutoff": cutoff,
        "value": value,
    }, None


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


def _cmd_verify_lemma2(m, args):
    _check_range("--count", args.count, MAX_CHECK_COUNT)
    _check_range("--degree", args.degree, MAX_LEMMA2_DEGREE)
    _check_work(args.count, lemma2_draw_work(args.degree))
    worst, relative = insertion_residual(m, _resolve_gen(m, args.target),
                                         random.Random(args.seed), args.count,
                                         args.degree)
    return {"max_residual": worst, "max_relative_residual": relative,
            "count": args.count, "degree": args.degree}, relative < args.tol


def _cmd_verify_core(m, args):
    _check_range("--count", args.count, MAX_CHECK_COUNT)
    _check_range("--x-degree", args.x_degree, MAX_CORE_DEGREE)
    _check_work(args.count, core_draw_work(args.x_degree))
    worst, relative = core_residual(m, _resolve_gen(m, args.target),
                                    random.Random(args.seed), args.count,
                                    args.x_degree)
    return {"max_residual": worst, "max_relative_residual": relative,
            "count": args.count,
            "x_degree": args.x_degree}, relative < args.tol


def _cmd_brownian(m, args):
    w = parse_word(m, args.word, allow_y=False)
    if not w:
        raise ConfigError("brownian needs a non-empty word")
    expansion = expand_state(m, w, args.order)
    xi = {g: NcPoly.letter(x(g, 0)) for g in {l.gen for l in w}}
    residual = verify_gradient_expansion(m, w, xi, expansion[0])
    return {
        "word": word_str(w),
        "coefficients": {str(p): c for p, c in sorted(expansion.items())},
        "gradient_residual": residual,
        "gradient_relative_residual": residual.relative,
    }, residual.relative < args.tol


def _cmd_bound(m, args):
    alpha = _finite("--alpha", args.alpha)
    delta = _finite("--delta", args.delta)
    return {"alpha": alpha, "delta": delta,
            "value": factoriality_bound(alpha, delta)}, None


def _cmd_covariance(m, args):
    target = _resolve_gen(m, args.target)
    shift = _parse_time(m, args.shift, "--shift")
    residual = modular_covariance_check(
        m, target, shift, _basis_from_args(m, args)
    )
    return {"target": target, "shift": shift,
            "residual": residual}, residual < args.tol


def _cmd_suite(m, args):
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

    p = command("chi-star", tol=None, help="entropy-style quadrature")
    add_basis_flags(p, degree=2, grid="-1/2,0,1/2")
    p.add_argument("--gens", default="")
    p.add_argument("--eps", default="0,0.25,0.5,0.75,1")
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

    p = command("brownian", help="noise expansion of a word")
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


_VALUE_FLAGS = ("--grid", "--eps", "--shift", "--time", "--alpha", "--delta",
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
        outputs, passed, *timings = handler(m, args)
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
        report["wall_time_s"] = time.perf_counter() - started
        if timings:
            report["timings"] = timings[0]
        # strict JSON: a non-finite number becomes a usage error, exit 2
        text = json.dumps(_jsonify(report), sort_keys=True, indent=2,
                          allow_nan=False)
    except (ValueError, ArithmeticError, DegenerateGramError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    status = "ok" if passed in (True, None) else "FAIL"
    print(f"[{args.command}] {status}", file=sys.stderr)
    return 0 if passed in (True, None) else 1


def main() -> None:
    sys.exit(run())
