"""Ops of the three workloads and the checks on their outputs.

``prepare(op, ...)`` does the untimed part of an op (build a fresh model,
convert letters, write model files) and returns a :class:`Prepared` whose
``call`` is the timed part and whose ``check`` raises :class:`CheckFailed`
when the output is wrong.  Calls go through module attributes
(``conjugate.solve_conjugate``, not a name bound here) so the traced run's
wrappers see them.

The checks trust the package as little as they can: expected values come
from the model configs through :func:`reference_state`, an evaluator of
the pairing formula written here (memoized on index intervals, with its
own kernel), or from closed forms such as ``phi_star == 1`` for these
quasi-free models.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from ncfisher import algebra, cli, conjugate, model, moments

import inputs

SOLVE_TOL = 1e-8        # residual and |phi_star - 1| of a quasi-free solve
FAMILY_RTOL = 1e-8      # fisher_multi == n, relative
CRAMER_RAO_RTOL = 1e-7  # lhs == (total second moment)^2, relative
STATE_RTOL = 1e-9       # word values, relative to the sum of |pairing terms|


class CheckFailed(Exception):
    """An op's output failed its check."""


@dataclass
class Prepared:
    call: Callable[[], Any]
    check: Callable[[Any], None]
    model: Any = None  # the op's ModelSpec when the runner builds it


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# independent pairing-formula evaluator
# ----------------------------------------------------------------------


def _atoms(gen_cfg: dict) -> list:
    out = []
    for a in gen_cfg["atoms"]:
        out.append((a["x"], a["w"]))
        if a["x"] > 0:
            out.append((-a["x"], a["w"] * math.exp(-2.0 * math.pi * a["x"])))
    return out


def reference_state(gens: list, word) -> tuple:
    """(value, absolute sum) of the non-crossing pairing formula.

    ``word`` holds ``(family, gen, time)`` with real or complex times.  A
    pair contributes sum_k w_k exp(2 pi i (t_b - t_a) x_k) when family and
    generator agree.  The absolute sum, over pairings of the products of
    |kernel values|, scales the rounding error of any evaluator.
    """
    atoms = {g["name"]: _atoms(g) for g in gens}
    n = len(word)
    cov = [[0j] * n for _ in range(n)]
    for i, (fa, ga, ta) in enumerate(word):
        for k in range(i + 1, n, 2):
            fb, gb, tb = word[k]
            if fa == fb and ga == gb:
                dt = complex(tb) - complex(ta)
                cov[i][k] = sum(w * cmath.exp(2j * math.pi * dt * x)
                                for x, w in atoms[ga])
    memo = {}

    def phi(i, j):
        if i == j:
            return 1 + 0j, 1.0
        if (j - i) % 2:
            return 0j, 0.0
        hit = memo.get((i, j))
        if hit is not None:
            return hit
        value, absum = 0j, 0.0
        for k in range(i + 1, j, 2):
            c = cov[i][k]
            if c:
                v1, a1 = phi(i + 1, k)
                v2, a2 = phi(k + 1, j)
                value += c * v1 * v2
                absum += abs(c) * a1 * a2
        memo[(i, j)] = (value, absum)
        return value, absum

    return phi(0, n)


def _close(got: complex, want: complex, scale: float, what: str) -> None:
    _require(abs(got - want) <= STATE_RTOL * max(1.0, scale),
             f"{what}: {got!r} != {want!r} (scale {scale:.3g})")


def _letters(word) -> tuple:
    return tuple(algebra.Letter(f, g, t) for f, g, t in word)


def _build(gens: list):
    return model.build_model({"generators": gens})


# ----------------------------------------------------------------------
# galerkin
# ----------------------------------------------------------------------


def prepare_galerkin(op: dict) -> Prepared:
    gens = op["gens"]
    m = _build(gens)
    basis = conjugate.BasisSpec(op["grid"], op["degree"])
    names = [g["name"] for g in gens]
    n = len(names)
    kind = op["kind"]

    if kind == "solve_conjugate":
        def call():
            return conjugate.solve_conjugate(m, names[0], basis,
                                             b_gens=tuple(names[1:]))

        def check(sol):
            _require(abs(sol.phi_star - 1.0) <= SOLVE_TOL,
                     f"phi_star {sol.phi_star} != 1")
            _require(sol.residual < SOLVE_TOL, f"residual {sol.residual}")
    elif kind == "fisher_multi":
        def call():
            return conjugate.fisher_multi(m, names, basis)

        def check(total):
            _require(abs(total - n) <= FAMILY_RTOL * n,
                     f"fisher_multi {total} != {n}")
    elif kind == "cramer_rao_audit":
        mass = math.fsum(inputs.total_mass(g) for g in gens)

        def call():
            return conjugate.cramer_rao_audit(m, names, basis)

        def check(rep):
            _require(abs(rep.lhs - mass**2) <= CRAMER_RAO_RTOL * mass**2,
                     f"cramer-rao lhs {rep.lhs} != {mass**2}")
            _require(rep.rhs == n * n, f"cramer-rao rhs {rep.rhs} != {n * n}")
    else:
        raise ValueError(f"unknown galerkin op {kind!r}")
    return Prepared(call, check, m)


# ----------------------------------------------------------------------
# words
# ----------------------------------------------------------------------


def prepare_words(op: dict) -> Prepared:
    gens = op["gens"]
    word = op["word"]
    letters = _letters(word)
    m = _build(gens)

    if op["kind"] == "state":
        def call():
            return moments.evaluate_state(m, letters)

        def check(value):
            want, scale = reference_state(gens, word)
            _close(value, want, scale, "state vs reference")
            fresh = _build(gens)
            adj = moments.evaluate_state(fresh, letters[::-1])
            _close(adj, value.conjugate(), scale, "phi(w*) vs conj phi(w)")
            if op["oracle"]:
                oracle = moments.brute_force_oracle(fresh, letters)
                _close(oracle, value, scale, "oracle vs state")
    else:
        k = op["split"]
        t = op["t"]
        z = complex(t) + 1j
        suffix = range(k, len(letters))

        def call():
            return moments.evaluate_state_shifted(m, letters, suffix, z)

        def check(value):
            a, b = word[:k], word[k:]
            shifted = a + tuple((f, g, complex(s) + z) for f, g, s in b)
            want, scale = reference_state(gens, shifted)
            # KMS: phi(a sigma_{t+i}(b)) == phi(sigma_t(b) a)
            rotated = tuple((f, g, s + t) for f, g, s in b) + a
            kms, kms_scale = reference_state(gens, rotated)
            scale = max(scale, kms_scale)
            _close(value, want, scale, "shifted vs reference")
            _close(value, kms, scale, "shifted vs KMS rotation")
    return Prepared(call, check, m)


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def run_cli(argv: list) -> tuple:
    """``ncfisher.cli.run`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_models(models: dict, directory: str, tag: str) -> dict:
    """Write each config to ``directory``; map stem to the file path."""
    paths = {}
    for stem, config in models.items():
        path = os.path.join(directory, f"{tag}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        paths[stem] = path
    return paths


def _model_stem(arg: str):
    """``"two"`` for the placeholder ``"{model:two}"``, else None."""
    if arg.startswith("{model:") and arg.endswith("}"):
        return arg[len("{model:"):-1]
    return None


def prepare_cli(op: dict, model_paths: dict) -> Prepared:
    argv = [model_paths.get(_model_stem(a), a) for a in op["argv"]]
    command = argv[0]

    def call():
        return run_cli(argv)

    def check(result):
        code, out, err = result
        _require(code == 0, f"{command} exited {code}: {err.strip()[-300:]}")
        try:
            report = json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            raise CheckFailed(f"{command} printed invalid JSON: {exc}")
        _require(report.get("passed") in (True, None),
                 f"{command} passed={report.get('passed')!r}")
        outputs = report["outputs"]
        if command == "chi-star":
            _require(math.isfinite(outputs["value"]), "chi-star not finite")
        elif command == "moment":
            gens = op["models"][op["model"]]["generators"]
            want, scale = reference_state(gens, op["word"])
            got = complex(outputs["value"]["re"], outputs["value"]["im"])
            _close(got, want, scale, "moment vs reference")
            oracle = outputs["oracle_value"]
            _close(complex(oracle["re"], oracle["im"]), want, scale,
                   "moment oracle vs reference")
        elif command == "conjugate":
            _require(abs(outputs["phi_star"] - 1.0) <= SOLVE_TOL,
                     f"conjugate phi_star {outputs['phi_star']}")
            _require(outputs["residual"] < SOLVE_TOL,
                     f"conjugate residual {outputs['residual']}")
        elif command == "fisher":
            total = outputs["phi_star_total"]
            _require(abs(total - 1.0) <= FAMILY_RTOL,
                     f"fisher total {total} != 1")
        elif command == "suite":
            _require(outputs["all_passed"] is True, "suite failed")
    return Prepared(call, check)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

_CAL_TIMES = tuple(Fraction(k, d) for d in (1, 2) for k in range(-8, 9))


def calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the state recursion's hot path:
    rational subtraction, tuple keys and dict lookups.  Owned by the
    benchmark, so its time tracks the host's speed and not the package."""
    memo = {}
    hits = 0
    for t0 in _CAL_TIMES:
        for t in _CAL_TIMES:
            key = ("X", "g", t - t0)
            if key in memo:
                hits += 1
            else:
                memo[key] = len(memo)
    return hits
