"""Finitely-atomic semicircular model specs and their two-point functions.

A generator is specified by a positive atomic measure ``sum_k w_k d_{x_k}``
on the real line.  Its two-point function is the finite exponential sum

    eta(z) = sum_k w_k exp(2 pi i z x_k),

entire in z, so analytic continuation is exact.  The boundary identity
``eta(t + i) == eta(-t)`` for all real t is equivalent to the atom pairing

    w(-x) = w(x) * exp(-2 pi x)        ("detailed balance"),

which is the exactly checkable condition under which the model state has
the modular dynamics the algebra layer tracks.  Distinct generators are
mutually free by construction: their cross covariance is identically zero.
"""
from __future__ import annotations

import cmath
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ConfigError",
    "DetailedBalanceViolation",
    "SpectralAtom",
    "GeneratorSpec",
    "ModelSpec",
    "KMS_GRID",
    "check_detailed_balance",
    "check_kms",
    "finite_max",
    "build_model",
    "load_model",
    "two_atom_model",
    "tracial_model",
    "LN2_OVER_2PI",
    "DEFAULT_TOLERANCE",
]

TWO_PI = 2.0 * math.pi

#: frequency of the documented two-atom example; exp(-2*pi*x) = 1/2 there
LN2_OVER_2PI = math.log(2.0) / TWO_PI

DEFAULT_TOLERANCE = 1e-9

#: default real times of the KMS check: 101 points on [-5, 5]
KMS_GRID = tuple(-5.0 + 0.1 * k for k in range(101))

_BALANCE_RTOL = 1e-12


class ConfigError(ValueError):
    """Malformed model configuration."""


class DetailedBalanceViolation(ValueError):
    """Atomic measure does not satisfy the detailed-balance pairing."""

    def __init__(self, gen_id: str, message: str):
        super().__init__(f"generator {gen_id!r}: {message}")


@dataclass(frozen=True)
class SpectralAtom:
    """One atom of a generator's spectral measure: weight ``w`` at ``x``."""

    x: float
    w: float

    def __post_init__(self):
        if not (self.w > 0):
            raise ConfigError(f"atom weight must be positive, got {self.w}")


@dataclass(frozen=True)
class GeneratorSpec:
    """A single semicircular generator with an atomic spectral measure."""

    gen_id: str
    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ConfigError(f"generator {self.gen_id!r} has no atoms")
        freqs = [a.x for a in self.atoms]
        if len(set(freqs)) != len(freqs):
            raise ConfigError(
                f"generator {self.gen_id!r} lists duplicate frequencies"
            )
        # (x, w, w of the mirror atom at -x right after it, or None), for
        # the real-time eta; half mode writes every mirror right after
        runs, atoms = [], list(self.atoms)
        while atoms:
            a = atoms.pop(0)
            mirror = atoms.pop(0).w if atoms and atoms[0].x == -a.x else None
            runs.append((a.x, a.w, mirror))
        object.__setattr__(self, "_runs", tuple(runs))
        object.__setattr__(self, "_x_max", max(abs(x) for x in freqs))

    @property
    def v(self) -> float:
        """Total mass of the measure; equals the second moment of X."""
        return math.fsum(a.w for a in self.atoms)

    @property
    def is_tracial(self) -> bool:
        """True when the modular flow fixes this generator (all atoms at 0)."""
        return all(a.x == 0.0 for a in self.atoms)

    def eta(self, z) -> complex:
        """Two-point function at real or complex time ``z`` (exact sum).

        At an int or float ``z`` each term is w (cos y, sin y), y =
        fl(fl(2 pi z) x), summed part by part from +0.0, a mirror atom
        right after its atom sharing its cos and sin: the bits of the
        literal sum below, where exp(complex(+-0, y)) is (cos y, sin y)
        and w (c + i s) is (w c, w s) but for the sign of a zero part,
        which a sum from +0.0 drops.  Where some y is not finite, and at
        every other ``z``, the literal sum runs."""
        if type(z) is float or type(z) is int:
            t = TWO_PI * z
            if math.isfinite(t * self._x_max):
                re = im = 0.0
                for x, w, wm in self._runs:
                    y = t * x
                    c, s = math.cos(y), math.sin(y)
                    re += w * c
                    im += w * s
                    if wm is not None:
                        re += wm * c
                        im -= wm * s
                return complex(re, im)
        phase = 2j * math.pi * complex(z)
        total = 0
        for a in self.atoms:
            total += a.w * cmath.exp(phase * a.x)
        return total


def check_detailed_balance(g: GeneratorSpec) -> None:
    """Raise :class:`DetailedBalanceViolation` unless w(-x) = w(x)e^{-2 pi x}.

    Frequencies at ``x`` and ``-x`` must be exact float negations of each
    other; atoms at 0 are self-paired and unconstrained.
    """
    by_freq = {a.x: a for a in g.atoms}
    for a in g.atoms:
        if a.x == 0.0:
            continue
        partner = by_freq.get(-a.x)
        if partner is None:
            raise DetailedBalanceViolation(
                g.gen_id, f"atom at x={a.x} has no partner at -x"
            )
        if a.x > 0:
            expected = a.w * math.exp(-TWO_PI * a.x)
            if (abs(partner.w - expected)
                    > _BALANCE_RTOL * max(partner.w, expected)):
                raise DetailedBalanceViolation(
                    g.gen_id,
                    f"weight at -x must be w(x)*exp(-2*pi*x): "
                    f"got {partner.w}, expected {expected} (x={a.x})",
                )


def finite_max(values, what: str) -> float:
    """The largest of ``values``, 0.0 for none.

    Raises ArithmeticError on a value that is not finite, which ``max``
    would otherwise pass over (``max(0.0, nan)`` is 0.0); ``what`` names
    the values in the message.
    """
    worst = 0.0
    for v in values:
        if not math.isfinite(v):
            raise ArithmeticError(f"{what} is {v}: its terms are not "
                                  "finite doubles")
        worst = max(worst, v)
    return worst


def check_kms(g: GeneratorSpec, t_grid: Sequence[float]) -> float:
    """Largest |eta(t+i) - eta(-t)| over the grid; raises
    :class:`DetailedBalanceViolation` first unless balance holds exactly,
    and ArithmeticError on a deviation that is not finite."""
    check_detailed_balance(g)
    return finite_max((abs(g.eta(complex(t, 1.0)) - g.eta(-t))
                       for t in t_grid),
                      f"the boundary deviation of generator {g.gen_id!r}")


@dataclass(eq=False)
class ModelSpec:
    """A family of mutually free generators plus a default tolerance.

    Time tags used with the model count ticks of 1/``time_den``; every
    evaluator turns a tag into a real time through :meth:`real_time`.
    ``time_den`` is not part of the config (:meth:`config_dict`): it
    fixes how exact times are written, not the model.

    Instances are immutable by convention; evaluation keeps no state on
    them.
    """

    generators: tuple
    tolerance: float = DEFAULT_TOLERANCE
    time_den: int = 1

    def __post_init__(self):
        self.generators = tuple(self.generators)
        ids = [g.gen_id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ConfigError("generator ids must be unique")
        if not (self.tolerance > 0):
            raise ConfigError("tolerance must be positive")
        if type(self.time_den) is not int or self.time_den < 1:
            raise ConfigError(
                f"time_den must be a positive int, got {self.time_den!r}")

    def real_time(self, tag, den: int = 1):
        """The real time of the tag ``tag / den``, which counts ticks of
        1/``time_den``: ``tag / (den * time_den)``, one correctly rounded
        int division for int ``tag``.  At ``den * time_den == 1`` the tag
        comes back unchanged, so exact and complex tags pass through."""
        den *= self.time_den
        return tag if den == 1 else tag / den

    def with_time_den(self, time_den: int) -> "ModelSpec":
        """The same model, its time tags counting ticks of 1/``time_den``."""
        return dataclasses.replace(self, time_den=time_den)

    def gen(self, gen_id: str) -> GeneratorSpec:
        for g in self.generators:
            if g.gen_id == gen_id:
                return g
        raise ConfigError(f"unknown generator {gen_id!r}")

    def gen_ids(self) -> tuple:
        return tuple(g.gen_id for g in self.generators)

    def sole_generator(self) -> GeneratorSpec:
        if len(self.generators) != 1:
            raise ConfigError(
                "model has several generators; an explicit id is required"
            )
        return self.generators[0]

    def scaled(self, factor: float) -> "ModelSpec":
        """All weights multiplied by ``factor`` > 0; balance is preserved."""
        return dataclasses.replace(self, generators=tuple(
            GeneratorSpec(g.gen_id, tuple(SpectralAtom(a.x, a.w * factor)
                                          for a in g.atoms))
            for g in self.generators))

    def config_dict(self) -> dict:
        """Canonical full-mode config equivalent to this model."""
        return {
            "generators": [
                {
                    "name": g.gen_id,
                    "mode": "full",
                    "atoms": [{"x": a.x, "w": a.w} for a in g.atoms],
                }
                for g in self.generators
            ],
            "tolerance": self.tolerance,
        }


# ----------------------------------------------------------------------
# configuration ingestion
# ----------------------------------------------------------------------

_FREQ_LITERAL = "ln2/(2pi)"


def _parse_frequency(value) -> float:
    if isinstance(value, str):
        s = value.strip().replace(" ", "")
        negative = s.startswith("-")
        if negative:
            s = s[1:]
        if s != _FREQ_LITERAL:
            raise ConfigError(
                f"unknown frequency literal {value!r}; "
                f'use a number or "{_FREQ_LITERAL}"'
            )
        return -LN2_OVER_2PI if negative else LN2_OVER_2PI
    f = _finite_float(value)
    if f is None:
        raise ConfigError(
            f"frequency must be a finite number or literal, got {value!r}"
        )
    return f


def _parse_weight(value) -> float:
    f = _finite_float(value)
    if f is None:
        raise ConfigError(f"weight must be a finite number, got {value!r}")
    return f


def _finite_float(value):
    """``value`` as a finite float, or None; json.load accepts NaN and
    Infinity, and neither is a valid model number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        f = float(value)
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


def _build_generator(entry) -> GeneratorSpec:
    if not isinstance(entry, dict):
        raise ConfigError("each generator entry must be an object")
    try:
        name = entry["name"]
        mode = entry["mode"]
        atoms_cfg = entry["atoms"]
    except KeyError as exc:
        raise ConfigError(f"generator entry missing key {exc}") from None
    if not isinstance(name, str) or not name:
        raise ConfigError("generator name must be a non-empty string")
    if mode not in ("half", "full"):
        raise ConfigError(f'generator mode must be "half" or "full", got {mode!r}')
    if not isinstance(atoms_cfg, list) or not atoms_cfg:
        raise ConfigError(f"generator {name!r} needs a non-empty atom list")

    atoms = []
    for item in atoms_cfg:
        if not isinstance(item, dict) or "x" not in item or "w" not in item:
            raise ConfigError(f"generator {name!r}: atoms need x and w fields")
        xv = _parse_frequency(item["x"])
        wv = _parse_weight(item["w"])
        where = f"generator {name!r}, atom at x={xv}"
        # moments and Gram entries multiply weights, so a subnormal weight
        # or one with an infinite square makes them 0, inf or NaN; checked
        # before a partner is derived from it, so that only a partner that
        # underflows from a valid weight blames the frequency
        if 0 < wv < sys.float_info.min or not math.isfinite(wv * wv):
            raise ConfigError(f"{where}: weight {wv} is not a normal double "
                              "with a finite square")
        if mode == "half":
            if xv < 0:
                raise ConfigError(
                    f"generator {name!r}: half mode lists x >= 0 only"
                )
            atoms.append(SpectralAtom(xv, wv))
            if xv > 0:
                # synthesize the partner so balance holds exactly
                partner = wv * math.exp(-TWO_PI * xv)
                if partner < sys.float_info.min:
                    raise ConfigError(f"{where}: frequency too large, its "
                                      f"partner weight {partner} underflows")
                atoms.append(SpectralAtom(-xv, partner))
        else:
            atoms.append(SpectralAtom(xv, wv))

    g = GeneratorSpec(name, tuple(atoms))
    if not math.isfinite(g.v * g.v):
        raise ConfigError(f"generator {name!r}: mass {g.v} is too "
                          "large, its square overflows a double")
    if mode == "full":
        check_detailed_balance(g)
    return g


def build_model(config: dict) -> ModelSpec:
    """Build a :class:`ModelSpec` from a parsed JSON configuration.

    Schema: ``{"generators": [{"name": str, "mode": "half"|"full",
    "atoms": [{"x": num | "ln2/(2pi)", "w": num}, ...]}, ...],
    "tolerance": num?}``.  Every weight, given or synthesized, and every
    generator's mass must be a normal double with a finite square.
    """
    if not isinstance(config, dict):
        raise ConfigError("model config must be a JSON object")
    gens_cfg = config.get("generators")
    if not isinstance(gens_cfg, list) or not gens_cfg:
        raise ConfigError('config needs a non-empty "generators" list')
    unknown = set(config) - {"generators", "tolerance"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tol = config.get("tolerance", DEFAULT_TOLERANCE)
    tol = _finite_float(tol)
    if tol is None or tol <= 0:
        raise ConfigError("tolerance must be a positive finite number")
    return ModelSpec(tuple(_build_generator(e) for e in gens_cfg), tolerance=tol)


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError:
            raise ConfigError(
                f"JSON in {path} is nested too deeply to read") from None
    return build_model(config)


# ----------------------------------------------------------------------
# ready-made models used by the CLI default and the test batteries
# ----------------------------------------------------------------------


def two_atom_model() -> ModelSpec:
    """Generator "g", the documented two-atom example: weight 2/3 at
    ln2/(2 pi), 1/3 at the mirror frequency; total mass 1."""
    return build_model(
        {
            "generators": [
                {
                    "name": "g",
                    "mode": "half",
                    "atoms": [{"x": _FREQ_LITERAL, "w": 2.0 / 3.0}],
                }
            ]
        }
    )


def tracial_model() -> ModelSpec:
    """Generator "g" with a single atom at 0: trivial modular flow,
    semicircular of variance 1."""
    return build_model(
        {
            "generators": [
                {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1.0}]}
            ]
        }
    )
