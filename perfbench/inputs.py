"""Seeded inputs for the three workloads, built with the standard library.

Nothing here imports ``ncfisher``: a change to the package (its
``sampling`` module included) cannot change what the benchmark feeds it,
and the set-up probe can make the inputs before it starts its clock.

Every workload is a sequence of *cycles*.  A cycle has a fixed op mix;
the seed (and the cycle index) only choose the values inside it: atom
frequencies and weights, grid spacing, letter times and, for ``words``,
the letters themselves.  Runs therefore always hold the same share of
each op kind, which keeps the median and tail latencies on the same kind
of op from run to run.

Letters are ``(family, gen, Fraction)`` triples; model configs use the
package's JSON schema with ``"half"`` mode generators, so every model
satisfies detailed balance by construction.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("galerkin", "words", "cli")

# galerkin grids are uniform with these spacings; spacing times frequency
# stays at or above 0.16 so the three-atom Grams remain well conditioned
GRID_STEPS = (Fraction(3, 4), Fraction(1))


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def generator(rng: random.Random, name: str, pairs: int = 1,
              zero_atom: bool = False, x_range=(8, 35),
              unit_mass: bool = False) -> dict:
    """Half-mode generator: ``pairs`` atoms at distinct x > 0 (each gets
    its balance partner at -x), plus optionally one atom at 0.  With
    ``unit_mass`` a single pair is weighted to total mass 1."""
    atoms = []
    if zero_atom:
        atoms.append({"x": 0, "w": round(rng.uniform(0.3, 0.6), 6)})
    for k in sorted(rng.sample(range(*x_range), pairs)):
        x = k / 100
        w = (1.0 / (1.0 + math.exp(-2.0 * math.pi * x)) if unit_mass
             else round(rng.uniform(0.4, 0.9), 6))
        atoms.append({"x": x, "w": w})
    return {"name": name, "mode": "half", "atoms": atoms}


def total_mass(gen_cfg: dict) -> float:
    """Second moment of a half-mode generator, partners included."""
    return math.fsum(
        a["w"] * (1.0 + math.exp(-2.0 * math.pi * a["x"])) if a["x"] > 0
        else a["w"]
        for a in gen_cfg["atoms"]
    )


def grid(points: int, h: Fraction) -> tuple:
    """Uniform grid of 3, 4 or 5 points containing the target time 0."""
    return {
        3: (-h, Fraction(0), h),
        4: (-h, Fraction(0), h, 2 * h),
        5: (-2 * h, -h, Fraction(0), h, 2 * h),
    }[points]


# ----------------------------------------------------------------------
# galerkin: solves and family functionals, each on a fresh model
# ----------------------------------------------------------------------


def galerkin_cycle(seed: int, cycle: int) -> list:
    """Nine ops: three family functionals at (3 points, degree 2), then
    two-atom and three-atom solves at (4, 3) and (5, 3), one more two-atom
    solve at (5, 3), then a two-generator solve with ``b_gens`` at (3, 3).

    Sorted by cost the kinds fall in clusters, and the mix puts the median
    in the middle of the two (4, 3) solves and the p75 in the middle of the
    three (5, 3) solves, not in a gap between kinds.
    """
    rng = cycle_rng("galerkin", seed, cycle)
    h = rng.choice(GRID_STEPS)

    def pair(pairs_a=1):
        return [generator(rng, "a", pairs_a), generator(rng, "b", 1)]

    def two_atom():
        return [generator(rng, "g", 1)]

    def three_atom():
        return [generator(rng, "g", 1, zero_atom=True, x_range=(22, 33))]

    ops = [
        {"kind": "fisher_multi", "gens": pair(), "grid": grid(3, h),
         "degree": 2},
        {"kind": "cramer_rao_audit", "gens": pair(2), "grid": grid(3, h),
         "degree": 2},
        {"kind": "fisher_multi", "gens": pair(2), "grid": grid(3, h),
         "degree": 2},
    ]
    shapes = [(4, "two-atom"), (4, "three-atom"), (5, "two-atom"),
              (5, "three-atom"), (5, "two-atom")]
    for points, label in shapes:
        gens = two_atom() if label == "two-atom" else three_atom()
        ops.append({"kind": "solve_conjugate", "label": label,
                    "gens": gens, "grid": grid(points, h), "degree": 3})
    ops.append({"kind": "solve_conjugate", "label": "b_gens",
                "gens": pair(), "grid": grid(3, h), "degree": 3})
    for op in ops:
        op.setdefault("label", op["kind"])
        op["label"] = f"{op['label']} ({len(op['grid'])},{op['degree']})"
    return ops


# ----------------------------------------------------------------------
# words: single-word state evaluations, each on a fresh model
# ----------------------------------------------------------------------

WORD_LENGTHS = tuple(range(8, 25, 2))
SHIFTED_LENGTHS = (12, 16, 20)


def random_time(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def random_model_gens(rng: random.Random, count: int) -> list:
    """``count`` generators, each with one to three atom pairs."""
    return [generator(rng, str(k), pairs=rng.randint(1, 3))
            for k in range(count)]


def random_letters(rng: random.Random, gens: list, n: int) -> tuple:
    """A quarter of the letters are partner (Y) letters and, when the model
    has several generators, a quarter belong to the others; positions and
    times are random.  Fixed shares keep the cost of words of one length
    and generator count close, so the tail is not set by a few extremes."""
    main, others = gens[0]["name"], [g["name"] for g in gens[1:]]
    families = ["Y"] * (n // 4) + ["X"] * (n - n // 4)
    rng.shuffle(families)
    owners = [main] * n
    if others:
        for i in rng.sample(range(n), n // 4):
            owners[i] = rng.choice(others)
    return tuple((f, g, random_time(rng)) for f, g in zip(families, owners))


def words_cycle(seed: int, cycle: int) -> list:
    """Twelve ops: one plain word of each even length 8..24 and three
    words evaluated with a suffix shifted by ``t + i``.

    ``oracle`` marks the plain words whose check also runs the package's
    exhaustive oracle: up to 10 letters always, 12 letters on every fourth
    cycle (it takes about 80 ms there, ten times the whole op).
    """
    rng = cycle_rng("words", seed, cycle)
    ops = []
    # generator counts rotate over the slots, so each length sees models
    # of one, two and three generators equally often
    for slot, n in enumerate(WORD_LENGTHS + SHIFTED_LENGTHS):
        gens = random_model_gens(rng, 1 + (slot + cycle) % 3)
        op = {"gens": gens, "word": random_letters(rng, gens, n)}
        if slot < len(WORD_LENGTHS):
            op.update(kind="state", label=f"state {n}",
                      oracle=n <= 10 or (n <= 12 and cycle % 4 == 0))
        else:
            op.update(kind="shifted", label=f"shifted {n}",
                      split=rng.randint(2, n - 2),
                      t=Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        ops.append(op)
    return ops


# ----------------------------------------------------------------------
# cli: in-process ``ncfisher.cli.run`` over the command mix
# ----------------------------------------------------------------------


def word_text(letters) -> str:
    return " ".join(f"{fam}{gen}:{t}" for fam, gen, t in letters)


def cli_cycle(seed: int, cycle: int) -> list:
    """Eighteen commands.  ``models`` maps a file stem to a config the
    runner writes out; ``argv`` refers to it as ``{model:<stem>}``.
    ``moment`` ops also carry their model stem and letters for the check.

    The mix is set so the median falls among three ~45 ms commands
    (`verify-core` twice, `cramer-rao`) and the p75 among three ~300 ms
    ones (`brownian` twice, `conjugate` at (4, 3)), not in a gap between
    command kinds, where the seed would move it.
    """
    rng = cycle_rng("cli", seed, cycle)
    two = {"generators": [generator(rng, "g", 1)]}
    three = {"generators": [generator(rng, "g", 1, zero_atom=True,
                                      x_range=(22, 33))]}
    # unit masses, so `cramer-rao` asserts its identity
    pair = {"generators": [generator(rng, "a", unit_mass=True),
                           generator(rng, "b", unit_mass=True)]}
    models = {"two": two, "three": three, "pair": pair}
    h = rng.choice(GRID_STEPS)

    def grid_arg(points):
        return ",".join(str(t) for t in grid(points, h))

    def cmd(*argv, **extra):
        return {"kind": argv[0], "label": argv[0], "argv": list(argv),
                "models": models, **extra}

    def moment(stem, n):
        # primary and partner letters of the sole generator "g"
        letters = tuple((rng.choice("XY"), "g", random_time(rng))
                        for _ in range(n))
        return cmd("moment", "--model", f"{{model:{stem}}}",
                   "--word", word_text(letters), model=stem, word=letters)

    def brownian_word(n):
        return word_text(("X", "g", random_time(rng)) for _ in range(n))

    sub_seed = str(rng.randint(0, 10**6))
    m2, m3, mp = "{model:two}", "{model:three}", "{model:pair}"
    return [
        cmd("check-kms", "--model", m3),
        moment("two", 4),
        moment("three", 6),
        moment("two", 8),
        moment("three", 10),
        moment("two", 12),
        cmd("cramer-rao", "--model", mp, "--grid", grid_arg(3)),
        cmd("chi-star", "--model", m2, "--grid", grid_arg(3)),
        cmd("covariance", "--model", m2, "--grid", grid_arg(3),
            "--shift", str(Fraction(rng.randint(-4, 4), 4))),
        cmd("verify-lemma2", "--model", m2, "--degree", "6",
            "--seed", sub_seed),
        cmd("verify-core", "--model", m2, "--x-degree", "6",
            "--seed", sub_seed),
        cmd("verify-core", "--model", m3, "--x-degree", "6",
            "--seed", sub_seed),
        cmd("brownian", "--model", m2, "--word", brownian_word(12)),
        cmd("brownian", "--model", m3, "--word", brownian_word(12)),
        cmd("conjugate", "--model", m3, "--grid", grid_arg(4),
            "--degree", "3"),
        cmd("conjugate", "--model", m2, "--grid", grid_arg(5),
            "--degree", "3"),
        cmd("fisher", "--model", m2, "--grid", grid_arg(5), "--degree", "3"),
        cmd("suite", "--seed", sub_seed),
    ]

CYCLES = {"galerkin": galerkin_cycle, "words": words_cycle, "cli": cli_cycle}


def model_configs(workload: str, seed: int) -> list:
    """Every model config of the workload's first cycle."""
    ops = CYCLES[workload](seed, 0)
    if workload == "cli":
        return list(ops[0]["models"].values())
    return [{"generators": op["gens"]} for op in ops]
