import math
import sys

import numpy as np
import pytest

from ncfisher.model import (
    ConfigError,
    DetailedBalanceViolation,
    GeneratorSpec,
    LN2_OVER_2PI,
    SpectralAtom,
    build_model,
    check_detailed_balance,
    check_kms,
    tracial_model,
    two_atom_model,
)

A = LN2_OVER_2PI


def test_tracial_eta_is_constant():
    g = tracial_model().generators[0]
    for z in (0, 1.5, -3, 2 + 1j):
        assert g.eta(z) == pytest.approx(1.0)
    assert g.is_tracial
    assert g.v == 1.0


def test_two_atom_eta_values():
    g = two_atom_model().generators[0]
    assert g.eta(0) == pytest.approx(1.0, abs=1e-15)
    expected = math.cos(math.log(2)) + 1j * math.sin(math.log(2)) / 3
    assert g.eta(1) == pytest.approx(expected, abs=1e-12)
    # the documented numeric value
    assert g.eta(1).real == pytest.approx(0.76924, abs=1e-5)
    assert g.eta(1).imag == pytest.approx(0.21299, abs=1e-5)
    assert not g.is_tracial


def test_eta_reality_symmetry():
    g = two_atom_model().generators[0]
    for t in (0.3, 1.7, -2.5):
        assert g.eta(-t) == pytest.approx(g.eta(t).conjugate(), abs=1e-14)


def test_eta_positive_definite_on_grid():
    g = two_atom_model().generators[0]
    rng = np.random.default_rng(7)
    grid = np.sort(rng.uniform(-3, 3, size=12))
    gram = np.array([[g.eta(tj - ti) for tj in grid] for ti in grid])
    assert np.linalg.eigvalsh(gram).min() >= -1e-9


def test_half_mode_synthesizes_partner():
    m = build_model(
        {"generators": [{"name": "g", "mode": "half",
                         "atoms": [{"x": A, "w": 2 / 3}]}]}
    )
    g = m.generators[0]
    atoms = {a.x: a.w for a in g.atoms}
    assert atoms[A] == 2 / 3
    # e^{-2 pi a} = 1/2 exactly in intent; synthesized weight is w * exp(...)
    assert atoms[-A] == (2 / 3) * math.exp(-2 * math.pi * A)
    assert atoms[-A] == pytest.approx(1 / 3, abs=1e-15)
    assert g.v == pytest.approx(1.0, abs=1e-15)
    check_detailed_balance(g)


def test_half_mode_zero_atom_is_tracial():
    m = build_model(
        {"generators": [{"name": "g", "mode": "half",
                         "atoms": [{"x": 0, "w": 1}]}]}
    )
    assert m.generators[0].is_tracial
    assert m.generators[0].v == 1.0


def test_half_mode_rejects_negative_frequency():
    with pytest.raises(ConfigError):
        build_model(
            {"generators": [{"name": "g", "mode": "half",
                             "atoms": [{"x": -0.25, "w": 1}]}]}
        )


def test_full_mode_requires_balance():
    with pytest.raises(DetailedBalanceViolation):
        build_model(
            {"generators": [{"name": "g", "mode": "full",
                             "atoms": [{"x": A, "w": 1}, {"x": -A, "w": 1}]}]}
        )


def test_full_mode_accepts_balanced_atoms():
    w_minus = 1.0 * math.exp(-2 * math.pi * A)
    m = build_model(
        {"generators": [{"name": "g", "mode": "full",
                         "atoms": [{"x": A, "w": 1.0},
                                   {"x": -A, "w": w_minus}]}]}
    )
    assert m.generators[0].v == pytest.approx(1.5, abs=1e-12)


def test_missing_partner_is_violation():
    g = GeneratorSpec("g", (SpectralAtom(0.25, 1.0),))
    with pytest.raises(DetailedBalanceViolation):
        check_detailed_balance(g)


def test_frequency_literal():
    m = build_model(
        {"generators": [{"name": "g", "mode": "half",
                         "atoms": [{"x": "ln2/(2pi)", "w": 2 / 3}]}]}
    )
    assert m.generators[0].atoms[0].x == A
    m2 = build_model(
        {"generators": [{"name": "g", "mode": "full",
                         "atoms": [{"x": "ln2/(2pi)", "w": 1.0},
                                   {"x": "-ln2/(2pi)",
                                    "w": math.exp(-2 * math.pi * A)}]}]}
    )
    assert {a.x for a in m2.generators[0].atoms} == {A, -A}
    with pytest.raises(ConfigError):
        build_model(
            {"generators": [{"name": "g", "mode": "half",
                             "atoms": [{"x": "pi", "w": 1}]}]}
        )


def test_kms_deviation_small_iff_balanced():
    grid = [-5 + 0.1 * k for k in range(101)]
    assert check_kms(two_atom_model().generators[0], grid) < 1e-12
    assert check_kms(tracial_model().generators[0], grid) == 0.0
    # unbalanced atoms produce a genuinely large boundary mismatch
    bad = GeneratorSpec("g", (SpectralAtom(A, 1.0), SpectralAtom(-A, 1.0)))
    dev = max(abs(bad.eta(complex(t, 1)) - bad.eta(-t)) for t in grid)
    assert dev > 0.1
    with pytest.raises(DetailedBalanceViolation):
        check_kms(bad, grid)


def test_schema_errors():
    with pytest.raises(ConfigError):
        build_model({})
    with pytest.raises(ConfigError):
        build_model({"generators": []})
    with pytest.raises(ConfigError):
        build_model({"generators": [{"name": "g"}]})
    with pytest.raises(ConfigError):
        build_model({"generators": [{"name": "g", "mode": "diag",
                                     "atoms": [{"x": 0, "w": 1}]}]})
    with pytest.raises(ConfigError):
        build_model({"generators": [{"name": "g", "mode": "half",
                                     "atoms": []}]})
    with pytest.raises(ConfigError):
        build_model({"generators": [{"name": "g", "mode": "half",
                                     "atoms": [{"x": 0, "w": 1}]}],
                     "extra": 1})
    with pytest.raises(ConfigError):
        build_model({"generators": [{"name": "g", "mode": "half",
                                     "atoms": [{"x": 0, "w": 1}]}],
                     "tolerance": -1})
    with pytest.raises(ConfigError):
        build_model({"generators": [
            {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1}]},
            {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1}]},
        ]})


def test_atom_validation():
    with pytest.raises(ConfigError):
        SpectralAtom(0.0, 0.0)
    with pytest.raises(ConfigError):
        GeneratorSpec("g", (SpectralAtom(0.1, 1.0), SpectralAtom(0.1, 2.0)))


def test_scaling_preserves_balance():
    m = two_atom_model().scaled(4.0)
    g = m.generators[0]
    assert g.v == pytest.approx(4.0, abs=1e-12)
    check_detailed_balance(g)
    assert g.eta(0) == pytest.approx(4.0, abs=1e-12)


def test_model_lookup():
    m = two_atom_model()
    assert m.gen("g").gen_id == "g"
    with pytest.raises(ConfigError):
        m.gen("nope")
    assert m.sole_generator().gen_id == "g"


@pytest.mark.parametrize("atom", [
    {"x": float("nan"), "w": 1.0},
    {"x": 0.1, "w": float("inf")},
    {"x": 0.1, "w": float("nan")},
    {"x": 10**400, "w": 1.0},
])
def test_non_finite_atom_numbers_rejected(atom):
    with pytest.raises(ConfigError, match="finite"):
        build_model({"generators": [
            {"name": "g", "mode": "half", "atoms": [atom]}]})


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tolerance_rejected(tol):
    with pytest.raises(ConfigError, match="finite"):
        build_model({"generators": [
            {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1}]}],
            "tolerance": tol})


BIG = math.sqrt(sys.float_info.max)  # the largest weight with a finite square


def half_mode(*atoms):
    return {"generators": [{"name": "g", "mode": "half",
                            "atoms": [{"x": x, "w": w} for x, w in atoms]}]}


@pytest.mark.parametrize("atoms", [
    [(0, sys.float_info.min)],
    [(0, BIG)],
    [(0, BIG / 4), (1, BIG / 4)],
    [(112, 1.0)],
], ids=["smallest-normal-weight", "largest-weight", "large-mass",
        "fastest-partner"])
def test_weights_just_inside_the_bounds_load(atoms):
    g = build_model(half_mode(*atoms)).generators[0]
    assert all(a.w >= sys.float_info.min for a in g.atoms)
    assert math.isfinite(g.v * g.v)


@pytest.mark.parametrize("config, match", [
    (half_mode((0, math.nextafter(sys.float_info.min, 0))),
     "atom at x=0.0: weight .* not a normal double"),
    (half_mode((0, 1e-320)), "atom at x=0.0: weight .* not a normal double"),
    (half_mode((0, math.nextafter(BIG, math.inf))),
     "atom at x=0.0: weight .* finite square"),
    (half_mode((0, 1e300)), "atom at x=0.0: weight .* finite square"),
    (half_mode((0, BIG / 2), (1, BIG / 2)), "'g': mass .* square overflows"),
    (half_mode((113, 1.0)), "atom at x=113.0: frequency too large"),
    (half_mode((1e300, 1.0)), "atom at x=1e\\+300: frequency too large"),
    ({"generators": [{"name": "g", "mode": "full", "atoms": [
        {"x": 0, "w": 1.0}, {"x": 0.5, "w": 1e-320}]}]},
     "atom at x=0.5: weight .* not a normal double"),
], ids=["subnormal-weight", "1e-320", "weight-square", "1e300",
        "mass-square", "partner-underflow", "x-1e300", "full-mode-weight"])
def test_weights_past_the_bounds_are_refused_at_load(config, match):
    with pytest.raises(ConfigError, match=match):
        build_model(config)


def test_scaling_is_not_bounded_like_loading():
    # the bounds are on the model as loaded; chi-star scales it by 1 + eps
    g = tracial_model().scaled(1e300).generators[0]
    assert g.v == 1e300
