"""Moments, conjugate variables and free Fisher information for
time-indexed semicircular families under a modular flow."""

from .algebra import (
    Letter,
    NcPoly,
    Word,
    X_FAMILY,
    Y_FAMILY,
    as_time,
    shift_word,
    word_adjoint,
    word_str,
    x,
    y,
)
from .model import (
    ConfigError,
    DetailedBalanceViolation,
    GeneratorSpec,
    ModelSpec,
    SpectralAtom,
    build_model,
    check_detailed_balance,
    check_kms,
    load_model,
    tracial_model,
    two_atom_model,
)
from .moments import (
    Residual,
    SizeLimitError,
    StateValue,
    brute_force_oracle,
    covariance,
    evaluate_state,
    evaluate_state_detailed,
    evaluate_state_shifted,
    expectation,
    fock_vectors,
)
from .derivation import (
    FamilyError,
    differentiate,
    verify_insertion_identity,
)
from .conjugate import (
    BasisError,
    BasisSpec,
    ConjugateSolution,
    CramerRaoReport,
    DegenerateGramError,
    GridError,
    chi_star,
    cramer_rao_audit,
    embedded_distance,
    enumerate_basis,
    fisher_multi,
    modular_covariance_check,
    self_adjoint_defect,
    solve_conjugate,
    solve_family,
)
from .brownian import expand_state, verify_gradient_expansion
from .core_cp import (
    CoreWord,
    EtaBimoduleElem,
    TrigPoly,
    conditional_expectation,
    core_differentiate,
    eta_inner,
    eta_map,
    factoriality_bound,
    verify_core_identity,
)
from .suite import CheckResult, run_suite

__version__ = "0.1.0"
