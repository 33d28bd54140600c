"""Equilibria and phase transitions of a fast-diffusion free energy on S^d.

The free energy couples a fast-diffusion entropy (exponent 0 < m < 1) with
a quadratic attraction of strength kappa on the unit d-sphere.  This
package computes its equilibrium branches (uniform, fully supported, and
atom-plus-density), the critical strengths kappa1..kappa3 and kappa_c
where they exchange stability or optimality, and the resulting global
minimizer diagram.
"""

from .energy import (
    BranchEnergyGain,
    EnergyReport,
    branch_energy_gain,
    classify_minimizer,
    critical_set,
    delta_mixture_energy,
    energy_fully_supported,
    energy_singular,
    energy_uniform,
    equilibria_at,
    kappa_c,
    second_variation_gap,
)
from .equilibria import (
    CriticalSet,
    FullySupportedState,
    SingularState,
    UniformState,
    alpha_roots,
    com_norm_of_eta,
    fully_supported_density,
    fully_supported_state,
    fully_supported_states,
    inverse_kappa,
    kappa1,
    kappa2,
    kappa2_quadrature,
    kappa3_and_alpha_bar,
    rho_bar_density,
    s_bar,
    singular_state,
    solve_eta,
    uniform_state,
)
from .errors import (
    BracketFailureError,
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    OutOfWindowError,
    ThresholdDegenerateError,
    ToleranceNotMetError,
    WrongRegimeError,
)
from .model import (
    ModelParams,
    Regime,
    RegimeCase,
    SphereGeometry,
    ThetaIntegralSpec,
    classify_regime,
    eta1_closed_form,
    sphere_geometry,
    theta_integral,
)
from .verification import run_verification

__version__ = "0.1.0"

__all__ = [
    "BranchEnergyGain",
    "BracketFailureError",
    "CriticalSet",
    "EnergyReport",
    "FastSphereError",
    "FullySupportedState",
    "InvalidParamError",
    "ModelParams",
    "NotIntegrableError",
    "OutOfWindowError",
    "Regime",
    "RegimeCase",
    "SingularState",
    "SphereGeometry",
    "ThetaIntegralSpec",
    "ThresholdDegenerateError",
    "ToleranceNotMetError",
    "UniformState",
    "WrongRegimeError",
    "alpha_roots",
    "branch_energy_gain",
    "classify_minimizer",
    "classify_regime",
    "com_norm_of_eta",
    "critical_set",
    "delta_mixture_energy",
    "energy_fully_supported",
    "energy_singular",
    "energy_uniform",
    "equilibria_at",
    "eta1_closed_form",
    "fully_supported_density",
    "fully_supported_state",
    "fully_supported_states",
    "inverse_kappa",
    "kappa1",
    "kappa2",
    "kappa2_quadrature",
    "kappa3_and_alpha_bar",
    "kappa_c",
    "rho_bar_density",
    "run_verification",
    "s_bar",
    "second_variation_gap",
    "singular_state",
    "solve_eta",
    "sphere_geometry",
    "theta_integral",
    "uniform_state",
]
