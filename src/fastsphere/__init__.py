"""Equilibria and phase transitions of a fast-diffusion free energy on S^d.

The free energy couples a fast-diffusion entropy (exponent 0 < m < 1) with
a quadratic attraction of strength kappa on the unit d-sphere.  This
package computes its equilibrium branches (uniform, fully supported, and
atom-plus-density), the critical strengths kappa1..kappa3 and kappa_c
where they exchange stability or optimality, and the resulting global
minimizer diagram.
"""

from .energy import (
    EnergyReport,
    classify_minimizer,
    critical_set,
    energy_fully_supported,
    energy_singular,
    energy_uniform,
    equilibria_at,
    kappa_c,
)
from .equilibria import (
    CriticalSet,
    FullySupportedState,
    SingularState,
    alpha_roots,
    fully_supported_density,
    fully_supported_state,
    fully_supported_states,
    rho_bar_density,
    s_bar,
    singular_state,
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
    "BracketFailureError",
    "CriticalSet",
    "EnergyReport",
    "FastSphereError",
    "FullySupportedState",
    "InvalidParamError",
    "NotIntegrableError",
    "OutOfWindowError",
    "Regime",
    "RegimeCase",
    "SingularState",
    "SphereGeometry",
    "ThetaIntegralSpec",
    "ThresholdDegenerateError",
    "ToleranceNotMetError",
    "WrongRegimeError",
    "alpha_roots",
    "classify_minimizer",
    "classify_regime",
    "critical_set",
    "energy_fully_supported",
    "energy_singular",
    "energy_uniform",
    "equilibria_at",
    "eta1_closed_form",
    "fully_supported_density",
    "fully_supported_state",
    "fully_supported_states",
    "kappa_c",
    "rho_bar_density",
    "run_verification",
    "s_bar",
    "singular_state",
    "sphere_geometry",
    "theta_integral",
]
