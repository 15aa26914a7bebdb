"""Numerics for bounding asymptotic entanglement measures at desk scale.

Bipartite density matrices with validated construction, closed-form
measures and certified lower/upper surrogates for distillation and
creation cost, truncated-binomial mixing of state ensembles, finite-copy
protocol rates, and trace-distance balls with corridor and border scans.
All entropic quantities are base 2 (ebits).

The package exports the names the demos use; everything else is
imported from its submodule.
"""

from .continuity import (
    BallSpec,
    ball_constants,
    border_scan,
    corridor_consistency_check,
    lipschitz_bound,
    sample_ball,
)
from .measures import ec_upper, ed_lower, eof_2x2, log_negativity
from .mixing import (
    MixtureSpec,
    binomial_window,
    tail_mass_scan,
    verify_mixing_bound,
)
from .protocols import (
    catalytic_rate,
    concentration_curve,
    concentration_yield,
    eta_continuity_scan,
)
from .states import isotropic_2x3, maximally_mixed, phi_plus, werner
from .stateio import dumps_state

__version__ = "0.1.0"

__all__ = [
    "BallSpec",
    "MixtureSpec",
    "ball_constants",
    "binomial_window",
    "border_scan",
    "catalytic_rate",
    "concentration_curve",
    "concentration_yield",
    "corridor_consistency_check",
    "dumps_state",
    "ec_upper",
    "ed_lower",
    "eof_2x2",
    "eta_continuity_scan",
    "isotropic_2x3",
    "lipschitz_bound",
    "log_negativity",
    "maximally_mixed",
    "phi_plus",
    "sample_ball",
    "tail_mass_scan",
    "verify_mixing_bound",
    "werner",
]
