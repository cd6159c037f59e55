"""Constraints on finite-speed-influence models of quantum correlations.

The package computes joint statistics of a two-qubit-plus-qutrit state
family, derives positivity bounds on the correlation term left free to
any no-signaling completion, optimizes the induced CHSH bound window
over measurement settings, decides marginal compatibility by linear
programming, and scans purifications for marginal uniqueness.
"""

from .bounds import (BoundsReport, FamilyBounds, family_bounds,
                     family_chsh_bounds, h_bounds)
from .correlations import (Decomposition, born_joint3, chsh_value,
                           correlator, decompose, fach_closed_form,
                           horodecki_chsh_max, quantum_joint, recompose)
from .errors import (DegenerateInputError, InvalidInputError,
                     InvalidMarginalError)
from .feasibility import (FeasibilityResult, MarginalSpec, Theorem1Report,
                          joint_feasible, theorem1_check)
from .measurements import (BlochSetting, QutritBasis, SettingsFamily,
                           qubit_projector, qutrit_unitary)
from .optimizer import (OptimizationResult, OptimizerConfig, SweepRecord,
                        maximize_chsh_lower, minimize_chsh_upper, sweep)
from .qlinalg import hermitian_eigenvalues, partial_trace
from .states import ghz3, psi, psi1, psi2, rho_ab_analytic, rho_ac_analytic
from .uniqueness import (PurificationParams, Theorem2Report,
                         UniquenessScanReport, UniquenessVerdict,
                         build_purification, residual, theorem2_check,
                         unique_point_params, uniqueness_scan)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
