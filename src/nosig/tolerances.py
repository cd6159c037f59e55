"""Central numerical tolerance table.

Every accuracy judgment takes its tolerance from here so that the whole
artifact can be audited (or tightened) in one place.  SIMPLEX_DIAMETER is
the default of OptimizerConfig.tol, which the CLI's ``--tol`` takes as its
default, so a sweep can set its own Nelder-Mead tolerance; it is also the
uniqueness scan's fixed simplex diameter.  The other entries are fixed.
Four 1e-12 literals that only guard arithmetic or trim output stay local:
the division guard in uniqueness._distance, the LP's two pivot thresholds
and the witness print cut-off of ``ghz-check``.
"""

UNIT_NORM = 1e-12          # |<v|v> - 1| for vectors flagged unit
HERMITIAN = 1e-12          # Frobenius norm of M - M^dagger
DENSITY_TRACE = 1e-12      # |tr(rho) - 1|
DENSITY_MIN_EIG = -1e-10   # eigenvalue floor for density matrices
PROB_CLAMP = 1e-12         # Born-rule negatives clamped to 0 within this
PROB_SUM = 1e-10           # distribution normalization check
MARGINAL_FEASIBLE = 1e-10  # slack allowed in F >= max(|A|, |C|)
CORRELATOR_RANGE = 1e-10   # slack on |E| <= 1
LP_FEASIBLE = 1e-9         # phase-I objective threshold for feasibility
SIMPLEX_DIAMETER = 1e-10   # Nelder-Mead convergence: simplex diameter
VIOLATION_STRICT = 1e-9    # margin for the forced-CHSH-violation witness
ORTHO_COLLAPSE = 1e-8      # norm below which Gram-Schmidt output is degenerate
# Residual r puts a purification within max(sqrt(2r)/s, r/(s c)) of the
# unique point, s, c = sin, cos(alpha) (uniqueness docstring), so every
# near-zero residual is within UNIQUE_DISTANCE for 1e-10 <= c^2 <= 0.98.
# The scan stops its rows below uniqueness._stop_residual, derived from
# both: within UNIQUE_DISTANCE / 2 at any interior alpha, so it never
# flips the verdict.
NEAR_ZERO_RESIDUAL = 1e-8  # scan minimizers below this count as exact matches
UNIQUE_DISTANCE = 1e-3     # how close an exact match must sit to the known point
