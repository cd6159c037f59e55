import subprocess
import sys

import nosig

# The public names of the package.  A removal or addition shows up as a
# diff of this list.
PUBLIC = [
    "BlochSetting", "BoundsReport", "Decomposition", "DegenerateInputError",
    "FamilyBounds", "FeasibilityResult", "InvalidInputError",
    "InvalidMarginalError", "MarginalSpec", "OptimizationResult",
    "OptimizerConfig", "PurificationParams", "QutritBasis", "SettingsFamily",
    "SweepRecord", "Theorem1Report", "Theorem2Report", "UniquenessScanReport",
    "UniquenessVerdict", "born_joint3", "bounds", "build_purification",
    "chsh_value", "correlations", "correlator", "decompose", "errors",
    "fach_closed_form", "family_bounds", "family_chsh_bounds", "feasibility",
    "ghz3", "h_bounds", "hermitian_eigenvalues", "horodecki_chsh_max",
    "joint_feasible", "maximize_chsh_lower", "measurements",
    "minimize_chsh_upper", "optimizer", "partial_trace", "psi", "psi1",
    "psi2", "qlinalg", "quantum_joint", "qubit_projector", "qutrit_unitary",
    "recompose", "residual",
    "rho_ab_analytic", "rho_ac_analytic", "states", "sweep", "theorem1_check",
    "theorem2_check", "tolerances", "unique_point_params", "uniqueness",
    "uniqueness_scan",
]


def test_public_names_pinned():
    assert len(PUBLIC) == 60
    assert sorted(nosig.__all__) == PUBLIC


def test_cli_import_loads_no_third_party_module_but_numpy():
    # numpy is the one dependency; scipy and the like must not load at
    # import time, which every command, and its set-up time, pays
    code = ("import sys; before = set(sys.modules); import nosig.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    loaded = {name.partition(".")[0] for name in out.split()}
    assert {"nosig", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"nosig", "numpy"}
