"""Positivity bounds on the free correlation term and their CHSH sums.

With the b-marginal weight f and the single-party biases a, c of one
measurement triple fixed, the joint term h can only range over
[-f + |a+c|, f - |a-c|]; outcome-wise sums bound the A-C correlator, and
the signed four-measurement combination bounds the CHSH value of every
completion.  A family whose lower bound exceeds 2 (or upper bound falls
below -2) would force a CHSH violation on any no-signaling completion.

One batched kernel gives the per-outcome h ranges of the four
measurement pairs, outcome-major with the row axis last, so a sum over
outcomes is two slab adds.  family_chsh_bounds sums them over a batch
of 14-parameter families (the optimizer's hot loop); family_bounds is a
batch of one.  measurement_bounds is the checked per-triple path.  All
share the closed form correlations.outcome_terms, so the independent
check is the Born rule: the test suite rebuilds the window from
decompose(quantum_joint(...)) and pins both paths to it at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import _check_completion, fach_closed_form, outcome_terms
from .errors import InvalidInputError
from .measurements import (BlochSetting, QutritBasis, SettingsFamily,
                           batched_columns, bloch_vectors)
from .states import _check_alpha


def _h_range(f, a, c):
    """[-f + |a+c|, f - |a-c|], without the validity check of h_bounds."""
    return -f + np.abs(a + c), f - np.abs(a - c)


def h_bounds(f, a, c):
    """Range [lower, upper] of the correlation term h given (f, a, c).

    Accepts scalars or same-shape arrays; requires f >= max(|a|, |c|) up
    to slack (correlations._check_completion).  A degenerate outcome f=0
    forces a=c=0 and pins h=0.
    """
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    _check_completion(f, a, c)
    lower, upper = _h_range(f, a, c)
    if f.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


@dataclass(frozen=True)
class BoundsReport:
    """Per-outcome h ranges and their sums for one measurement triple."""
    lower_b: np.ndarray
    upper_b: np.ndarray
    lower_sum: float
    upper_sum: float


def measurement_bounds(alpha: float, a: BlochSetting, b: QutritBasis,
                       c: BlochSetting) -> BoundsReport:
    """Bounds on the A-C correlator for one measurement triple."""
    f, abias, cbias = fach_closed_form(_check_alpha(alpha), a, b, c)
    lower, upper = h_bounds(f, abias, cbias)
    return BoundsReport(lower_b=lower, upper_b=upper,
                        lower_sum=float(np.sum(lower)),
                        upper_sum=float(np.sum(upper)))


@dataclass(frozen=True)
class FamilyBounds:
    """Correlator bounds of the four measurement pairs and the CHSH window.

    chsh_lower = L11 + L12 + L21 - U22 and chsh_upper = U11 + U12 + U21
    - L22 bracket the CHSH value of every distribution with the quantum
    two-party marginals.
    """
    m11: BoundsReport
    m12: BoundsReport
    m21: BoundsReport
    m22: BoundsReport
    chsh_lower: float
    chsh_upper: float

    @property
    def forces_violation(self) -> bool:
        """True when every completion must violate CHSH (strict at 1e-9)."""
        return (self.chsh_lower > 2.0 + tol.VIOLATION_STRICT
                or self.chsh_upper < -2.0 - tol.VIOLATION_STRICT)


def _pair_ranges(alpha: float, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-outcome h ranges (lower, upper), each (3, 2, 2, R), of (R, 14)
    parameter rows, then their sums over outcomes, each (2, 2, R).  Index
    [b, x, z, r] is outcome b of the pair of A setting x and C setting z."""
    pt = np.ascontiguousarray(p.T)
    f, g = outcome_terms(alpha, batched_columns(pt[8:14]))
    nx, ny, nz = bloch_vectors(pt[0:8:2], pt[1:8:2])
    # biases of a1, a2, c1, c2 along their Bloch vectors, (outcome, 4, R)
    bias = g[:, 0, None] * nx + g[:, 1, None] * ny + g[:, 2, None] * nz
    lo, up = _h_range(f[:, None, None], bias[:, :2, None], bias[:, None, 2:])
    return lo, up, lo[0] + lo[1] + lo[2], up[0] + up[1] + up[2]


def _chsh_window(lo, up):
    """(L11 + L12 + L21 - U22, U11 + U12 + U21 - L22) from pair sums."""
    return (lo[0, 0] + lo[0, 1] + lo[1, 0] - up[1, 1],
            up[0, 0] + up[0, 1] + up[1, 0] - lo[1, 1])


def family_bounds(alpha: float, fam: SettingsFamily) -> FamilyBounds:
    """CHSH bound window of a four-measurement family with shared B basis."""
    alpha = _check_alpha(alpha)
    lo, up, lo_sum, up_sum = _pair_ranges(alpha, np.array([fam.to_params()]))
    chsh_lower, chsh_upper = _chsh_window(lo_sum, up_sum)
    return FamilyBounds(
        *(BoundsReport(lower_b=lo[:, x, z, 0], upper_b=up[:, x, z, 0],
                       lower_sum=float(lo_sum[x, z, 0]),
                       upper_sum=float(up_sum[x, z, 0]))
          for x in range(2) for z in range(2)),
        chsh_lower=float(chsh_lower[0]), chsh_upper=float(chsh_upper[0]))


def family_chsh_bounds(alpha: float, params: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(chsh_lower, chsh_upper) for a batch of parameter vectors.

    params has shape (R, 14), or (14,), laid out as SettingsFamily.to_params;
    the result is a pair of (R,) arrays.  family_bounds is the same kernel
    on a batch of one; the test suite checks both against the Born rule.
    """
    p = np.atleast_2d(np.asarray(params, dtype=float))
    if p.ndim != 2 or p.shape[1] != 14:
        raise InvalidInputError(
            f"params must have shape (R, 14), got {p.shape}")
    return _chsh_window(*_pair_ranges(_check_alpha(alpha), p)[2:])
