"""Positivity bounds on the free correlation term and their CHSH sums.

With the b-marginal weight f and the single-party biases a, c of one
measurement triple fixed, the joint term h can only range over
[-f + |a+c|, f - |a-c|]; outcome-wise sums bound the A-C correlator, and
the signed four-measurement combination bounds the CHSH value of every
completion.  A family whose lower bound exceeds 2 (or upper bound falls
below -2) would force a CHSH violation on any no-signaling completion.

Two evaluation paths share one closed form, correlations.outcome_terms,
and one h range.  The dataclass path goes through one measurement at a
time and is convenient for reports; the array path evaluates a whole
batch of 14-parameter families at once and is the optimizer's hot loop
(single-core vectorization).  Because both paths share the closed form,
the independent check is the Born rule: the test suite rebuilds the
window from decompose(quantum_joint(...)) and pins it to the batched
path at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import fach_closed_form, outcome_terms
from .errors import InvalidMarginalError
from .measurements import (BlochSetting, QutritBasis, SettingsFamily,
                           batched_columns, bloch_vectors)


def _h_range(f, a, c):
    """[-f + |a+c|, f - |a-c|], without the validity check of h_bounds."""
    return -f + np.abs(a + c), f - np.abs(a - c)


def h_bounds(f, a, c):
    """Range [lower, upper] of the correlation term h given (f, a, c).

    Accepts scalars or same-shape arrays; requires f >= max(|a|, |c|) up
    to slack, which is exactly when the four sign probabilities can all
    be nonnegative.  A degenerate outcome f=0 forces a=c=0 and pins h=0.
    """
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(f < np.maximum(np.abs(a), np.abs(c)) - tol.MARGINAL_FEASIBLE):
        raise InvalidMarginalError("f < max(|a|, |c|): no nonnegative completion")
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
    f, abias, cbias = fach_closed_form(alpha, a, b, c)
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


def family_bounds(alpha: float, fam: SettingsFamily) -> FamilyBounds:
    """CHSH bound window of a four-measurement family with shared B basis."""
    m11 = measurement_bounds(alpha, fam.a1, fam.b, fam.c1)
    m12 = measurement_bounds(alpha, fam.a1, fam.b, fam.c2)
    m21 = measurement_bounds(alpha, fam.a2, fam.b, fam.c1)
    m22 = measurement_bounds(alpha, fam.a2, fam.b, fam.c2)
    return FamilyBounds(
        m11=m11, m12=m12, m21=m21, m22=m22,
        chsh_lower=m11.lower_sum + m12.lower_sum + m21.lower_sum - m22.upper_sum,
        chsh_upper=m11.upper_sum + m12.upper_sum + m21.upper_sum - m22.lower_sum)


def family_chsh_bounds(alpha: float, params: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(chsh_lower, chsh_upper) for a batch of parameter vectors.

    params has shape (R, 14) laid out as SettingsFamily.to_params; the
    result is a pair of (R,) arrays.  Same math as family_bounds, fused
    across the batch; the test suite checks it against the Born rule.
    """
    p = np.asarray(params, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    f, g = outcome_terms(alpha, batched_columns(p[:, 8:14]))
    a1, a2, c1, c2 = (np.einsum("rba,ra->rb", g,
                                bloch_vectors(p[:, 2 * i], p[:, 2 * i + 1]))
                      for i in range(4))

    def pair(ai, cj):
        lower, upper = _h_range(f, ai, cj)
        return np.sum(lower, axis=1), np.sum(upper, axis=1)

    l11, u11 = pair(a1, c1)
    l12, u12 = pair(a1, c2)
    l21, u21 = pair(a2, c1)
    l22, u22 = pair(a2, c2)
    return l11 + l12 + l21 - u22, u11 + u12 + u21 - l22
