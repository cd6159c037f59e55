"""Positivity bounds on the free correlation term and their CHSH sums.

With the b-marginal weight f and the single-party biases a, c of one
measurement triple fixed, the joint term h can only range over
[-f + |a+c|, f - |a-c|]; outcome-wise sums bound the A-C correlator, and
the signed four-measurement combination bounds the CHSH value of every
completion.  A family whose lower bound exceeds 2 (or upper bound falls
below -2) would force a CHSH violation on any no-signaling completion.
None does: with one shared B basis, h_b = a_b c_b / f_b (0 where f_b =
0) is the product of the quantum conditionals given b, so it lies in
every window, and as one joint over all four settings its CHSH value is
at most 2 in size.  So L <= 2 and U >= -2 for every family; the sweep
measures the margin 2 - L_bar, whose sign is not in doubt.

One batched kernel gives the per-outcome h ranges of the four
measurement pairs, outcome-major with the row axis last, so a sum over
outcomes is two slab adds.  family_chsh_bounds sums them over a batch
of 14-parameter families; family_bounds is a batch of one and the only
per-pair report.  Both share the closed form correlations.outcome_terms,
so the independent check is the Born rule: the test suite rebuilds every
per-outcome window from decompose(quantum_joint(...)) and pins the
kernel to it at 1e-12.

For a fixed B basis the best qubit settings have a closed form.  The
bias of setting n at outcome b is g_b . n, with sum_b f_b = 1 and
sum_b g_b = 0, so sum_b |g_b . n| is the largest v . n over v in
{0, +-2 g_b}, and

    chsh_lower + 4 = max over v11, v12, v21, v22 of
        |v11+v12| + |v21+v22| + |v11+v21| + |v12-v22|,

reached with a1, a2, c1, c2 along those four sums (any axis where a sum
is 0).  The right side is convex in each v and 0 is the midpoint of
+-2 g_b, so the maximum never needs 0.  It is even under v -> -v and
keeps its value under the relabelings (v21, v22, v11, v12) and
(v12, v11, -v22, -v21), whose v11 and v22 have the signs of v21, v12
and of v12, -v21; one of them makes the two signs equal, v -> -v makes
both positive, so v11 and v22 can be taken in {2 g_0, 2 g_1, 2 g_2}.

Every norm in that sum is twice one of ten that depend on the
q_b = |g_b|^2 alone (the _NORM2 table below), so the best lower bound of
a basis is L = -4 + 2 Psi(q_0, q_1, q_2), with Psi the maximum over that
table (_norm_table).  A 6-column row of family_chsh_bounds is a basis
at its best settings: its window is (-4 + 2 Psi, 4 - 2 Psi), with no
settings built and no kernel call.  The C-flip c -> -c swaps |a + c|
and |a - c|, so it maps (L, U) to (-U, -L), and the smallest U over
settings is minus the largest L.  The sweep scores its trials so; only a
search's winner gets settings, from _optimal_settings, as unit vectors
along the four sums of _best_sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import _check_completion, outcome_terms
from .errors import InvalidInputError
from .measurements import SettingsFamily, batched_columns, bloch_vectors
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
    n = bloch_vectors(pt[0:8:2], pt[1:8:2])
    # biases of a1, a2, c1, c2 along their Bloch vectors, (outcome, 4, R)
    bias = g[:, 0, None] * n[0] + g[:, 1, None] * n[1] + g[:, 2, None] * n[2]
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
    Rows of 6, the Givens angles of a B basis alone, give its window at
    its best settings, (-4 + 2 Psi, 4 - 2 Psi) (module docstring).
    """
    p = np.atleast_2d(np.asarray(params, dtype=float))
    if p.ndim != 2 or p.shape[1] not in (6, 14):
        raise InvalidInputError(
            f"params must have shape (R, 14) or (R, 6), got {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidInputError("params must be finite")
    alpha = _check_alpha(alpha)
    if p.shape[1] == 14:
        return _chsh_window(*_pair_ranges(alpha, p)[2:])
    best = _norm_table(outcome_terms(
        alpha, batched_columns(np.ascontiguousarray(p.T)))[1])[1]
    lower = -4.0 + 2.0 * best.max(axis=0)
    return lower, -lower


# V = (g0, g1, g2, -g0, -g1, -g2), the signed bias vectors of a basis
# (half the v of the module docstring, which only scales the sum).
# Row k of _NORM2 maps the |g_b|^2 to the k-th distinct |V_i + V_j|^2:
# 0, |2 g_b|^2, |g_a + g_b|^2 = |g_c|^2 and, by the parallelogram law,
# |g_a - g_b|^2 = 2|g_a|^2 + 2|g_b|^2 - |g_c|^2, with c the third
# outcome.  _PLUS[i, j] is the k of |V_i + V_j|, and _EDGES[0][j, l] that
# of |V_j - V_l| = |V_j + V_(l+3)|, _EDGES[1][j, l] that of |V_j + V_l|.
_NORM2 = np.concatenate([np.zeros((1, 3)), 4.0 * np.eye(3), np.eye(3),
                         2.0 - 3.0 * np.eye(3)])[:, :, None]
_PLUS = np.array([[1, 6, 5, 0, 9, 8],
                  [6, 2, 4, 9, 0, 7],
                  [5, 4, 3, 8, 7, 0],
                  [0, 9, 8, 1, 6, 5],
                  [9, 0, 7, 6, 2, 4],
                  [8, 7, 0, 5, 4, 3]])
_EDGES = np.stack([_PLUS[:, 3:], _PLUS[:, :3]])


def _norm_table(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The norm table t (3, 2, 6, 3, R) of the bases g (3, 3, R), and the
    best sum (9, R) of each (v11, v22) = (g_i, g_l), at row 3 i + l.
    t[i, edge, j or k, l] is |v11 + v12| + |v12 - v22| for edge 0 and
    |v11 + v21| + |v21 + v22| for edge 1, with v12 = V_j or v21 = V_k."""
    nv = np.sqrt(np.maximum((_NORM2 * (g * g).sum(axis=1)).sum(axis=1), 0.0))
    t = nv[_PLUS[:3, None, :, None]] + nv[_EDGES]
    m = t.max(axis=2)
    return t, (m[:, 0] + m[:, 1]).reshape(9, -1)


def _best_sums(g: np.ndarray) -> np.ndarray:
    """The sums v11+v12, v21+v22, v11+v21, v12-v22, (axis, 4, R), of a
    tuple of signed bias vectors that maximizes the module docstring's sum,
    per column of g (3, 3, R): the best (v11, v22) in (g0, g1, g2)^2 for
    the best v12 plus the best v21, on the tables of _norm_table."""
    t, best = _norm_table(g)
    i, l = np.divmod(best.argmax(axis=0), 3)
    cols = np.arange(i.size)
    j, k = t[i, :, :, l, cols].argmax(axis=2).T
    gt = g.swapaxes(0, 1)
    v = np.concatenate([gt, -gt], axis=1).reshape(3, -1)  # [axis, 6 R]
    v = np.take(v, np.array((i, k, i, j, j, l, k, l + 3)) * i.size + cols,
                axis=1)
    return v[:, :4] + v[:, 4:]


def _optimal_settings(alpha: float, b: np.ndarray) -> np.ndarray:
    """Unit vectors n (3, 4, R), axis first, of the qubit settings a1, a2,
    c1, c2 that maximize the chsh_lower of each basis of b (6, R): along
    the sums of _best_sums, and the z axis where a sum is zero."""
    n = _best_sums(outcome_terms(
        alpha, batched_columns(np.ascontiguousarray(b)))[1])
    norm = np.sqrt((n * n).sum(axis=0))
    zero = norm == 0.0  # n is 0 there: it becomes (0, 0, 1) / 1
    n[2] += zero
    return n / (norm + zero)
