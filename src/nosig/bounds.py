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
of 14-parameter families (the optimizer's hot loop); family_bounds is a
batch of one and the only per-pair report.  Both share the closed form
correlations.outcome_terms, so the independent check is the Born rule:
the test suite rebuilds every per-outcome window from
decompose(quantum_joint(...)) and pins the kernel to it at 1e-12.

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
both positive, so v11 and v22 can be taken in {2 g_0, 2 g_1, 2 g_2}.  _optimal_columns
rebuilds those settings for a batch of bases.  Their C-flip c -> -c maps
the window (L, U) to (-U, -L), so it minimizes chsh_upper, at -L.  The
rebuild also returns the bases' (f, g), and family_chsh_bounds takes them
as terms, so a sweep trial evaluates its basis once.
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


def _pair_ranges(alpha: float, p: np.ndarray, terms=None
                 ) -> tuple[np.ndarray, ...]:
    """Per-outcome h ranges (lower, upper), each (3, 2, 2, R), of (R, 14)
    parameter rows, then their sums over outcomes, each (2, 2, R).  Index
    [b, x, z, r] is outcome b of the pair of A setting x and C setting z.
    terms, when given, is outcome_terms of the rows' bases, (f, g)."""
    pt = np.ascontiguousarray(p.T)
    if terms is None:
        terms = outcome_terms(alpha, batched_columns(pt[8:14]))
    f, g = terms
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


def family_chsh_bounds(alpha: float, params: np.ndarray, *, terms=None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(chsh_lower, chsh_upper) for a batch of parameter vectors.

    params has shape (R, 14), or (14,), laid out as SettingsFamily.to_params;
    the result is a pair of (R,) arrays.  family_bounds is the same kernel
    on a batch of one; the test suite checks both against the Born rule.
    terms, if given, must be outcome_terms(alpha, batched_columns(
    params[:, 8:].T)), f (3, R) and g (3, 3, R), as _optimal_columns returns
    them; the kernel then skips that step with the same result, bit for bit.
    """
    p = np.atleast_2d(np.asarray(params, dtype=float))
    if p.ndim != 2 or p.shape[1] != 14:
        raise InvalidInputError(
            f"params must have shape (R, 14), got {p.shape}")
    if terms is not None and [np.shape(t) for t in terms] != [
            (3, len(p)), (3, 3, len(p))]:
        raise InvalidInputError(
            f"terms must have shapes (3, {len(p)}) and (3, 3, {len(p)})")
    return _chsh_window(*_pair_ranges(_check_alpha(alpha), p, terms)[2:])


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


def _best_sums(g: np.ndarray) -> np.ndarray:
    """The sums v11+v12, v21+v22, v11+v21, v12-v22, (4, R, 3), of a tuple
    of signed bias vectors that maximizes the module docstring's sum, per
    column of g (3, 3, R): the best (v11, v22) in (g0, g1, g2)^2 for the
    best v12 plus the best v21, on (3, 2, 6, 3, R) arrays of norms."""
    nv = np.sqrt(np.maximum((_NORM2 * (g * g).sum(axis=1)).sum(axis=1), 0.0))
    # [i, edge, j or k, l, R]: |v11 + v12| + |v12 - v22| for edge 0 and
    # |v11 + v21| + |v21 + v22| for edge 1, with v11 = g_i and v22 = g_l
    t = nv[_PLUS[:3, None, :, None]] + nv[_EDGES]
    best = t.max(axis=2).sum(axis=1).reshape(9, -1).argmax(axis=0)
    i, l = np.divmod(best, 3)
    cols = np.arange(i.size)
    j, k = t[i, :, :, l, cols].argmax(axis=2).T
    v = np.concatenate([g, -g])
    v = v[np.array((i, k, i, j, j, l, k, l + 3)), :, cols]
    return v[:4] + v[4:]


def _optimal_columns(alpha: float, b: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(14, R) parameter columns: each basis of b (6, R) with the qubit
    settings a1, a2, c1, c2 that maximize its chsh_lower, the directions
    of the vectors of _best_sums (the z axis where one is zero); and the
    bases' outcome_terms (f, g), which family_chsh_bounds takes as terms
    for these columns and for their _c_flip."""
    pt = np.empty((14, b.shape[1]))
    pt[8:] = b  # contiguous rows for the trigonometry
    terms = outcome_terms(alpha, batched_columns(pt[8:]))
    s = _best_sums(terms[1])
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    np.arctan2(np.hypot(x, y), z, out=pt[0:8:2])
    np.arctan2(y, x, out=pt[1:8:2])
    return pt, terms


def _c_flip(pt: np.ndarray) -> np.ndarray:
    """Parameter columns with c1, c2 antipodal: (theta, phi) -> (pi -
    theta, phi + pi), which maps the window (L, U) to (-U, -L)."""
    out = pt.copy()
    out[4:8:2] = np.pi - pt[4:8:2]
    out[5:8:2] += np.pi
    return out
