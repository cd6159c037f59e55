"""Multi-start Nelder-Mead search over the B basis of a CHSH family.

Both objectives (maximize the CHSH lower bound, minimize the upper
bound) contain absolute values, so a derivative-free simplex method with
standard coefficients is used.  The search runs over the six Givens
angles of the shared qutrit basis: bounds._optimal_columns gives each
basis its best four qubit settings in closed form, and their C-flip for
the upper bound, so a trial point is scored by one family_chsh_bounds
call at its 14-parameter family, which reuses the basis terms (f, g)
that the rebuild computed.  Each trial point is centroid + coef *
(centroid - worst) with coef 1 (reflection), then at most one follow-up
per row: 2 (expansion), 1/2 or -1/2 (outside and inside contraction),
all rows' follow-ups evaluated in one objective call.  A failed
expansion keeps the reflection; a failed contraction shrinks the
simplex by 1/2 towards its best vertex.
All restarts of one search advance in lockstep as rows of a batch so the
hot loop is numpy array code rather than a Python loop per restart.
Each vertex keeps a fixed slot in an (R*(d+1), d) array and an (R, d+1)
rank table lists each row's slots best first.  An iteration sorts and
gathers only the live rows, in rank order, and writes new points into
their slots; a row whose diameter falls below tol, or whose best value
falls below an optional target, freezes, already sorted, and is never
touched again.  The uniqueness scan passes a target (the residual whose
distance bound settles its verdict); the sweep passes none, as its
bounds have no floor to stop at.
The diameter test tries the worst vertex first, and the objective sees
at most 1000 rows per call.
levenberg_marquardt_batch is the least-squares counterpart, with the
same lockstep rows, block calls and target freeze; its forward
differences need smooth residuals, which the scan's chart gives.

Determinism: restart r of grid point i in a direction draws from the
private stream of entropy seed and spawn key (i, direction, r), so runs
with the same seed are bit-identical, no two (seed, point) pairs share a
stream, and a longer restart pool extends a shorter one.  Restart 0 is
not random: it starts at the computational basis, whose optimal settings
are z axes, so the GHZ-limit values L = 2 and U = -2 are never missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import _c_flip, _optimal_columns, family_chsh_bounds
from .errors import InvalidInputError
from .states import _check_alpha
from .tolerances import SIMPLEX_DIAMETER

_SIMPLEX_STEP = 0.3
_DIFF_STEP = 1e-7  # forward differences: about sqrt(eps) on O(1) coordinates
_DAMPING = 1e-3  # Marquardt's first lambda: a nearly Gauss-Newton first step
# lambda stays in here, so lambda * max diag(J^T J) stays positive and finite
_DAMPING_RANGE = (1e-20, 1e20)
_BLOCK_ROWS = 1000  # largest batch one objective call sees
# Stream spawn keys: (grid_index, direction, restart) per sweep restart,
# (_SCAN,) for the uniqueness scan.  Directions also index
# family_chsh_bounds' pair.
_LOWER, _UPPER, _SCAN = 0, 1, 2


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 200
    max_iters: int = 2000
    tol: float = SIMPLEX_DIAMETER
    seed: int = 0
    alpha_grid: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            if not _is_count(getattr(self, name), 1):
                raise InvalidInputError(f"{name} must be an integer >= 1")
        t = self.tol
        if not (isinstance(t, (int, float, np.floating))
                and not isinstance(t, bool) and 0 <= t < math.inf):
            raise InvalidInputError(f"tol must be in [0, inf), got {t}")
        _check_seed(self.seed)
        for a in self.alpha_grid:
            _check_alpha(a)


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    params: np.ndarray
    iterations: int


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    cos2_alpha: float
    l_bar: float
    u_bar: float
    params_lower: np.ndarray
    params_upper: np.ndarray
    restarts: int
    iterations_total: int


def _in_blocks(objective, points: np.ndarray) -> np.ndarray:
    """objective(points), called on slices of at most _BLOCK_ROWS rows."""
    if len(points) <= _BLOCK_ROWS:
        return objective(points)
    return np.concatenate([objective(points[i:i + _BLOCK_ROWS])
                           for i in range(0, len(points), _BLOCK_ROWS)])


def _live(xa: np.ndarray, centroid: np.ndarray, tol: float) -> np.ndarray:
    """max_vj |x_vj - x_0j| >= tol per row of xa (d+1, n, d) in rank order.
    Rows the worst vertex leaves open, or whose centroid is not finite (NaN
    or inf elsewhere would reach the max), take the full test."""
    live = (np.abs(xa[-1] - xa[0]).max(axis=1) >= tol) \
        & np.isfinite(centroid).all(axis=1)
    rest = np.nonzero(~live)[0]
    if rest.size:
        live[rest] = np.abs(xa[:, rest] - xa[:1, rest]).max(axis=(0, 2)) >= tol
    return live


def nelder_mead_batch(objective, x0: np.ndarray, *, max_iters: int,
                      tol: float, target: float | None = None):
    """Minimize objective over a batch of starts advanced in lockstep.

    objective maps an (N, d) array to (N,) values; x0 is (R, d), and each
    row's initial simplex has edge _SIMPLEX_STEP along every axis.  Returns
    (best points (R, d), best values (R,), iterations used (R,)).  A row
    freezes once its simplex diameter (max-norm) drops below tol, or,
    when target is given, once its best value is below target (a NaN
    value never is).
    """
    x0 = np.asarray(x0, dtype=float)
    r, d = x0.shape
    x = np.repeat(x0[:, None, :], d + 1, axis=1)
    for i in range(d):
        x[:, i + 1, i] += _SIMPLEX_STEP
    x = x.reshape(r * (d + 1), d)  # vertices stay in their slots
    f = _in_blocks(objective, x)
    rank = np.arange(r * (d + 1)).reshape(r, d + 1)  # slots, best first
    iters = np.zeros(r, dtype=int)
    idx = np.arange(r)  # live rows; frozen rows stay sorted and untouched

    for k in range(max_iters + 1):
        slots = rank[idx]
        order = np.argsort(f[slots], axis=1, kind="stable")
        rank[idx] = slots = np.take_along_axis(slots, order, axis=1)
        fa = f[slots]
        xa = np.take(x, slots.T, axis=0)  # (d+1, n, d), vertex-major
        centroid = xa[:d].sum(axis=0) / d  # summed in rank order
        live = _live(xa, centroid, tol)
        if target is not None:
            live &= ~(fa[:, 0] < target)
        if not live.all():
            idx, slots, fa = idx[live], slots[live], fa[live]
            xa, centroid = xa[:, live], centroid[live]
        if idx.size == 0 or k == max_iters:
            break
        xr = centroid + (centroid - xa[d])  # reflection, coef 1
        fr = _in_blocks(objective, xr)

        sub = np.nonzero((fr < fa[:, 0]) | (fr >= fa[:, d - 1]))[0]
        shrink = sub[:0]
        if sub.size:  # expansion and both contractions share one call
            frs, fws = fr[sub], fa[sub, d]
            expand, inside = frs < fa[sub, 0], frs >= fws
            coef = np.where(expand, 2.0, np.where(inside, -0.5, 0.5))
            xt = centroid[sub] + coef[:, None] * (centroid[sub] - xa[d, sub])
            ft = _in_blocks(objective, xt)
            ok = np.where(expand, ft < frs,
                          np.where(inside, ft < fws, ft <= frs))
            xr[sub[ok]] = xt[ok]  # accepted points replace the reflection
            fr[sub[ok]] = ft[ok]
            shrink = sub[~(ok | expand)]  # a failed expansion keeps xr

        x[slots[:, d]] = xr
        f[slots[:, d]] = fr
        if shrink.size:  # overwrites the worst slot written just above
            xs = xa[:, shrink].swapaxes(0, 1)
            xs = xs[:, :1, :] + 0.5 * (xs[:, 1:, :] - xs[:, :1, :])
            x[slots[shrink, 1:]] = xs
            f[slots[shrink, 1:]] = _in_blocks(
                objective, xs.reshape(-1, d)).reshape(-1, d)
        iters[idx] += 1

    return x[rank[:, 0]], f[rank[:, 0]], iters


def levenberg_marquardt_batch(residuals, x0: np.ndarray, *, max_iters: int,
                              target: float):
    """Minimize ||residuals(x)|| over a batch of starts advanced in lockstep.

    residuals maps an (N, d) array to (N, m) residual vectors; x0 is
    (R, d).  Returns (points (R, d), residual norms (R,), iterations used
    (R,)).  Each iteration takes a forward-difference Jacobian J of the
    live rows, all d shifted copies of them in one call, and solves
    (J^T J + lambda max diag(J^T J) I) delta = -J^T r per row.  A row
    moves only if its sum of squares falls, a NaN one never counting as
    lower, and its lambda is then scaled by 0.3, else by 10 (Marquardt).
    A row freezes once its norm is below target (a NaN norm never is).
    """
    x = np.array(x0, dtype=float)
    r, d = x.shape
    res = _in_blocks(residuals, x)
    cost = np.sum(res * res, axis=1)
    lam = np.full(r, _DAMPING)
    iters = np.zeros(r, dtype=int)
    idx = np.arange(r)  # live rows
    eye = np.eye(d)
    for k in range(max_iters + 1):
        idx = idx[~(np.sqrt(cost[idx]) < target)]
        if idx.size == 0 or k == max_iters:
            break
        n, xl, rl = idx.size, x[idx], res[idx]
        shifted = (xl[:, None, :] + _DIFF_STEP * eye).reshape(n * d, d)
        jt = (_in_blocks(residuals, shifted).reshape(n, d, -1)
              - rl[:, None, :]) / _DIFF_STEP  # J transposed, (n, d, m)
        jtj = jt @ jt.transpose(0, 2, 1)
        top = np.max(np.diagonal(jtj, axis1=1, axis2=2), axis=1)
        damp = lam[idx] * np.where(top > 0.0, top, 1.0)
        delta = np.linalg.solve(jtj + damp[:, None, None] * eye,
                                -(jt @ rl[:, :, None]))[..., 0]
        xt = xl + delta
        rt = _in_blocks(residuals, xt)
        ct = np.sum(rt * rt, axis=1)
        ok = ct < cost[idx]
        x[idx[ok]], res[idx[ok]], cost[idx[ok]] = xt[ok], rt[ok], ct[ok]
        lam[idx] = np.clip(lam[idx] * np.where(ok, 0.3, 10.0),
                           *_DAMPING_RANGE)
        iters[idx] += 1
    return x, np.sqrt(cost), iters


def _is_count(n, floor: int) -> bool:
    """The count rule: an int or np.integer, not a bool, at least floor."""
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n >= floor)


def _check_seed(seed: int) -> int:
    """The seed rule of every randomized command: an integer in [0, 2**64)."""
    if not (_is_count(seed, 0) and seed < 2 ** 64):
        raise InvalidInputError("seed must fit in 64 unsigned bits")
    return seed


def _stream(entropy: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of SeedSequence(entropy, spawn_key=key)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=entropy, spawn_key=key)))


# (low, span) of each uniform draw of a random start: (theta, phi) of the
# three Givens pairs of the B basis
_START_LOW, _START_SPAN = np.array(
    [(0.0, math.pi / 2), (0.0, 2.0 * math.pi)] * 3).T


def _starts(cfg: OptimizerConfig, grid_index: int, direction: int) -> np.ndarray:
    x0 = np.zeros((cfg.restarts, 6))        # row 0: the computational basis
    for r in range(1, cfg.restarts):
        x0[r] = _START_LOW + _START_SPAN * _stream(
            cfg.seed, grid_index, direction, r).random(6)
    return x0


def _search(alpha: float, cfg: OptimizerConfig, grid_index: int,
            direction: int) -> OptimizationResult:
    """Multi-start search over the B basis minimizing sign * bound, where
    the bound is family_chsh_bounds(...)[direction] at the basis's optimal
    qubit settings (their C-flip for the upper bound) and sign flips the
    lower bound."""
    sign = -1.0 if direction == _LOWER else 1.0

    def families(b):  # (R, 6) bases -> (R, 14) parameter rows, (f, g)
        pt, terms = _optimal_columns(alpha, b.T)
        return (pt if direction == _LOWER else _c_flip(pt)).T, terms

    def objective(b):
        p, terms = families(b)  # the C-flip leaves the basis terms as they are
        return sign * family_chsh_bounds(alpha, p, terms=terms)[direction]

    pts, vals, iters = nelder_mead_batch(
        objective, _starts(cfg, grid_index, direction),
        max_iters=cfg.max_iters, tol=cfg.tol)
    k = int(np.argmin(vals))
    return OptimizationResult(value=sign * float(vals[k]),
                              params=families(pts[k:k + 1])[0][0].copy(),
                              iterations=int(iters.sum()))


def maximize_chsh_lower(alpha: float, cfg: OptimizerConfig,
                        grid_index: int = 0) -> OptimizationResult:
    """Best (largest) CHSH lower bound over measurement families."""
    return _search(alpha, cfg, grid_index, _LOWER)


def minimize_chsh_upper(alpha: float, cfg: OptimizerConfig,
                        grid_index: int = 0) -> OptimizationResult:
    """Best (smallest) CHSH upper bound over measurement families."""
    return _search(alpha, cfg, grid_index, _UPPER)


def sweep(cfg: OptimizerConfig) -> list[SweepRecord]:
    """One (l_bar, u_bar) record per grid point, independently optimized."""
    if not cfg.alpha_grid:
        raise InvalidInputError("alpha grid is empty")
    records = []
    for i, alpha in enumerate(cfg.alpha_grid):
        lo = maximize_chsh_lower(alpha, cfg, grid_index=i)
        up = minimize_chsh_upper(alpha, cfg, grid_index=i)
        records.append(SweepRecord(
            alpha=float(alpha), cos2_alpha=math.cos(alpha) ** 2,
            l_bar=lo.value, u_bar=up.value,
            params_lower=lo.params, params_upper=up.params,
            restarts=cfg.restarts,
            iterations_total=lo.iterations + up.iterations))
    return records
