"""Multi-start Nelder-Mead search over 14-parameter measurement families.

The two objectives (maximize the CHSH lower bound, minimize the upper
bound) contain absolute values, so a derivative-free simplex method with
standard coefficients is used.  Each trial point is centroid + coef *
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
their slots; a row whose diameter falls below tol freezes, already
sorted, and is never touched again.  The diameter test tries the worst
vertex first, and the objective sees at most 1000 rows per call.

Determinism: restart r of grid point i draws from a private stream
seeded by (seed XOR i) with spawn key (direction, r), so runs with the
same seed are bit-identical and a longer restart pool extends a shorter
one.  Restart 0 is not random: it starts at the settings that pin the
correlators in the GHZ limit (qubits on the z axis, computational B),
which guarantees the known endpoint values are never missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import family_chsh_bounds
from .errors import InvalidInputError
from .states import _check_alpha
from .tolerances import SIMPLEX_DIAMETER

_SIMPLEX_STEP = 0.3
_BLOCK_ROWS = 1000  # largest batch one objective call sees
# Stream spawn keys: (direction, restart) per sweep restart, (_SCAN,) for
# the uniqueness scan.  Directions also index family_chsh_bounds' pair.
_LOWER, _UPPER, _SCAN = 0, 1, 2


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 200
    max_iters: int = 2000
    tol: float = SIMPLEX_DIAMETER
    seed: int = 0
    alpha_grid: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0 <= self.tol < math.inf):
            raise InvalidInputError(f"tol must be in [0, inf), got {self.tol}")
        _check_seed(self.seed)
        for a in self.alpha_grid:
            _check_alpha(a)


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    params: np.ndarray
    iterations: int
    restarts: int


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
                      tol: float, step: float = _SIMPLEX_STEP):
    """Minimize objective over a batch of starts advanced in lockstep.

    objective maps an (N, d) array to (N,) values; x0 is (R, d).  Returns
    (best points (R, d), best values (R,), iterations used (R,)).  A row
    freezes once its simplex diameter (max-norm) drops below tol.
    """
    x0 = np.asarray(x0, dtype=float)
    r, d = x0.shape
    x = np.repeat(x0[:, None, :], d + 1, axis=1)
    for i in range(d):
        x[:, i + 1, i] += step
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


def _check_seed(seed: int) -> int:
    """The seed rule of every randomized command: an integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise InvalidInputError("seed must fit in 64 unsigned bits")
    return seed


def _stream(entropy: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of SeedSequence(entropy, spawn_key=key)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=entropy, spawn_key=key)))


def _random_start(rng: np.random.Generator) -> np.ndarray:
    p = np.empty(14)
    for i in range(4):                       # four qubit settings
        p[2 * i] = math.acos(rng.uniform(-1.0, 1.0))
        p[2 * i + 1] = rng.uniform(0.0, 2.0 * math.pi)
    for i in range(3):                       # three Givens pairs
        p[8 + 2 * i] = rng.uniform(0.0, math.pi / 2)
        p[9 + 2 * i] = rng.uniform(0.0, 2.0 * math.pi)
    return p


def _starts(cfg: OptimizerConfig, grid_index: int, direction: int) -> np.ndarray:
    x0 = np.zeros((cfg.restarts, 14))        # row 0: the pinning start
    if direction == _UPPER:  # C settings on -z flip the correlator sign
        x0[0, 4] = x0[0, 6] = math.pi
    for r in range(1, cfg.restarts):
        x0[r] = _random_start(_stream(cfg.seed ^ grid_index, direction, r))
    return x0


def _search(alpha: float, cfg: OptimizerConfig, grid_index: int,
            direction: int) -> OptimizationResult:
    """Multi-start search minimizing sign * bound, where the bound is
    family_chsh_bounds(...)[direction] and sign flips the lower bound."""
    sign = -1.0 if direction == _LOWER else 1.0

    def objective(p):
        return sign * family_chsh_bounds(alpha, p)[direction]

    pts, vals, iters = nelder_mead_batch(
        objective, _starts(cfg, grid_index, direction),
        max_iters=cfg.max_iters, tol=cfg.tol)
    k = int(np.argmin(vals))
    return OptimizationResult(value=sign * float(vals[k]),
                              params=pts[k].copy(),
                              iterations=int(iters.sum()),
                              restarts=cfg.restarts)


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
