"""Numerical pressure on the marginal-uniqueness argument.

Every purification of the A-B marginal of the state family can be put in
the form (psi1 E1 + psi2 E2)/sqrt(2) with E1, E2 orthonormal vectors on
C tensor X built from Schmidt weights (c0, c1), (d0, d1) and four
auxiliary vectors.  Demanding that the B-C marginal also comes out right
singles out one point of that chart: c1 = d0 = 0 and x10 = x21 up to a
phase, i.e. the global state is the pure family state times an ancilla.
This module scans the chart for counterexamples: parameter points whose
B-C marginal error (the residual) vanishes while sitting far from that
unique point.  Finding none is the numerical content of the theorem.

The chart is written once, batched over rows: the E1/E2 blocks, the
state and the distance to the unique point each have one definition, and
the single-point functions are batches of one.  residual() traces out A
and X of the full state with partial_trace, so it stays an independent
check of the scan objective's einsum marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import horodecki_chsh_max
from .errors import DegenerateInputError, InvalidInputError
from .optimizer import _SCAN, _check_seed, _in_blocks, _stream, \
    nelder_mead_batch
from .qlinalg import partial_trace, permute_subsystems
from .states import _check_alpha, psi1, psi2, rho_ac_analytic, rho_cb_analytic

_X_DIM = 4
_CHART_DIM = 2 + 4 * 2 * _X_DIM  # two Schmidt angles + four complex 4-vectors
_PENALTY = 10.0


@dataclass(frozen=True)
class PurificationParams:
    """Schmidt weights and auxiliary vectors of one purification ansatz."""
    c0: float
    c1: float
    d0: float
    d1: float
    x10: np.ndarray
    x11: np.ndarray
    x20: np.ndarray
    x21: np.ndarray

    def __post_init__(self):
        for name in ("c0", "c1", "d0", "d1"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be nonnegative")
        if abs(self.c0 ** 2 + self.c1 ** 2 - 1.0) > tol.UNIT_NORM:
            raise InvalidInputError("(c0, c1) is not normalized")
        if abs(self.d0 ** 2 + self.d1 ** 2 - 1.0) > tol.UNIT_NORM:
            raise InvalidInputError("(d0, d1) is not normalized")
        for name in ("x10", "x11", "x20", "x21"):
            v = np.asarray(getattr(self, name), dtype=np.complex128)
            if v.shape != (_X_DIM,):
                raise InvalidInputError(f"{name} must be a {_X_DIM}-vector")
            if abs(float(np.vdot(v, v).real) - 1.0) > tol.UNIT_NORM:
                raise InvalidInputError(f"{name} is not a unit vector")
            object.__setattr__(self, name, v)
        for left, right in (("x10", "x11"), ("x20", "x21")):
            ip = np.vdot(getattr(self, left), getattr(self, right))
            if abs(ip) > tol.UNIT_NORM:
                raise InvalidInputError(f"<{left}|{right}> must vanish")


@dataclass(frozen=True)
class UniquenessVerdict:
    residual: float
    distance_to_unique_point: float


@dataclass(frozen=True)
class UniquenessScanReport:
    alpha: float
    n_samples: int
    n_local_starts: int
    seed: int
    min_residual: float
    distance_at_min: float
    near_zero_count: int
    max_distance_near_zero: float
    confirmed: bool


def unique_point_params() -> PurificationParams:
    """The canonical chart point the theorem singles out."""
    e = np.eye(_X_DIM, dtype=np.complex128)
    return PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=1.0,
                              x10=e[0], x11=e[1], x20=e[1], x21=e[0])


def _e_blocks(w: np.ndarray, x: np.ndarray):
    """E1 and the orthogonalized, renormalized E2 as (r, 2, x) blocks.

    w holds the weights (c0, c1, d0, d1) as (r, 4) and x the vectors
    (x10, x11, x20, x21) as (r, 4, x).  Returns (e1, e2, bad); rows whose
    E2 collapses are flagged in bad and left unnormalized.
    """
    blocks = w[:, :, None] * x
    e1, e2 = blocks[:, :2], blocks[:, 2:]
    e2 = e2 - np.sum(e1.conj() * e2, axis=(1, 2))[:, None, None] * e1
    norms = np.linalg.norm(e2.reshape(len(e2), -1), axis=1)
    bad = norms < tol.ORTHO_COLLAPSE
    return e1, e2 / np.where(bad, 1.0, norms)[:, None, None], bad


def _purification(alpha: float, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """(psi1 E1 + psi2 E2)/sqrt(2) per row, shape (r, 2, 3, 2, x)."""
    s1 = psi1(alpha).reshape(2, 3)
    s2 = psi2(alpha).reshape(2, 3)
    return (np.einsum("ab,rcx->rabcx", s1, e1)
            + np.einsum("ab,rcx->rabcx", s2, e2)) / math.sqrt(2.0)


def _distance(c1: np.ndarray, x10: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Max of (c1, effective d0, 1 - |<x10|x21 effective>|) per row.

    Measured on the orthogonalized E2, so raw parameters that
    orthogonalize onto the unique point count as being there.  The
    absolute value absorbs the free X phase.
    """
    d0_eff, d1_eff = np.linalg.norm(e2, axis=2).T
    live = d1_eff > 1e-12
    ip = np.abs(np.sum(x10.conj() * e2[:, 1], axis=1))
    overlap = np.where(live, ip / np.where(live, d1_eff, 1.0), 0.0)
    return np.maximum(np.maximum(c1, d0_eff), 1.0 - overlap)


def _e_pair(p: PurificationParams) -> tuple[np.ndarray, np.ndarray]:
    """E1 and E2 of one parameter point, as a batch of one (1, 2, x)."""
    e1, e2, bad = _e_blocks(np.array([[p.c0, p.c1, p.d0, p.d1]]),
                            np.array([[p.x10, p.x11, p.x20, p.x21]]))
    if bad[0]:
        raise DegenerateInputError("E2 collapses under orthogonalization")
    return e1, e2


def build_purification(alpha: float, p: PurificationParams) -> np.ndarray:
    """Unit vector on A x B x C x X (dims 2,3,2,4), flat index order."""
    return _purification(alpha, *_e_pair(p)).reshape(-1)


def _bc_target(alpha: float) -> np.ndarray:
    """The required B-C marginal, reordered from the C-B analytic form."""
    return permute_subsystems(rho_cb_analytic(alpha), (2, 3), (1, 0))


def distance_to_unique_point(p: PurificationParams) -> float:
    """Max of (c1, effective d0, 1 - |<x10|x21 effective>|); see _distance."""
    return float(_distance(np.array([p.c1]), p.x10[None], _e_pair(p)[1])[0])


def residual(alpha: float, p: PurificationParams) -> UniquenessVerdict:
    """Frobenius error of the purification's B-C marginal, plus distance."""
    e1, e2 = _e_pair(p)
    phi = _purification(alpha, e1, e2).reshape(-1)
    rho_bc = partial_trace(np.outer(phi, phi.conj()), (2, 3, 2, _X_DIM), (1, 2))
    err = float(np.linalg.norm(rho_bc - _bc_target(alpha)))
    dist = float(_distance(np.array([p.c1]), p.x10[None], e2)[0])
    return UniquenessVerdict(residual=err, distance_to_unique_point=dist)


def _to_chart(p: PurificationParams) -> np.ndarray:
    """The scan-chart row of p: Schmidt angles, then re/im of x10..x21."""
    vecs = np.array([p.x10, p.x11, p.x20, p.x21])
    return np.concatenate([[math.atan2(p.c1, p.c0), math.atan2(p.d1, p.d0)],
                           np.stack([vecs.real, vecs.imag], axis=-1).ravel()])


def _chart_states(chart: np.ndarray):
    """Batched E blocks of chart rows: (e1, e2, c1, x10, bad).

    The Schmidt angles give the weights; each vector pair (x10, x11),
    (x20, x21) is Gram-Schmidt orthonormalized.  Degenerate rows are
    flagged in bad.
    """
    r = chart.shape[0]
    t = chart[:, :2]
    w = np.abs(np.stack([np.cos(t), np.sin(t)], axis=2)).reshape(r, 4)
    raw = chart[:, 2:].reshape(r, 2, 2, _X_DIM, 2)
    vecs = raw[..., 0] + 1j * raw[..., 1]          # (r, pair, member, x)

    def normalized(v):
        n = np.linalg.norm(v, axis=-1)
        small = n < tol.ORTHO_COLLAPSE
        return v / np.where(small, 1.0, n)[..., None], np.any(small, axis=1)

    first, bad = normalized(vecs[:, :, 0])
    second = vecs[:, :, 1] - np.sum(first.conj() * vecs[:, :, 1],
                                    axis=-1)[..., None] * first
    second, b = normalized(second)
    x = np.stack([first, second], axis=2).reshape(r, 4, _X_DIM)
    e1, e2, collapsed = _e_blocks(w, x)
    return e1, e2, w[:, 1], x[:, 0], bad | b | collapsed


def _residual_chart(alpha: float, chart: np.ndarray,
                    target: np.ndarray) -> np.ndarray:
    """Batched scan objective: Frobenius error of the B-C marginal against
    target = _bc_target(alpha), penalized when degenerate."""
    e1, e2, _, _, bad = _chart_states(chart)
    phi = _purification(alpha, e1, e2)
    del e1, e2, _  # so the E blocks and x10 do not raise peak memory
    rho_bc = np.einsum("rabcx,raBCx->rbcBC", phi, phi.conj()).reshape(-1, 6, 6)
    out = np.linalg.norm((rho_bc - target).reshape(len(chart), -1), axis=1)
    return np.where(bad, _PENALTY, out)


def _distance_chart(chart: np.ndarray) -> np.ndarray:
    """Batched distance-to-unique-point on effective parameters."""
    _, e2, c1, x10, bad = _chart_states(chart)
    return np.where(bad, _PENALTY, _distance(c1, x10, e2))


def uniqueness_scan(alpha: float, n_samples: int = 10000,
                    n_local_starts: int = 100,
                    seed: int = 0) -> UniquenessScanReport:
    """Random sampling plus local minimization of the marginal residual.

    The known exact solution is always included as one local start, so
    the near-zero set is never empty; the scan's job is to check that
    nothing else lands there.  Strictly interior alpha only: at the
    endpoints the marginals admit other compatible states.
    """
    a = _check_alpha(alpha)
    if a in (0.0, math.pi / 2):
        raise InvalidInputError(
            f"alpha={a!r} must lie strictly inside (0, pi/2)")
    if not 1 <= n_local_starts <= n_samples:
        raise InvalidInputError("need 1 <= n_local_starts <= n_samples")
    rng = _stream(_check_seed(seed), _SCAN)
    chart = np.empty((n_samples, _CHART_DIM))
    chart[:, 0] = rng.uniform(0.0, math.pi / 2, n_samples)
    chart[:, 1] = rng.uniform(0.0, math.pi / 2, n_samples)
    chart[:, 2:] = rng.standard_normal((n_samples, _CHART_DIM - 2))
    target = _bc_target(a)

    def objective(points):
        return _residual_chart(a, points, target)

    res = _in_blocks(objective, chart)
    order = np.argsort(res, kind="stable")[:n_local_starts]
    best = np.vstack([_to_chart(unique_point_params()), chart[order]])

    for _ in range(3):  # restarted simplex rounds tighten stalled minima
        best, vals, _ = nelder_mead_batch(objective, best, max_iters=2000,
                                          tol=tol.SCAN_DIAMETER, step=0.1)
    dists = _distance_chart(best)
    k = int(np.argmin(vals))
    near = vals < tol.NEAR_ZERO_RESIDUAL
    max_dist_near = float(np.max(dists[near])) if np.any(near) else 0.0
    return UniquenessScanReport(
        alpha=a, n_samples=n_samples, n_local_starts=n_local_starts,
        seed=seed, min_residual=float(vals[k]),
        distance_at_min=float(dists[k]),
        near_zero_count=int(np.count_nonzero(near)),
        max_distance_near_zero=max_dist_near,
        confirmed=bool(np.any(near)
                       and max_dist_near < tol.UNIQUE_DISTANCE))


@dataclass(frozen=True)
class Theorem2Report:
    alpha: float
    cos2_alpha: float
    chsh_max: float
    scan: UniquenessScanReport

    @property
    def contradiction(self) -> bool:
        """Marginals force the family state AND its A-C part breaks CHSH."""
        return self.scan.confirmed and self.chsh_max > 2.0 + tol.VIOLATION_STRICT


def theorem2_check(alpha: float, n_samples: int = 10000,
                   n_local_starts: int = 100, seed: int = 0) -> Theorem2Report:
    """Uniqueness scan combined with the A-C CHSH maximum.

    The contradiction (hence signaling) arises when cos^2(alpha) exceeds
    1/sqrt(2); below that the report simply shows no violation.  The
    endpoints are rejected because uniqueness genuinely fails there.
    """
    scan = uniqueness_scan(alpha, n_samples=n_samples,
                           n_local_starts=n_local_starts, seed=seed)
    a = scan.alpha
    return Theorem2Report(alpha=a, cos2_alpha=math.cos(a) ** 2,
                          chsh_max=horodecki_chsh_max(rho_ac_analytic(a)),
                          scan=scan)
