"""Numerical pressure on the marginal-uniqueness argument.

Every purification of the A-B marginal of the state family can be put in
the form (psi1 E1 + psi2 E2)/sqrt(2) with E1, E2 orthonormal vectors on
C tensor X: E1 = c0|0>x10 + c1|1>x11, and E2 is d0|0>x20 + d1|1>x21 made
orthogonal to E1, for Schmidt weights (c0, c1), (d0, d1) and any four
unit vectors on X.  With S_ij = Tr_A |psi_i><psi_j| (fixed per alpha) and
the Gram blocks G_ij = E_i E_j^dagger, the B-C marginal is
1/2 sum_ij S_ij (x) G_ij.  With D_ij = G_ij - G*_ij against the unique
point's blocks and s, c = sin, cos(alpha), its squared Frobenius error is
1/4 [s^4 (|D11|^2 + |D22|^2) + c^4 |D11 + D22|^2 + 4 s^2 c^2 |D12|^2].
So for 0 < alpha < pi/2 the error is at least each of s^2 |D11| / 2,
s^2 |D22| / 2 and s c |D12|, and it vanishes only at G = G*: G11 =
diag(1, 0) and G22 = diag(0, 1) force E1 = |0>x and E2 = |1>y, and
G12[0, 1] = <y|x> = 1 forces y = x, i.e. the global state is the pure
family state times an ancilla.  As c1^2 = D11[1, 1], the effective
d0^2 = D22[0, 0] and 1 - |<x10|x21>| <= |D12|, residual r puts the
distance to the unique point at most max(sqrt(2r)/s, r/(s c)), so r <
NEAR_ZERO_RESIDUAL implies a distance below UNIQUE_DISTANCE whenever
1e-10 <= cos^2(alpha) <= 0.98.  The scan looks for chart points whose
residual vanishes far from there; finding none checks the argument.
So the residual is the norm of 32 real terms, re and im of s^2/2 D11,
s^2/2 D22, c^2/2 (D11 + D22) and s c D12 (_terms): a least-squares
problem in the 17 chart coordinates.  The swapped purification E1 =
|1>x, E2 = |0>y, <x|y> = 0 (x10, x21 free) has D11 = diag(-1, 1) =
-D22 and G12 = 0, so |D12| = 1: residual sqrt(s^4 + s^2 c^2) = s.

The scan stops a row once its residual is below _stop_residual(alpha) =
min(NEAR_ZERO_RESIDUAL, (s UNIQUE_DISTANCE)^2 / 8, s c UNIQUE_DISTANCE /
2).  By the bound such a row lies within UNIQUE_DISTANCE / 2 of the
unique point at any interior alpha, and more iterations could only lower
its residual, so the stop cannot flip confirmed; it ends the rows that
reached the unique point, which a diameter test would run to max_iters.
The stop is NEAR_ZERO_RESIDUAL for 4e-10 <= cos^2(alpha) <= 0.92.

The starts take a batched Levenberg-Marquardt descent on the 32 terms,
which finishes the rows: it brings nearly every row below the stop,
mostly in about 15 iterations and at most about 180, or, near
cos^2(alpha) = 1, to the swapped purification.  Its forward-difference
Jacobian needs smooth terms, so the weights are (cos t, sin t) with
their signs (a negative weight is a sign on its vector, the same
purification): |.| would put a kink at the unique point's c1 = 0,
d0 = 0.  Three Nelder-Mead rounds then restart plainly from the previous
stage's end rows; a row below the stop does no iteration there.
Whichever stage ends a row, confirmed reads only its own residual and
distance.

Sampled rows can sit in a corner, c0 ~ d0 ~ 1 and x20 ~ x10, where E2
is a small remainder scaled to unit length and a search crawls.  So the
scan re-charts once, before the descent: _rechart moves each row to the
chart point of its own E1 and orthogonalized E2, where raw E2 is
orthogonal to E1 and the chart well conditioned.  The residual stays put
up to rounding, so the re-chart cannot flip the verdict either.

The residual and the distance see the four vectors only through their
inner products, so the chart quotients out the unitaries on X exactly:
its frame is the R of a QR of [x10 x11 x20 x21] with a real nonnegative
diagonal, x10 = e0, x11 in span(e0, e1), x20 in span(e0, e1, e2), x21
anywhere.  A row is the two Schmidt angles, then re/im of those entries,
the last of each vector re only: 3 + 5 + 7 coordinates, each vector
normalized on decode.  It is written once, batched over rows with the
row axis last; the single-point functions use it as batches of one, and
residual(alpha, p).distance_to_unique_point is the one per-point distance.
The scan's objective and least-squares terms are the closed form above
and never build the state.  residual() traces out A and X of the full
state with partial_trace, so it stays an independent check of that
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import horodecki_chsh_max
from .errors import DegenerateInputError, InvalidInputError
from .optimizer import _SCAN, _check_seed, _in_blocks, _is_count, _stream, \
    levenberg_marquardt_batch, nelder_mead_batch
from .qlinalg import partial_trace
from .states import _check_alpha, psi1, psi2, rho_ab_analytic, rho_ac_analytic

_X_DIM = 4
_CHART_DIM = 2 + 3 + 5 + 7  # two Schmidt angles + the frame of x11, x20, x21
_FRAME = np.r_[8:11, 16:21, 24:31]  # their slots in (vector, x, re/im) order
_PENALTY = 10.0
# plain restarts from the previous stage's end rows; 6000 iterations in all
_ROUND_ITERS = (500, 500, 5000)
# rows reach the stop in about 15 iterations, a few in up to about 180;
# rows at the swapped purification, near cos^2(alpha) = 1, use all 200
_LM_ITERS = 200


@dataclass(frozen=True)
class PurificationParams:
    """Schmidt weights and auxiliary vectors of one purification ansatz;
    each vector is a unit vector, and no pair need be orthogonal."""
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
            w = getattr(self, name)
            if not (math.isfinite(w) and w >= 0.0):
                raise InvalidInputError(
                    f"{name} must be finite and nonnegative")
        if abs(self.c0 ** 2 + self.c1 ** 2 - 1.0) > tol.UNIT_NORM:
            raise InvalidInputError("(c0, c1) is not normalized")
        if abs(self.d0 ** 2 + self.d1 ** 2 - 1.0) > tol.UNIT_NORM:
            raise InvalidInputError("(d0, d1) is not normalized")
        for name in ("x10", "x11", "x20", "x21"):
            v = np.asarray(getattr(self, name), dtype=np.complex128)
            if v.shape != (_X_DIM,):
                raise InvalidInputError(f"{name} must be a {_X_DIM}-vector")
            # a NaN or infinite entry fails this comparison too
            if not abs(float(np.vdot(v, v).real) - 1.0) <= tol.UNIT_NORM:
                raise InvalidInputError(f"{name} is not a finite unit vector")
            object.__setattr__(self, name, v)


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
    n_capped: int  # rows that used all of the last round's iterations
    next_residual: float
    stop_residual: float
    confirmed: bool
    n_least_squares: int  # rows below stop_residual after least squares


def unique_point_params() -> PurificationParams:
    """The canonical chart point the theorem singles out."""
    e = np.eye(_X_DIM, dtype=np.complex128)
    return PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=1.0,
                              x10=e[0], x11=e[1], x20=e[1], x21=e[0])


def _xsum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading X axis (_X_DIM slabs) as slab adds, in one
    order for any row count, so no row depends on the batch around it."""
    return a[0] + a[1] + a[2] + a[3]


def _sq(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def _e_blocks(w: np.ndarray, x: np.ndarray):
    """E1 and the orthogonalized, renormalized E2 as (x, 2, r) blocks.

    w holds the weights (c0, c1, d0, d1) as (4, r) and x the vectors
    (x10, x11, x20, x21) as (x, 4, r), rows last.  Returns (e1, e2, bad);
    rows whose E2 collapses are flagged in bad and left unnormalized.
    """
    blocks = w * x
    e1, e2 = blocks[:, :2], blocks[:, 2:]
    for _ in range(2):  # twice is enough (Kahan) for a remainder near 0
        ip = _xsum(e1.conj() * e2)
        e2 = e2 - (ip[0] + ip[1]) * e1
    n2 = _xsum(_sq(e2))
    norms = np.sqrt(n2[0] + n2[1])
    bad = norms < tol.ORTHO_COLLAPSE
    return e1, e2 / np.where(bad, 1.0, norms), bad


def _grams(e1: np.ndarray, e2: np.ndarray):
    """The Gram blocks (G11, G22, G12), G_ij = E_i E_j^dagger, as (2, 2, r)."""
    def gram(a, b):
        return _xsum(a[:, :, None] * b.conj()[:, None])
    return gram(e1, e1), gram(e2, e2), gram(e1, e2)


def _distance(c1: np.ndarray, x10: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Max of (|c1|, effective d0, 1 - |<x10|x21 effective>|) per row.

    Measured on the orthogonalized E2, so raw parameters that
    orthogonalize onto the unique point count as being there.  The
    absolute value absorbs the free X phase.
    """
    d0_eff, d1_eff = np.sqrt(_xsum(_sq(e2)))
    live = d1_eff > 1e-12
    ip = np.abs(_xsum(x10.conj() * e2[:, 1]))
    overlap = np.where(live, ip / np.where(live, d1_eff, 1.0), 0.0)
    return np.maximum(np.maximum(np.abs(c1), d0_eff), 1.0 - overlap)


def _e_pair(p: PurificationParams) -> tuple[np.ndarray, np.ndarray]:
    """E1 and E2 of one parameter point, as a batch of one (x, 2, 1)."""
    x = np.array([p.x10, p.x11, p.x20, p.x21]).T[..., None]
    e1, e2, bad = _e_blocks(np.array([[p.c0], [p.c1], [p.d0], [p.d1]]), x)
    if bad[0]:
        raise DegenerateInputError("E2 collapses under orthogonalization")
    return e1, e2


# G*_ij, the Gram blocks of the unique point, each as (2, 2, 1)
_UNIQUE_GRAMS = _grams(*_e_pair(unique_point_params()))


def _purification(alpha: float, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """(psi1 E1 + psi2 E2)/sqrt(2) of a batch-of-one E pair, flat order."""
    return (np.outer(psi1(alpha), e1[..., 0].T)
            + np.outer(psi2(alpha), e2[..., 0].T)).ravel() / math.sqrt(2.0)


def build_purification(alpha: float, p: PurificationParams) -> np.ndarray:
    """Unit vector on A x B x C x X (dims 2,3,2,4), flat index order."""
    return _purification(alpha, *_e_pair(p))


def _bc_target(alpha: float) -> np.ndarray:
    """The required B-C marginal.  The state is symmetric under swapping A
    and C, so the C-B marginal (qubit first) is the A-B matrix; reorder it."""
    return rho_ab_analytic(alpha).reshape(2, 3, 2, 3).transpose(
        1, 0, 3, 2).reshape(6, 6)


def residual(alpha: float, p: PurificationParams) -> UniquenessVerdict:
    """Frobenius error of the purification's B-C marginal, plus distance."""
    e1, e2 = _e_pair(p)
    phi = _purification(alpha, e1, e2)
    rho_bc = partial_trace(np.outer(phi, phi.conj()), (2, 3, 2, _X_DIM), (1, 2))
    err = float(np.linalg.norm(rho_bc - _bc_target(alpha)))
    dist = float(_distance(np.array([p.c1]), p.x10[:, None], e2)[0])
    return UniquenessVerdict(residual=err, distance_to_unique_point=dist)


def _frames(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Chart rows (r, 17) of weights (4, r) and vectors (x, 4, r): the
    angles, then the frame (module docstring); dependent vectors are fine."""
    _, r = np.linalg.qr(x.transpose(2, 0, 1))
    neg = np.diagonal(r, axis1=1, axis2=2).real < 0
    r = (r * np.where(neg, -1.0, 1.0)[:, :, None]).transpose(0, 2, 1)
    frame = np.stack([r.real, r.imag], axis=-1).reshape(len(r), -1)
    return np.hstack([np.arctan2(w[1::2], w[::2]).T, frame[:, _FRAME]])


def _to_chart(p: PurificationParams) -> np.ndarray:
    """The scan-chart row of p, as a batch of one of _frames."""
    w = np.array([[p.c0], [p.c1], [p.d0], [p.d1]])
    return _frames(w, np.array([p.x10, p.x11, p.x20, p.x21]).T[..., None])[0]


def _chart_states(chart: np.ndarray):
    """Batched E blocks of chart rows: (e1, e2, c1, x10, bad), rows last.

    The Schmidt angles give the weights, the frame fills x11, x20 and x21
    around x10 = e0, and each vector is normalized.  Rows with a vector
    shorter than ORTHO_COLLAPSE or a collapsed E2 are flagged in bad.
    """
    r = chart.shape[0]
    ct = np.ascontiguousarray(chart.T)
    t = ct[:2]
    w = np.stack([np.cos(t), np.sin(t)], axis=1).reshape(4, r)
    raw = np.zeros((4 * _X_DIM * 2, r))
    raw[0], raw[_FRAME] = 1.0, ct[2:]             # x10 = e0, then the frame
    raw = raw.reshape(4, _X_DIM, 2, r)            # vector, x, re/im
    vecs = (raw[:, :, 0] + 1j * raw[:, :, 1]).transpose(1, 0, 2)
    n = np.sqrt(_xsum(_sq(vecs)))
    small = n < tol.ORTHO_COLLAPSE
    x = vecs / np.where(small, 1.0, n)
    e1, e2, collapsed = _e_blocks(w, x)
    return e1, e2, w[1], x[:, 0], small.any(axis=0) | collapsed


def _rechart(chart: np.ndarray) -> np.ndarray:
    """Each row at the chart point of its own E1 and orthogonalized E2 (a
    vector of weight 0 becomes e1); bad and non-finite rows are kept."""
    e1, e2, _, _, bad = _chart_states(chart)
    blocks = np.concatenate([e1, e2], axis=1)
    w = np.sqrt(_xsum(_sq(blocks)))
    x = np.where(w > 0, blocks / np.where(w > 0, w, 1.0),
                 np.eye(_X_DIM)[:, 1, None, None])
    keep = bad | ~np.isfinite(chart).all(axis=1)
    return np.where(keep[:, None], chart, _frames(w, x))


def _terms(alpha: float, chart: np.ndarray):
    """The residual's 32 real terms as (32, r), rows last, and bad: re and
    im of s^2/2 D11, s^2/2 D22, c^2/2 (D11 + D22) and s c D12, whose
    squares sum to the residual squared (module docstring)."""
    e1, e2, _, _, bad = _chart_states(chart)
    d11, d22, d12 = (g - g0 for g, g0 in zip(_grams(e1, e2), _UNIQUE_GRAMS))
    s, c = math.sin(alpha), math.cos(alpha)
    z = np.stack([0.5 * s * s * d11, 0.5 * s * s * d22,
                  0.5 * c * c * (d11 + d22), s * c * d12])
    return np.concatenate([z.real, z.imag]).reshape(32, -1), bad


def _residual_terms(alpha: float, chart: np.ndarray) -> np.ndarray:
    """The scan's least-squares residuals: the 32 terms as (r, 32), NaN on
    degenerate rows, so a solver never accepts them."""
    t, bad = _terms(alpha, chart)
    return np.ascontiguousarray(np.where(bad, np.nan, t).T)


def _residual_chart(alpha: float, chart: np.ndarray) -> np.ndarray:
    """Batched scan objective: the closed-form Frobenius error of the B-C
    marginal, the norm of the 32 terms, penalized when degenerate."""
    t, bad = _terms(alpha, chart)
    q = t * t
    while len(q) > 1:  # halving sums, in one order for any row count
        q = q[:len(q) // 2] + q[len(q) // 2:]
    return np.where(bad, _PENALTY, np.sqrt(q[0]))


def _distance_bound(alpha: float, r):
    """max(sqrt(2r)/s, r/(s c)): residual r puts a row at most this far
    from the unique point (module docstring); NaN stays NaN."""
    s, c = math.sin(alpha), math.cos(alpha)
    return np.maximum(np.sqrt(2.0 * r) / s, r / (s * c))


def _stop_residual(alpha: float) -> float:
    """The residual below which a scan row stops: by the distance bound
    it puts the row within UNIQUE_DISTANCE / 2 of the unique point, and it
    never exceeds NEAR_ZERO_RESIDUAL, so a stopped row counts as near zero."""
    s, c = math.sin(alpha), math.cos(alpha)
    d = tol.UNIQUE_DISTANCE
    return min(tol.NEAR_ZERO_RESIDUAL, (s * d) ** 2 / 8.0, s * c * d / 2.0)


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
    if not (_is_count(n_local_starts, 1)
            and _is_count(n_samples, n_local_starts)):
        raise InvalidInputError("need 1 <= n_local_starts <= n_samples")
    rng = _stream(_check_seed(seed), _SCAN)
    chart = np.empty((n_samples, _CHART_DIM))
    chart[:, :2] = rng.uniform(0.0, math.pi / 2, (2, n_samples)).T
    chart[:, 2:] = rng.standard_normal((n_samples, _CHART_DIM - 2))

    def objective(points):
        return _residual_chart(a, points)

    res = _in_blocks(objective, chart)
    order = np.argsort(res, kind="stable")[:n_local_starts]
    best = np.vstack([_to_chart(unique_point_params()), chart[order]])

    stop = _stop_residual(a)
    best, vals, _ = levenberg_marquardt_batch(
        lambda points: _residual_terms(a, points), _rechart(best),
        max_iters=_LM_ITERS, target=stop)
    n_least_squares = int(np.count_nonzero(vals < stop))
    for cap in _ROUND_ITERS:  # restarts unflatten stalled simplices
        best, vals, iters = nelder_mead_batch(
            objective, best, max_iters=cap,
            tol=tol.SIMPLEX_DIAMETER, target=stop)
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
        n_capped=int(np.count_nonzero(iters >= _ROUND_ITERS[-1])),
        next_residual=float(np.min(vals[~near], initial=np.inf)),
        stop_residual=stop,
        confirmed=bool(np.any(near)
                       and max_dist_near < tol.UNIQUE_DISTANCE),
        n_least_squares=n_least_squares)


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


def theorem2_check(alpha: float, **scan_args) -> Theorem2Report:
    """Uniqueness scan combined with the A-C CHSH maximum; scan_args go to
    uniqueness_scan unchanged.

    The contradiction (hence signaling) arises when cos^2(alpha) exceeds
    1/sqrt(2); below that the report simply shows no violation.  The
    endpoints are rejected because uniqueness genuinely fails there.
    """
    scan = uniqueness_scan(alpha, **scan_args)
    a = scan.alpha
    return Theorem2Report(alpha=a, cos2_alpha=math.cos(a) ** 2,
                          chsh_max=horodecki_chsh_max(rho_ac_analytic(a)),
                          scan=scan)
