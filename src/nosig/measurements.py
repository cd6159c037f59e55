"""Projective measurement parametrizations.

Qubits carry the usual Bloch-sphere chart (theta, phi); the qutrit basis
is the column set of a product of three phased Givens rotations acting on
coordinate pairs (0,1), (0,2), (1,2).  Six angles cover every orthonormal
basis up to per-column phases, which no downstream quantity depends on.
The Givens chart is written once, as the entrywise product of the three
rotations batched over a trailing row axis; a single basis is a batch of
one.  The Bloch chart is written once too, batched, with its inverse
for the optimizer's winners; a single setting evaluates it on scalars.
Only the qubit projector lives here: a qutrit outcome projects onto its
basis column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class BlochSetting:
    """A qubit measurement direction; canonical ranges theta in [0, pi],
    phi in [0, 2pi), but any finite angles are accepted (the map is
    periodic)."""
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise InvalidInputError("Bloch angles must be finite")

    def bloch_vector(self) -> tuple[float, float, float]:
        return tuple(float(v) for v in bloch_vectors(self.theta, self.phi))


@dataclass(frozen=True)
class QutritBasis:
    """Six angles: three (theta, phi) pairs feeding the Givens product."""
    angles: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.angles) != 6:
            raise InvalidInputError(f"need 6 angles, got {len(self.angles)}")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if not all(map(math.isfinite, self.angles)):
            raise InvalidInputError("qutrit angles must be finite")


@dataclass(frozen=True)
class SettingsFamily:
    """The four qubit settings and shared qutrit basis of one CHSH family."""
    a1: BlochSetting
    a2: BlochSetting
    c1: BlochSetting
    c2: BlochSetting
    b: QutritBasis

    def to_params(self) -> list[float]:
        return [self.a1.theta, self.a1.phi, self.a2.theta, self.a2.phi,
                self.c1.theta, self.c1.phi, self.c2.theta, self.c2.phi,
                *self.b.angles]

    @staticmethod
    def from_params(params) -> "SettingsFamily":
        p = [float(x) for x in params]
        if len(p) != 14:
            raise InvalidInputError(f"need 14 parameters, got {len(p)}")
        return SettingsFamily(
            a1=BlochSetting(p[0], p[1]), a2=BlochSetting(p[2], p[3]),
            c1=BlochSetting(p[4], p[5]), c2=BlochSetting(p[6], p[7]),
            b=QutritBasis(tuple(p[8:14])))


_PAULI = np.array([[[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=np.complex128)  # (axis, 2, 2)


def qubit_projector(s: BlochSetting, outcome: int) -> np.ndarray:
    """(I + outcome * n.sigma)/2 for outcome in {+1, -1}."""
    if outcome not in (+1, -1):
        raise InvalidInputError(f"outcome must be +1 or -1, got {outcome!r}")
    nx, ny, nz = s.bloch_vector()
    n_sigma = nx * _PAULI[0] + ny * _PAULI[1] + nz * _PAULI[2]
    return 0.5 * (np.eye(2, dtype=np.complex128) + outcome * n_sigma)


def bloch_vectors(theta: np.ndarray, phi: np.ndarray) -> tuple:
    """Batched Bloch chart: the (x, y, z) components, each theta's shape."""
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


def bloch_angles(n: np.ndarray) -> np.ndarray:
    """The chart's inverse: (theta, phi) of the unit vectors n (3, ...),
    as one (2, ...) array."""
    x, y, z = n
    return np.stack([np.arctan2(np.hypot(x, y), z), np.arctan2(y, x)])


def batched_columns(b_angles: np.ndarray) -> np.ndarray:
    """G01(t1,p1) G02(t2,p2) G12(t3,p3) written out entrywise, (3, 3, R),
    from angles (t1, p1, t2, p2, t3, p3) of shape (6, R).  G_jk is the
    identity but cos t at jj, kk, -e^{ip} sin t at jk, e^{-ip} sin t at kj."""
    c = np.cos(b_angles)
    s = np.sin(b_angles)
    c1, c2, c3 = c[0::2]
    q, a, r = s[0::2] * (c[1::2] + 1j * s[1::2])  # s_k e^{i p_k}
    qc, rc = q.conj(), r.conj()
    arc = a * rc
    u = np.empty((3, 3) + c1.shape, dtype=np.complex128)
    np.multiply(c1, c2, out=u[0, 0])
    np.multiply(c2, qc, out=u[1, 0])
    np.conjugate(a, out=u[2, 0])
    np.negative(c3 * q + c1 * arc, out=u[0, 1])
    np.subtract(c1 * c3, qc * arc, out=u[1, 1])
    np.multiply(c2, rc, out=u[2, 1])
    np.subtract(q * r, (c1 * c3) * a, out=u[0, 2])
    np.negative(c1 * r + c3 * (qc * a), out=u[1, 2])
    np.multiply(c2, c3, out=u[2, 2])
    return u


def qutrit_unitary(q: QutritBasis) -> np.ndarray:
    """The basis matrix of one qutrit setting; columns are the basis."""
    return batched_columns(np.array(q.angles)[:, None])[..., 0]
