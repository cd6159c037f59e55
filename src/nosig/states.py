"""The 2x3x2 state family and its two-party marginals.

The family interpolates between a product-of-Bell-pair structure at
alpha=0 and a three-qubit GHZ state embedded at alpha=pi/2.  Subsystem
order is fixed as A(2) x B(3) x C(2) with basis index 6a + 2b + c.  The
state is symmetric under swapping A and C, so the C-B marginal, stored
qubit-first, is the same matrix as rho_ab_analytic.

Analytic marginal constructors here are deliberately independent of the
numeric partial trace in qlinalg so the two paths can cross-check each
other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

HALF_PI = math.pi / 2.0


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not (0.0 <= a <= HALF_PI):
        raise InvalidInputError(f"alpha={a!r} outside [0, pi/2]")
    return a


def psi(alpha: float) -> np.ndarray:
    """State vector cos(a)(|021>+|120>)/sqrt2 + sin(a)(|000>+|111>)/sqrt2."""
    a = _check_alpha(alpha)
    v = np.zeros(12, dtype=np.complex128)
    ca, sa = math.cos(a) / math.sqrt(2.0), math.sin(a) / math.sqrt(2.0)
    v[5] = ca    # |021> -> 6*0 + 2*2 + 1
    v[10] = ca   # |120> -> 6*1 + 2*2 + 0
    v[0] = sa    # |000>
    v[9] = sa    # |111> -> 6 + 2 + 1
    return v


def ghz3() -> np.ndarray:
    """Three-qubit GHZ state (|000> + |111>)/sqrt2 on 2x2x2."""
    v = np.zeros(8, dtype=np.complex128)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    return v


def psi1(alpha: float) -> np.ndarray:
    """sin(a)|00> + cos(a)|12> on qubit x qutrit (index 3j + k)."""
    a = _check_alpha(alpha)
    v = np.zeros(6, dtype=np.complex128)
    v[0] = math.sin(a)
    v[5] = math.cos(a)
    return v


def psi2(alpha: float) -> np.ndarray:
    """sin(a)|11> + cos(a)|02> on qubit x qutrit (index 3j + k)."""
    a = _check_alpha(alpha)
    v = np.zeros(6, dtype=np.complex128)
    v[4] = math.sin(a)
    v[2] = math.cos(a)
    return v


def rho_ab_analytic(alpha: float) -> np.ndarray:
    """A-B marginal: equal mixture of the two orthogonal branch states."""
    v1, v2 = psi1(alpha), psi2(alpha)
    return 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))


def rho_ac_analytic(alpha: float) -> np.ndarray:
    """A-C marginal: cos^2(a)|Psi+><Psi+| + sin^2(a)/2 (P00 + P11)."""
    a = _check_alpha(alpha)
    psi_plus = np.zeros(4, dtype=np.complex128)
    psi_plus[1] = psi_plus[2] = 1.0 / math.sqrt(2.0)
    rho = math.cos(a) ** 2 * np.outer(psi_plus, psi_plus.conj())
    w = math.sin(a) ** 2 / 2.0
    rho[0, 0] += w
    rho[3, 3] += w
    return rho
