"""Joint statistics of the state family and their two-bit-plus-trit form.

A joint distribution over (a, b, c) with a, c = +/-1 and b = 0,1,2 is
stored as a (2, 3, 2) array with index 0 <-> outcome +1 and 1 <-> -1.
Its unique linear decomposition per trit outcome b,

    p(a, b, c) = (f(b) + a*bias_a(b) + c*bias_c(b) + ac*h(b)) / 4,

isolates h, the only component a no-signaling model with fixed two-party
marginals is free to change.  The closed forms for f and the biases are
evaluated against the Born-rule path in the test suite at 1e-12.

Phase convention: qubit eigenvectors follow n.sigma with the standard
Pauli matrices and n = (sin t cos p, sin t sin p, cos t); under it the
bias cross terms carry e^{-i phi}, i.e. the phi -> -phi relabeling of the
equivalent e^{+i phi} form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InvalidInputError, InvalidMarginalError
from .measurements import _PAULI, BlochSetting, QutritBasis, \
    SettingsFamily, qubit_projector, qutrit_unitary
from .qlinalg import check_density, hermitian_eigenvalues
from .states import psi

_SIGN = np.array([1.0, -1.0])  # outcome index -> outcome value


@dataclass(frozen=True)
class Decomposition:
    """Per-b components (f, a, c, h); each is a length-3 float array."""
    f: np.ndarray
    a: np.ndarray
    c: np.ndarray
    h: np.ndarray

    def validate(self) -> "Decomposition":
        if abs(float(np.sum(self.f)) - 1.0) > tol.PROB_SUM:
            raise InvalidInputError("f components do not sum to 1")
        _check_completion(self.f, self.a, self.c)
        return self


def _check_completion(f, a, c):
    """Only f >= max(|a|, |c|) - MARGINAL_FEASIBLE leaves a completion."""
    bound = np.maximum(np.abs(a), np.abs(c)) - tol.MARGINAL_FEASIBLE
    if not np.all(f >= bound):  # a NaN fails too
        raise InvalidMarginalError(
            "f < max(|a|, |c|): no nonnegative completion")


def born_joint3(state: np.ndarray, dims: tuple[int, int, int],
                projector_sets) -> np.ndarray:
    """Born-rule outcome table for a 3-party pure state.

    projector_sets is one list of projectors per subsystem; the result has
    shape (len(set0), len(set1), len(set2)) and is clamped/normalized per
    the documented round-off policy.
    """
    t = np.asarray(state, dtype=np.complex128)
    if t.size != math.prod(dims):
        raise InvalidInputError(f"state has {t.size} entries, dims {dims}")
    t = t.reshape(dims)
    pa, pb, pc = (np.stack(list(ps)) for ps in projector_sets)
    out = np.einsum("ijk,ail,bjm,ckn,lmn->abc", t.conj(), pa, pb, pc, t).real
    return clamp_probabilities(out)


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    """Zero out round-off negatives; reject anything more negative, and
    a NaN entry, which leaves the sum NaN and so fails its check."""
    if float(p.min()) < -tol.PROB_CLAMP:
        raise InvalidInputError(f"negative probability {float(p.min())!r}")
    p = np.where(p < 0.0, 0.0, p)
    if not abs(float(p.sum()) - 1.0) <= tol.PROB_SUM:
        raise InvalidInputError(f"probabilities sum to {float(p.sum())!r}")
    return p


def quantum_joint(alpha: float, a: BlochSetting, b: QutritBasis,
                  c: BlochSetting) -> np.ndarray:
    """Born-rule joint distribution of the state family, shape (2, 3, 2)."""
    u = qutrit_unitary(b)
    b_projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
    return born_joint3(
        psi(alpha), (2, 3, 2),
        ([qubit_projector(a, +1), qubit_projector(a, -1)],
         b_projs,
         [qubit_projector(c, +1), qubit_projector(c, -1)]))


def decompose(joint: np.ndarray) -> Decomposition:
    """Linear coordinates (f, a, c, h) of a (2, 3, 2) distribution."""
    p = np.asarray(joint, dtype=float)
    if p.shape != (2, 3, 2):
        raise InvalidInputError(f"expected shape (2, 3, 2), got {p.shape}")
    f = np.einsum("abc->b", p)
    a = np.einsum("a,abc->b", _SIGN, p)
    c = np.einsum("c,abc->b", _SIGN, p)
    h = np.einsum("a,c,abc->b", _SIGN, _SIGN, p)
    return Decomposition(f=f, a=a, c=c, h=h)


def recompose(d: Decomposition) -> np.ndarray:
    """Exact inverse of decompose."""
    sa = _SIGN[:, None, None]
    sc = _SIGN[None, None, :]
    return 0.25 * (d.f[None, :, None] + sa * d.a[None, :, None]
                   + sc * d.c[None, :, None] + sa * sc * d.h[None, :, None])


def outcome_terms(alpha: float, columns: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form f and bias vectors g per trit outcome, batched.

    columns has shape (3, 3, ...) and holds the qutrit eigenvectors as
    columns, batch axes last.  Returns f of shape (outcome, ...) and g of
    shape (outcome, axis, ...): the qubit bias of outcome b along Bloch
    vector n is g[b] . n.  Everything depends on the columns only through
    |b_i|^2 and b0 b2* + b2 b1*, so per-column phases drop out.
    """
    ca2 = math.cos(alpha) ** 2
    sa2 = math.sin(alpha) ** 2
    s2a = math.sin(2.0 * alpha)
    b0, b1, b2 = columns
    n0, n1, n2 = columns.real ** 2 + columns.imag ** 2
    f = ca2 * n2 + 0.5 * sa2 * (1.0 - n2)
    w = b0 * b2.conj() + b2 * b1.conj()
    g = np.empty((3, 3) + w.shape[1:])
    np.multiply(0.5 * s2a, w.real, out=g[:, 0])
    np.multiply(0.5 * s2a, w.imag, out=g[:, 1])
    np.multiply(0.5 * sa2, n0 - n1, out=g[:, 2])
    return f, g


def fach_closed_form(alpha: float, a: BlochSetting, b: QutritBasis,
                     c: BlochSetting) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (f, a, c) per trit outcome for one measurement triple.

    h is deliberately not returned: it is the component left free to a
    no-signaling model, so only the Born-rule path produces it.
    """
    f, g = outcome_terms(alpha, qutrit_unitary(b))
    return f, g @ np.asarray(a.bloch_vector()), g @ np.asarray(c.bloch_vector())


def correlator(d: Decomposition) -> float:
    """A-C correlation coefficient: the sum of h over trit outcomes."""
    e = float(np.sum(d.h))
    if not abs(e) <= 1.0 + tol.CORRELATOR_RANGE:  # a NaN fails too
        raise InvalidInputError(f"correlator {e!r} outside [-1, 1]")
    return e


def chsh_value(alpha: float, fam: SettingsFamily) -> float:
    """Quantum CHSH combination E11 + E12 + E21 - E22 for the family."""
    def e(a_setting, c_setting):
        return correlator(decompose(quantum_joint(alpha, a_setting, fam.b,
                                                  c_setting)))
    return (e(fam.a1, fam.c1) + e(fam.a1, fam.c2)
            + e(fam.a2, fam.c1) - e(fam.a2, fam.c2))


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """T_ij = Tr[rho sigma_i x sigma_j] for a two-qubit state."""
    r = np.asarray(rho, dtype=np.complex128).reshape(2, 2, 2, 2)
    return np.einsum("cdab,iac,jbd->ij", r, _PAULI, _PAULI).real


def horodecki_chsh_max(rho: np.ndarray) -> float:
    """Maximal CHSH value of a two-qubit state over all qubit settings.

    Equals 2*sqrt(t1 + t2) where t1, t2 are the two largest eigenvalues
    of T^T T; exact for two qubits, which is why it is the primary path
    (a direct optimization over settings backs it up in the tests).
    """
    r = check_density(rho)
    if r.shape != (4, 4):
        raise InvalidInputError(f"expected a 4x4 two-qubit state, got {r.shape}")
    t = correlation_matrix(r)
    eigs = hermitian_eigenvalues(t.T @ t)
    return 2.0 * math.sqrt(max(eigs[-1] + eigs[-2], 0.0))
