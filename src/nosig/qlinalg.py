"""Small-dimension complex linear algebra.

Everything in this module operates on plain numpy arrays (complex128):
validation of Hermitian and density matrices, partial traces and
Hermitian eigenvalues, the last through numpy's eigvalsh.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .errors import InvalidInputError


def check_hermitian(m) -> np.ndarray:
    """Validate that m is finite and Hermitian within Frobenius tolerance."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix is not square: shape={a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix has a NaN or inf entry")
    if not np.linalg.norm(a - a.conj().T) <= tol.HERMITIAN:
        raise InvalidInputError("matrix is not hermitian within tolerance")
    return a


def check_density(m) -> np.ndarray:
    """Validate that m is a density matrix: Hermitian, unit trace, PSD."""
    a = check_hermitian(m)
    tr = complex(np.trace(a))
    if not abs(tr - 1.0) <= tol.DENSITY_TRACE:
        raise InvalidInputError(f"trace is {tr!r}, expected 1")
    low = float(np.linalg.eigvalsh(a)[0])
    if not low >= tol.DENSITY_MIN_EIG:
        raise InvalidInputError(f"minimum eigenvalue {low!r} below floor")
    return a


def partial_trace(rho, dims: Sequence[int], keep) -> np.ndarray:
    """Reduced matrix of rho on the kept subsystems, in original order.

    dims lists the subsystem dimensions whose product must match rho;
    keep is an iterable of subsystem indices to retain.
    """
    a = np.asarray(rho, dtype=np.complex128)
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if a.shape != (total, total):
        raise InvalidInputError(
            f"dims {dims} imply shape {(total, total)}, got {a.shape}")
    t = a.reshape(dims + dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise InvalidInputError(f"keep indices {keep} out of range")
    n = len(dims)
    # Trace out discarded subsystems from the highest index down so that
    # earlier axis numbers stay valid.
    removed = [i for i in range(n) if i not in keep]
    remaining = n
    for i in sorted(removed, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + remaining)
        remaining -= 1
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def hermitian_eigenvalues(m) -> list[float]:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return [float(x) for x in np.linalg.eigvalsh(check_hermitian(m))]
