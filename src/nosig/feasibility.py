"""Existence of a joint distribution with prescribed two-party marginals.

The question is a small linear program: does p(a, b, c) >= 0 exist whose
pair marginals match the given tables?  A self-contained phase-one
simplex with Bland's anti-cycling rule answers it deterministically; the
instances here have at most 64 variables, so a dense tableau is plenty.

The headline instance takes the three z-axis measurements of the
three-qubit GHZ state, fixes the quantum A-B and B-C tables, and adds
the independence requirement P(a,c) = P(a)P(c) appropriate when the A-C
pair is spacelike separated even for the superluminal mechanism, passed
as an explicit A-C table built from the other two: no joint distribution
exists, so a model without local variables signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import born_joint3
from .errors import InvalidInputError
from .states import ghz3

_Z_PROJECTORS = [np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0 + 0j])]
# Pair tables in LP row order: (name, party summed out of the joint).  A
# name spells the two kept parties in the order of the table's axes.
_PAIRS = (("ab", 2), ("bc", 0), ("ac", 1))


@dataclass(frozen=True)
class MarginalSpec:
    """Target pair marginals over outcomes (a, b, c).

    Each provided table must be nonnegative and normalized, and tables
    that share a party must agree on its one-party marginal.
    """
    n_a: int
    n_b: int
    n_c: int
    ab: np.ndarray | None = None
    bc: np.ndarray | None = None
    ac: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.n_a, self.n_b, self.n_c)
        for n, name in zip(shape, ("n_a", "n_b", "n_c")):
            if n < 1:
                raise InvalidInputError(f"{name} must be positive, got {n}")
        first = {}  # party -> (table, axis) of the first table that fixes it
        for name, summed in _PAIRS:
            table = getattr(self, name)
            if table is None:
                continue
            t = np.asarray(table, dtype=float)
            kept = shape[:summed] + shape[summed + 1:]
            if t.shape != kept:
                raise InvalidInputError(f"{name} table must have shape {kept}")
            if not float(t.min()) >= 0.0:  # NaN fails too
                raise InvalidInputError(f"{name} table has a negative entry")
            if abs(float(t.sum()) - 1.0) > tol.PROB_SUM:
                raise InvalidInputError(f"{name} table does not sum to 1")
            object.__setattr__(self, name, t)
            for party, other in zip(name, (1, 0)):
                if party not in first:
                    first[party] = (t, other)
                    continue
                prev, axis = first[party]
                gap = np.abs(prev.sum(axis=axis) - t.sum(axis=other))
                if float(np.max(gap)) > tol.MARGINAL_FEASIBLE:
                    raise InvalidInputError("tables imply conflicting "
                                            f"one-party marginals for {party}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Phase-one outcome: a witness distribution, or the violation floor."""
    feasible: bool
    witness: np.ndarray | None
    residual: float


def _phase_one_simplex(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the artificial-variable sum for a x = b, x >= 0, b >= 0.

    Bland's rule (lowest eligible index enters, lowest-index basic
    variable leaves on ties) guarantees termination without cycling.
    Returns the optimum and the structural part of the solution.
    """
    m, n = a.shape
    t = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    while True:
        reduced = cost.copy()
        for row in t[basis >= n, :-1]:
            reduced -= row
        eligible = np.flatnonzero(reduced < -1e-12)
        if eligible.size == 0:
            break
        entering = eligible[0]
        rows = np.flatnonzero(t[:, entering] > 1e-12)
        if rows.size == 0:
            raise RuntimeError("phase-one column unbounded; inconsistent tableau")
        ratios = t[rows, -1] / t[rows, entering]
        candidates = rows[ratios <= ratios.min()]
        leaving = candidates[np.argmin(basis[candidates])]
        t[leaving] /= t[leaving, entering]
        # Rows with a zero in the entering column are left untouched, so
        # the update matches row-by-row elimination down to signed zeros.
        others = np.flatnonzero(t[:, entering] != 0.0)
        others = others[others != leaving]
        t[others] -= t[others, entering, None] * t[leaving]
        basis[leaving] = entering
    optimum = sum(t[basis >= n, -1])
    x = np.zeros(n + m)
    x[basis] = t[:, -1]
    return float(optimum), x[:n]


def _marginal_rows(spec: MarginalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Equality constraints A x = b on the C-order flattened joint x.

    A pair table fixes the joint summed over the third party, so its rows
    are the identity on the two kept parties broadcast along the summed
    one: the Kronecker product of identities with a row of ones, built by
    broadcasting because np.kron is several times slower at these sizes.
    """
    shape = (spec.n_a, spec.n_b, spec.n_c)
    rows, rhs = [np.zeros((0, math.prod(shape)))], [np.zeros(0)]
    for name, summed in _PAIRS:
        table = getattr(spec, name)
        if table is not None:
            kept = table.shape[:summed] + (1,) + table.shape[summed:]
            eye = np.eye(table.size).reshape(table.size, *kept)
            rows.append(np.broadcast_to(eye, (table.size, *shape))
                        .reshape(table.size, -1))
            rhs.append(table.ravel())
    return np.vstack(rows), np.concatenate(rhs)


def joint_feasible(spec: MarginalSpec) -> FeasibilityResult:
    """Decide whether any joint distribution matches the given tables."""
    a, b = _marginal_rows(spec)
    shape = (spec.n_a, spec.n_b, spec.n_c)
    if b.size == 0:
        uniform = np.full(shape, 1.0 / a.shape[1])
        return FeasibilityResult(feasible=True, witness=uniform, residual=0.0)
    optimum, x = _phase_one_simplex(a, b)
    if optimum <= tol.LP_FEASIBLE:
        return FeasibilityResult(feasible=True, witness=x.reshape(shape),
                                 residual=optimum)
    return FeasibilityResult(feasible=False, witness=None, residual=optimum)


@dataclass(frozen=True)
class Theorem1Report:
    """GHZ marginal-compatibility verdict with the settings context."""
    independence: bool
    result: FeasibilityResult

    @property
    def contradiction(self) -> bool:
        """True when no joint distribution exists: the signaling verdict."""
        return not self.result.feasible


def theorem1_check(state: np.ndarray | None = None,
                   independence: bool = True) -> Theorem1Report:
    """Marginal feasibility for three z-axis measurements on a 3-qubit state.

    Default state is the GHZ state; with the A-C independence condition
    the constraint set is provably empty, which is the signaling
    conclusion for models without local variables.
    """
    vec = ghz3() if state is None else np.asarray(state, dtype=np.complex128)
    joint = born_joint3(vec, (2, 2, 2),
                        (_Z_PROJECTORS, _Z_PROJECTORS, _Z_PROJECTORS))
    ab, bc = joint.sum(axis=2), joint.sum(axis=0)
    ac = np.outer(ab.sum(axis=1), bc.sum(axis=0)) if independence else None
    spec = MarginalSpec(n_a=2, n_b=2, n_c=2, ab=ab, bc=bc, ac=ac)
    return Theorem1Report(independence=independence,
                          result=joint_feasible(spec))
