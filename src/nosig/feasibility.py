"""Existence of a joint distribution with prescribed two-party marginals.

The question is a small linear program: does p(a, b, c) >= 0 exist whose
pair marginals match the given tables?  A self-contained phase-one
simplex with Bland's anti-cycling rule answers it deterministically; the
instances here have at most 64 variables, so a dense tableau is plenty.
It carries its reduced-cost row, and each constraint matrix is built
once per shape and set of tables.

The headline instance takes the three z-axis measurements of the
three-qubit GHZ state, fixes the quantum A-B and B-C tables, and adds
the independence requirement P(a,c) = P(a)P(c) appropriate when the A-C
pair is spacelike separated even for the superluminal mechanism, passed
as an explicit A-C table built from the other two: no joint distribution
exists, so a model without local variables signals.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .correlations import born_joint3
from .errors import InvalidInputError
from .optimizer import _is_count
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
            if not _is_count(n, 1):
                raise InvalidInputError(f"{name} must be a positive integer")
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
    """Phase-one outcome: a witness or the violation floor, and the pivots."""
    feasible: bool
    witness: np.ndarray | None
    residual: float
    pivots: int


def _phase_one_simplex(a: np.ndarray,
                       b: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Minimize the artificial-variable sum for a x = b, x >= 0, b >= 0.

    Bland's rule (lowest eligible index enters, lowest-index basic
    variable leaves on ties) guarantees termination without cycling.
    The reduced-cost row is the tableau's last row, eliminated like the
    others, which never changes rows 0..m-1; the ratio test runs on
    Python floats.  Returns the optimum, the structural part of the
    solution and the pivot count.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n], t[:m, n:-1], t[:m, -1] = a, np.eye(m), b
    # cost (0 structural, 1 artificial) minus every row; a is 0/1, so exact
    t[m, :n], t[m, -1] = -a.sum(axis=0), -b.sum()
    basis = list(range(n, n + m))
    for pivots in itertools.count():
        below = t[m, :-1] < -1e-12
        entering = int(below.argmax())
        if not below[entering]:
            break
        # row m is below -1e-12 here, so it never enters the ratio test
        column, rhs = t[:, entering].tolist(), t[:, -1].tolist()
        ratios = [(rhs[i] / v, basis[i], i) for i, v in enumerate(column)
                  if v > 1e-12]
        if not ratios:
            raise RuntimeError("phase-one column unbounded; inconsistent tableau")
        leaving = min(ratios)[2]
        t[leaving] /= t[leaving, entering]
        # Rows with a zero in the entering column are left untouched, so
        # the update matches row-by-row elimination down to signed zeros.
        others = [i for i, v in enumerate(column) if v != 0.0 and i != leaving]
        t[others] -= t[others, entering, None] * t[leaving]
        basis[leaving] = entering
    basis = np.array(basis)
    x = np.zeros(n + m)
    x[basis] = t[:m, -1]
    return float(sum(t[:m, -1][basis >= n])), x[:n], pivots


@functools.cache
def _constraint_matrix(shape: tuple, names: tuple) -> np.ndarray:
    """Read-only rows of the named pair tables, built once per argument.

    A pair table fixes the joint summed over the third party, so its rows
    are the identity on the two kept parties broadcast along the summed
    one: the Kronecker product of identities with a row of ones, built by
    broadcasting because np.kron is several times slower at these sizes.
    """
    rows = [np.zeros((0, math.prod(shape)))]
    for name, summed in _PAIRS:
        if name in names:
            kept = shape[:summed] + (1,) + shape[summed + 1:]
            eye = np.eye(math.prod(kept)).reshape(-1, *kept)
            rows.append(np.broadcast_to(eye, (len(eye), *shape))
                        .reshape(len(eye), -1))
    a = np.vstack(rows)
    a.flags.writeable = False
    return a


def _marginal_rows(spec: MarginalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Equality constraints A x = b on the C-order flattened joint x."""
    names = tuple(n for n, _ in _PAIRS if getattr(spec, n) is not None)
    return (_constraint_matrix((spec.n_a, spec.n_b, spec.n_c), names),
            np.concatenate([np.zeros(0)]
                           + [getattr(spec, name).ravel() for name in names]))


def joint_feasible(spec: MarginalSpec) -> FeasibilityResult:
    """Decide whether any joint distribution matches the given tables."""
    a, b = _marginal_rows(spec)
    shape = (spec.n_a, spec.n_b, spec.n_c)
    if b.size == 0:
        return FeasibilityResult(True, np.full(shape, 1 / a.shape[1]), 0.0, 0)
    optimum, x, pivots = _phase_one_simplex(a, b)
    feasible = optimum <= tol.LP_FEASIBLE
    return FeasibilityResult(feasible, x.reshape(shape) if feasible else None,
                             optimum, pivots)


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
