import hashlib
import math
import time

import numpy as np
import pytest

from nosig.correlations import born_joint3
from nosig.errors import InvalidInputError
from nosig.feasibility import (_Z_PROJECTORS, FeasibilityResult,
                               MarginalSpec, _marginal_rows,
                               _phase_one_simplex, joint_feasible,
                               theorem1_check)

GHZ_DIAG = np.diag([0.5, 0.5])
# SHA-256 of the LP outputs in TestOutputDigest, measured with the
# row-by-row tableau elimination the numpy pivot replaced.
LP_DIGEST = "d45037df426e4c73d6931b28e517c0b77b867eae2d8a0fe75380cfd845a01dff"


def random_joint(rng, shape):
    p = rng.dirichlet(np.ones(int(np.prod(shape))))
    return p.reshape(shape)


def tables_of(joint):
    return joint.sum(axis=2), joint.sum(axis=0), joint.sum(axis=1)


class TestMarginalSpecValidation:
    def test_accepts_consistent_tables(self):
        rng = np.random.default_rng(60)
        joint = random_joint(rng, (2, 3, 2))
        ab, bc, ac = tables_of(joint)
        spec = MarginalSpec(n_a=2, n_b=3, n_c=2, ab=ab, bc=bc, ac=ac)
        assert np.array_equal(spec.ac, ac)

    def test_negative_entry(self):
        bad = np.array([[0.6, -0.1], [0.3, 0.2]])
        with pytest.raises(InvalidInputError):
            MarginalSpec(n_a=2, n_b=2, n_c=2, ab=bad)

    def test_nan_entry(self):
        bad = np.array([[np.nan, 0.25], [0.25, 0.25]])
        with pytest.raises(InvalidInputError):
            MarginalSpec(n_a=2, n_b=2, n_c=2, ab=bad)

    def test_bad_sum(self):
        with pytest.raises(InvalidInputError):
            MarginalSpec(n_a=2, n_b=2, n_c=2, ab=np.full((2, 2), 0.3))

    def test_sum_tolerance_is_the_distribution_tolerance(self):
        # tables are checked against PROB_SUM (1e-10), like the Born joint
        MarginalSpec(n_a=2, n_b=2, n_c=2, ab=np.diag([0.5, 0.5 + 2e-11]))
        with pytest.raises(InvalidInputError):
            MarginalSpec(n_a=2, n_b=2, n_c=2, ab=np.diag([0.5, 0.5 + 2e-10]))

    def test_bad_shape(self):
        with pytest.raises(InvalidInputError):
            MarginalSpec(n_a=2, n_b=3, n_c=2, ab=np.full((2, 2), 0.25))

    def test_bad_outcome_count(self):
        for bad in (0, 2.0, True):
            with pytest.raises(InvalidInputError):
                MarginalSpec(n_a=bad, n_b=2, n_c=2)

    def test_conflicting_shared_marginal(self):
        ab = np.array([[0.5, 0.1], [0.2, 0.2]])   # a-marginal (0.6, 0.4)
        ac = np.full((2, 2), 0.25)                # a-marginal (0.5, 0.5)
        with pytest.raises(InvalidInputError):
            MarginalSpec(n_a=2, n_b=2, n_c=2, ab=ab, ac=ac)

    def test_conflicting_b_marginal(self):
        ab = np.array([[0.5, 0.1], [0.2, 0.2]])   # b-marginal (0.7, 0.3)
        bc = np.full((2, 2), 0.25)                # b-marginal (0.5, 0.5)
        with pytest.raises(InvalidInputError, match="marginals for b"):
            MarginalSpec(n_a=2, n_b=2, n_c=2, ab=ab, bc=bc)

    def test_conflicting_c_marginal(self):
        bc = np.array([[0.5, 0.1], [0.2, 0.2]])   # c-marginal (0.7, 0.3)
        ac = np.full((2, 2), 0.25)                # c-marginal (0.5, 0.5)
        with pytest.raises(InvalidInputError, match="marginals for c"):
            MarginalSpec(n_a=2, n_b=2, n_c=2, bc=bc, ac=ac)

    def test_conflict_within_tolerance_accepted(self):
        ab = np.full((2, 2), 0.25)
        bc = np.array([[0.25 + 5e-11, 0.25], [0.25 - 5e-11, 0.25]])
        MarginalSpec(n_a=2, n_b=2, n_c=2, ab=ab, bc=bc)


def loop_rows(spec):
    # one row per table entry, filled index by index
    na, nb, nc = spec.n_a, spec.n_b, spec.n_c
    rows, rhs = [], []
    for table, pair in ((spec.ab, "ab"), (spec.bc, "bc"), (spec.ac, "ac")):
        if table is None:
            continue
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                row = np.zeros((na, nb, nc))
                if pair == "ab":
                    row[i, j, :] = 1.0
                elif pair == "bc":
                    row[:, i, j] = 1.0
                else:
                    row[i, :, j] = 1.0
                rows.append(row.ravel())
                rhs.append(table[i, j])
    return np.array(rows), np.array(rhs)


class TestMarginalRows:
    @pytest.mark.parametrize("shape", [(2, 3, 2), (3, 2, 4), (2, 2, 2)])
    def test_kronecker_rows_match_loop(self, shape):
        rng = np.random.default_rng(67)
        ab, bc, ac = tables_of(random_joint(rng, shape))
        product = np.outer(ab.sum(axis=1), bc.sum(axis=0))
        for kwargs in (dict(ab=ab, bc=bc, ac=ac),
                       dict(ab=ab, bc=bc, ac=product),
                       dict(bc=bc), dict(ac=ac)):
            spec = MarginalSpec(*shape, **kwargs)
            a, b = _marginal_rows(spec)
            want_a, want_b = loop_rows(spec)
            assert np.array_equal(a, want_a)
            assert np.array_equal(b, want_b)


def reference_phase_one(a, b):
    # The phase-one loop that rebuilt the reduced costs from the basic
    # artificial rows on every pivot and ran the ratio test in numpy;
    # returns the optimum, the witness and the pivot count.
    m, n = a.shape
    t = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    pivots = 0
    while True:
        reduced = cost.copy()
        for row in t[basis >= n, :-1]:
            reduced -= row
        eligible = np.flatnonzero(reduced < -1e-12)
        if eligible.size == 0:
            break
        entering = eligible[0]
        rows = np.flatnonzero(t[:, entering] > 1e-12)
        ratios = t[rows, -1] / t[rows, entering]
        candidates = rows[ratios <= ratios.min()]
        leaving = candidates[np.argmin(basis[candidates])]
        t[leaving] /= t[leaving, entering]
        others = np.flatnonzero(t[:, entering] != 0.0)
        others = others[others != leaving]
        t[others] -= t[others, entering, None] * t[leaving]
        basis[leaving] = entering
        pivots += 1
    optimum = sum(t[basis >= n, -1])
    x = np.zeros(n + m)
    x[basis] = t[:, -1]
    return float(optimum), x[:n], pivots


def ghz_family_spec(t, phi, independence):
    # the spec theorem1_check builds for cos t|000> + e^{i phi} sin t|111>
    state = np.zeros(8, dtype=np.complex128)
    state[0], state[7] = math.cos(t), np.exp(1j * phi) * math.sin(t)
    joint = born_joint3(state, (2, 2, 2), (_Z_PROJECTORS,) * 3)
    ab, bc = joint.sum(axis=2), joint.sum(axis=0)
    ac = np.outer(ab.sum(axis=1), bc.sum(axis=0)) if independence else None
    return state, MarginalSpec(2, 2, 2, ab, bc, ac)


class TestReferenceSimplex:
    def specs(self):
        # Dirichlet(1) joints and sparse Dirichlet(0.3) joints with the
        # entries below 0.05 set to zero (ratio ties, degenerate pivots),
        # under their own and the product A-C table, and with one or two
        # of the three tables
        rng = np.random.default_rng(2016)
        for shape in ((2, 2, 2), (2, 3, 2), (3, 2, 4), (4, 4, 4)):
            for k in range(30):
                joint = rng.dirichlet(np.full(math.prod(shape),
                                              0.3 if k % 2 else 1.0))
                if k % 2:
                    joint[joint < 0.05] = 0.0
                    joint /= joint.sum()
                ab, bc, ac = tables_of(joint.reshape(shape))
                product = np.outer(ab.sum(axis=1), bc.sum(axis=0))
                for kwargs in (dict(ab=ab, bc=bc, ac=ac),
                               dict(ab=ab, bc=bc, ac=product),
                               dict(ab=ab, ac=ac), dict(bc=bc)):
                    yield MarginalSpec(*shape, **kwargs)

    def test_same_pivots_and_bits_as_the_reference(self):
        count, verdicts = 0, set()
        for spec in self.specs():
            a, b = _marginal_rows(spec)
            want = reference_phase_one(a, b)
            got = _phase_one_simplex(a, b)
            assert got[0].hex() == want[0].hex()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]
            count += 1
            verdicts.add(want[0] <= 1e-9)
        assert count == 480
        assert verdicts == {True, False}

    def test_ghz_family_matches_the_reference(self):
        rng = np.random.default_rng(2004)
        for _ in range(30):
            t = rng.uniform(0.2, math.pi / 2 - 0.2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            for independence in (True, False):
                state, spec = ghz_family_spec(t, phi, independence)
                a, b = _marginal_rows(spec)
                optimum, x, pivots = reference_phase_one(a, b)
                res = theorem1_check(state, independence).result
                assert res.residual.hex() == optimum.hex()
                assert res.pivots == pivots
                if res.feasible:
                    assert res.witness.tobytes() == x.tobytes()

    def test_constraint_matrix_is_shared_and_read_only(self):
        rng = np.random.default_rng(65)
        specs = [MarginalSpec(2, 3, 2, *tables_of(random_joint(rng, (2, 3, 2))))
                 for _ in range(2)]
        (a1, b1), (a2, b2) = (_marginal_rows(spec) for spec in specs)
        assert a1 is a2
        assert not a1.flags.writeable
        assert not np.array_equal(b1, b2)


class TestJointFeasible:
    def test_no_tables_gives_uniform(self):
        res = joint_feasible(MarginalSpec(n_a=2, n_b=3, n_c=2))
        assert res.feasible
        assert np.allclose(res.witness, 1.0 / 12)
        assert res.residual == 0.0
        assert res.pivots == 0

    def test_realizable_tables_are_feasible(self):
        rng = np.random.default_rng(61)
        for shape in ((2, 3, 2), (4, 4, 4)):
            joint = random_joint(rng, shape)
            ab, bc, ac = tables_of(joint)
            spec = MarginalSpec(n_a=shape[0], n_b=shape[1], n_c=shape[2],
                                ab=ab, bc=bc, ac=ac)
            res = joint_feasible(spec)
            assert res.feasible
            assert res.residual <= 1e-9

    def test_witness_matches_tables(self):
        rng = np.random.default_rng(62)
        joint = random_joint(rng, (3, 2, 3))
        ab, bc, ac = tables_of(joint)
        spec = MarginalSpec(n_a=3, n_b=2, n_c=3, ab=ab, bc=bc, ac=ac)
        w = joint_feasible(spec).witness
        assert np.all(w >= -1e-12)
        assert np.max(np.abs(w.sum(axis=2) - ab)) <= 1e-9
        assert np.max(np.abs(w.sum(axis=0) - bc)) <= 1e-9
        assert np.max(np.abs(w.sum(axis=1) - ac)) <= 1e-9

    def test_fully_product_state_feasible_under_independence(self):
        pa, pb, pc = np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3]), \
            np.array([0.9, 0.1])
        joint = pa[:, None, None] * pb[None, :, None] * pc[None, None, :]
        ab, bc = joint.sum(axis=2), joint.sum(axis=0)
        spec = MarginalSpec(n_a=2, n_b=3, n_c=2, ab=ab, bc=bc,
                            ac=np.outer(ab.sum(axis=1), bc.sum(axis=0)))
        assert joint_feasible(spec).feasible

    def test_signed_zeros_pass_through(self):
        # rows with a zero in the entering column are not touched, so the
        # -0.0 entries of these tables keep their sign in the witness
        diag = np.array([[0.5, -0.0], [-0.0, 0.5]])
        w = joint_feasible(MarginalSpec(2, 2, 2, diag, diag, diag)).witness
        assert np.signbit(w).ravel().tolist() == [False] * 3 + [True] * 2 \
            + [False] * 3

    def test_perfect_chains_force_ac_correlation(self):
        # a=b and b=c almost surely, so demanding independent a, c must fail
        spec = MarginalSpec(n_a=2, n_b=2, n_c=2, ab=GHZ_DIAG, bc=GHZ_DIAG,
                            ac=np.full((2, 2), 0.25))
        res = joint_feasible(spec)
        assert not res.feasible
        assert res.witness is None
        assert res.residual > 1e-9

    def test_correlated_ac_restores_feasibility(self):
        spec = MarginalSpec(n_a=2, n_b=2, n_c=2, ab=GHZ_DIAG, bc=GHZ_DIAG,
                            ac=GHZ_DIAG)
        res = joint_feasible(spec)
        assert res.feasible
        assert res.witness[0, 0, 0] == pytest.approx(0.5, abs=1e-9)
        assert res.witness[1, 1, 1] == pytest.approx(0.5, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(63)
        joint = random_joint(rng, (2, 3, 2))
        ab, bc, ac = tables_of(joint)
        spec = MarginalSpec(n_a=2, n_b=3, n_c=2, ab=ab, bc=bc, ac=ac)
        r1, r2 = joint_feasible(spec), joint_feasible(spec)
        assert np.array_equal(r1.witness, r2.witness)
        assert r1.residual == r2.residual

    def test_largest_instance_is_quick(self):
        rng = np.random.default_rng(64)
        joint = random_joint(rng, (4, 4, 4))
        ab, bc, ac = tables_of(joint)
        spec = MarginalSpec(n_a=4, n_b=4, n_c=4, ab=ab, bc=bc, ac=ac)
        start = time.perf_counter()
        res = joint_feasible(spec)
        assert time.perf_counter() - start < 1.0
        assert res.feasible


class TestOutputDigest:
    def test_lp_outputs_pinned(self):
        # Dirichlet joints under their own and the product A-C table, then
        # cos t|000> + e^{i phi} sin t|111> with and without independence.
        rng = np.random.default_rng(2004)
        results = []
        for joint in [random_joint(rng, (2, 3, 2)) for _ in range(60)]:
            ab, bc, ac = tables_of(joint)
            for table in (ac, np.outer(ab.sum(axis=1), bc.sum(axis=0))):
                results.append(joint_feasible(MarginalSpec(2, 3, 2, ab, bc,
                                                           table)))
        for _ in range(60):
            t = rng.uniform(0.2, math.pi / 2 - 0.2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            state = np.zeros(8, dtype=np.complex128)
            state[0], state[7] = math.cos(t), np.exp(1j * phi) * math.sin(t)
            for independence in (True, False):
                results.append(theorem1_check(state, independence).result)
        assert {res.feasible for res in results} == {True, False}
        digest = hashlib.sha256()
        for res in results:
            witness = b"" if res.witness is None else res.witness.tobytes()
            digest.update(repr((res.feasible, res.residual.hex())).encode()
                          + witness)
        assert digest.hexdigest() == LP_DIGEST


class TestTheorem1:
    def test_state_of_wrong_size_is_an_input_error(self):
        with pytest.raises(InvalidInputError, match="7 entries"):
            theorem1_check(np.zeros(7))

    def test_independence_contradiction(self):
        rep = theorem1_check()
        assert rep.independence
        assert not rep.result.feasible
        assert rep.contradiction
        assert rep.result.residual == pytest.approx(1.5, abs=1e-9)
        assert rep.result.pivots == 6

    def test_without_independence_unique_witness(self):
        rep = theorem1_check(independence=False)
        assert not rep.contradiction
        assert rep.result.pivots == 6
        w = rep.result.witness
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 1] = 0.5
        assert np.allclose(w, expected, atol=1e-9)

    def test_product_state_feasible(self):
        vec = np.zeros(8, dtype=np.complex128)
        vec[0] = 1.0
        rep = theorem1_check(state=vec)
        assert not rep.contradiction
        assert rep.result.witness[0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_result_type(self):
        assert isinstance(theorem1_check().result, FeasibilityResult)

    @pytest.mark.parametrize("eps", [2e-12, 2e-11])
    def test_slightly_unnormalized_state_keeps_verdicts(self, eps):
        # cos t|000> + sin t|111> with norm^2 1 + eps: the Born joint
        # passes PROB_SUM, so the tables must too, in both modes
        vec = np.zeros(8, dtype=np.complex128)
        vec[0], vec[7] = math.cos(0.6), math.sin(0.6)
        vec *= math.sqrt(1.0 + eps)
        assert theorem1_check(vec, independence=True).contradiction
        assert not theorem1_check(vec, independence=False).contradiction
