import math

import numpy as np
import pytest

from nosig.errors import (DegenerateInputError, InvalidInputError)
from nosig.qlinalg import partial_trace
from nosig.states import rho_ab_analytic, rho_ac_analytic
from nosig.uniqueness import (_PENALTY, PurificationParams, _bc_target,
                              _distance_chart, _residual_chart, _to_chart,
                              build_purification,
                              distance_to_unique_point, residual,
                              theorem2_check, unique_point_params,
                              uniqueness_scan)


def random_orthonormal_pair(rng):
    v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    v[0] /= np.linalg.norm(v[0])
    v[1] -= np.vdot(v[0], v[1]) * v[0]
    v[1] /= np.linalg.norm(v[1])
    return v[0], v[1]


def random_params(rng):
    tc, td = rng.uniform(0, math.pi / 2, 2)
    x10, x11 = random_orthonormal_pair(rng)
    x20, x21 = random_orthonormal_pair(rng)
    return PurificationParams(c0=math.cos(tc), c1=math.sin(tc),
                              d0=math.cos(td), d1=math.sin(td),
                              x10=x10, x11=x11, x20=x20, x21=x21)


class TestParamsValidation:
    def test_negative_weight(self):
        p = unique_point_params()
        with pytest.raises(InvalidInputError):
            PurificationParams(c0=-1.0, c1=0.0, d0=0.0, d1=1.0,
                               x10=p.x10, x11=p.x11, x20=p.x20, x21=p.x21)

    def test_unnormalized_weights(self):
        p = unique_point_params()
        with pytest.raises(InvalidInputError):
            PurificationParams(c0=0.9, c1=0.0, d0=0.0, d1=1.0,
                               x10=p.x10, x11=p.x11, x20=p.x20, x21=p.x21)

    def test_wrong_vector_shape(self):
        p = unique_point_params()
        with pytest.raises(InvalidInputError):
            PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=1.0,
                               x10=np.ones(3) / math.sqrt(3), x11=p.x11,
                               x20=p.x20, x21=p.x21)

    def test_non_unit_vector(self):
        p = unique_point_params()
        with pytest.raises(InvalidInputError):
            PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=1.0,
                               x10=0.5 * np.asarray(p.x10), x11=p.x11,
                               x20=p.x20, x21=p.x21)

    def test_non_orthogonal_pair(self):
        p = unique_point_params()
        with pytest.raises(InvalidInputError):
            PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=1.0,
                               x10=p.x10, x11=p.x10, x20=p.x20, x21=p.x21)


class TestUniquePoint:
    def test_zero_residual_across_alpha(self):
        p = unique_point_params()
        for alpha in (0.3, 0.6, math.pi / 4, 1.2):
            v = residual(alpha, p)
            assert v.residual <= 1e-12
            assert v.distance_to_unique_point <= 1e-12

    def test_purification_is_unit_and_reproduces_ab(self):
        alpha = 0.6
        phi = build_purification(alpha, unique_point_params())
        assert np.vdot(phi, phi).real == pytest.approx(1.0, abs=1e-12)
        rho = np.outer(phi, phi.conj())
        rho_ab = partial_trace(rho, (2, 3, 2, 4), (0, 1))
        assert np.allclose(rho_ab, rho_ab_analytic(alpha), atol=1e-12)

    def test_ab_marginal_for_any_params(self):
        # the ansatz reproduces the A-B marginal by construction
        rng = np.random.default_rng(70)
        alpha = 0.9
        for _ in range(10):
            phi = build_purification(alpha, random_params(rng))
            rho_ab = partial_trace(np.outer(phi, phi.conj()), (2, 3, 2, 4),
                                   (0, 1))
            assert np.allclose(rho_ab, rho_ab_analytic(alpha), atol=1e-12)

    def test_ac_marginal_at_unique_point(self):
        alpha = 0.8
        phi = build_purification(alpha, unique_point_params())
        rho_ac = partial_trace(np.outer(phi, phi.conj()), (2, 3, 2, 4),
                               (0, 2))
        assert np.allclose(rho_ac, rho_ac_analytic(alpha), atol=1e-12)

    def test_gauge_invariance(self):
        # a unitary rotation of the ancilla changes nothing observable
        rng = np.random.default_rng(71)
        base = random_params(rng)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        rotated = PurificationParams(
            c0=base.c0, c1=base.c1, d0=base.d0, d1=base.d1,
            x10=u @ base.x10, x11=u @ base.x11,
            x20=u @ base.x20, x21=u @ base.x21)
        va, vb = residual(0.7, base), residual(0.7, rotated)
        assert va.residual == pytest.approx(vb.residual, abs=1e-12)
        assert va.distance_to_unique_point == \
            pytest.approx(vb.distance_to_unique_point, abs=1e-12)

    def test_anti_unique_corner(self):
        e = np.eye(4, dtype=np.complex128)
        p = PurificationParams(c0=0.0, c1=1.0, d0=1.0, d1=0.0,
                               x10=e[0], x11=e[1], x20=e[2], x21=e[3])
        v = residual(math.pi / 4, p)
        assert v.residual > 0.1
        assert v.distance_to_unique_point > 0.5

    def test_degenerate_orthogonalization(self):
        e = np.eye(4, dtype=np.complex128)
        p = PurificationParams(c0=1.0, c1=0.0, d0=1.0, d1=0.0,
                               x10=e[0], x11=e[1], x20=e[0], x21=e[1])
        with pytest.raises(DegenerateInputError):
            build_purification(0.5, p)

    def test_far_samples_have_large_residual(self):
        rng = np.random.default_rng(72)
        floor = np.inf
        kept = 0
        for _ in range(400):
            v = residual(math.pi / 4, random_params(rng))
            if v.distance_to_unique_point > 0.05:
                kept += 1
                floor = min(floor, v.residual)
        assert kept > 300
        assert floor > 1e-4

    def test_distance_definition(self):
        p = unique_point_params()
        assert distance_to_unique_point(p) <= 1e-12

    def test_distance_known_point(self):
        # E2 is already orthogonal to E1 = (x10, 0), so d0_eff = 0.1 and
        # the x21 overlap, normalized by d1_eff, is 1/sqrt(2)
        e = np.eye(4, dtype=np.complex128)
        p = PurificationParams(c0=1.0, c1=0.0, d0=0.1, d1=math.sqrt(0.99),
                               x10=e[0], x11=e[1], x20=e[2],
                               x21=(e[0] + e[3]) / math.sqrt(2.0))
        want = 1.0 - 1.0 / math.sqrt(2.0)
        assert distance_to_unique_point(p) == pytest.approx(want, abs=1e-12)
        assert residual(0.7, p).distance_to_unique_point == \
            pytest.approx(want, abs=1e-12)


class TestChartObjective:
    def test_matches_partial_trace_oracle(self):
        # residual() traces A and X out of the full state with
        # partial_trace; the scan objective takes the einsum marginal
        rng = np.random.default_rng(73)
        alpha = 0.9
        ps = [unique_point_params()] + [random_params(rng) for _ in range(40)]
        chart = np.array([_to_chart(p) for p in ps])
        res = _residual_chart(alpha, chart, _bc_target(alpha))
        dist = _distance_chart(chart)
        for k, p in enumerate(ps):
            v = residual(alpha, p)
            assert res[k] == pytest.approx(v.residual, abs=1e-12)
            assert dist[k] == pytest.approx(v.distance_to_unique_point,
                                            abs=1e-12)

    def test_batch_rows_independent(self):
        # the optimizer merges rows from different branches into one
        # objective call, which is exact only if rows do not interact
        rng = np.random.default_rng(74)
        alpha = 0.8
        chart = rng.standard_normal((30, 34))
        chart[:, :2] = rng.uniform(0.0, math.pi / 2, (30, 2))
        chart[11, 2:10] = 0.0                     # x10 = 0: degenerate row
        target = _bc_target(alpha)
        batch = _residual_chart(alpha, chart, target)
        assert np.flatnonzero(batch == _PENALTY).tolist() == [11]
        for k in range(30):
            assert _residual_chart(alpha, chart[k:k + 1], target)[0] == batch[k]


class TestScan:
    def test_small_scan_confirms(self):
        rep = uniqueness_scan(math.pi / 4, n_samples=300, n_local_starts=8,
                              seed=1)
        assert rep.confirmed
        assert rep.min_residual <= 1e-10
        assert rep.distance_at_min <= 1e-3
        assert rep.near_zero_count >= 1
        assert rep.max_distance_near_zero <= 1e-3

    def test_scan_deterministic(self):
        a = uniqueness_scan(0.7, n_samples=100, n_local_starts=4, seed=9)
        b = uniqueness_scan(0.7, n_samples=100, n_local_starts=4, seed=9)
        assert a == b

    def test_endpoints_rejected(self):
        for alpha in (0.0, math.pi / 2, -0.2, 2.0):
            with pytest.raises(InvalidInputError):
                uniqueness_scan(alpha, n_samples=10, n_local_starts=2)

    def test_bad_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            uniqueness_scan(0.7, n_samples=0, n_local_starts=2)
        with pytest.raises(InvalidInputError):
            uniqueness_scan(0.7, n_samples=10, n_local_starts=0)

    def test_more_starts_than_samples_rejected(self):
        # the scan would run only n_samples random starts but report more
        with pytest.raises(InvalidInputError,
                           match="n_local_starts <= n_samples"):
            uniqueness_scan(math.pi / 4, n_samples=3, n_local_starts=50)
        rep = uniqueness_scan(math.pi / 4, n_samples=3, n_local_starts=3)
        assert rep.n_local_starts == 3


class TestTheorem2:
    def test_violating_regime(self):
        alpha = math.acos(math.sqrt(0.85))
        rep = theorem2_check(alpha, n_samples=300, n_local_starts=8, seed=2)
        assert rep.chsh_max == pytest.approx(2 * math.sqrt(2) * 0.85, abs=1e-9)
        assert rep.scan.confirmed
        assert rep.contradiction

    def test_non_violating_regime(self):
        alpha = math.acos(math.sqrt(0.5))
        rep = theorem2_check(alpha, n_samples=300, n_local_starts=8, seed=2)
        assert rep.chsh_max < 2.0
        assert rep.scan.confirmed
        assert not rep.contradiction

    def test_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            theorem2_check(0.0, n_samples=10, n_local_starts=2)
