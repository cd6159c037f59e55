import math

import numpy as np
import pytest

from nosig import uniqueness
from nosig.errors import (DegenerateInputError, InvalidInputError)
from nosig.qlinalg import partial_trace
from nosig.optimizer import levenberg_marquardt_batch, nelder_mead_batch
from nosig.states import psi1, psi2, rho_ab_analytic, rho_ac_analytic
from nosig.tolerances import (NEAR_ZERO_RESIDUAL, ORTHO_COLLAPSE,
                              SIMPLEX_DIAMETER, UNIQUE_DISTANCE)
from nosig.uniqueness import (_LM_ITERS, _PENALTY, _ROUND_ITERS,
                              _UNIQUE_GRAMS, PurificationParams, _bc_target,
                              _chart_states, _distance_bound, _distance_chart,
                              _e_pair, _grams, _purification, _rechart,
                              _residual_chart, _residual_terms,
                              _stop_residual, _to_chart,
                              build_purification, residual, theorem2_check,
                              unique_point_params, uniqueness_scan)


def random_params(rng):
    # four independent unit vectors; no pair is made orthogonal
    tc, td = rng.uniform(0, math.pi / 2, 2)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x10, x11, x20, x21 = v / np.linalg.norm(v, axis=1, keepdims=True)
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
        with pytest.raises(InvalidInputError, match=r"\(d0, d1\)"):
            PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=0.9,
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

    def test_nan_weight(self):
        # NaN passes both the sign and the normalization comparison
        p = unique_point_params()
        with pytest.raises(InvalidInputError, match="c0 must be finite"):
            PurificationParams(c0=math.nan, c1=0.0, d0=0.0, d1=1.0,
                               x10=p.x10, x11=p.x11, x20=p.x20, x21=p.x21)

    def test_nan_vector_entry(self):
        p = unique_point_params()
        x10 = np.array(p.x10)
        x10[2] = math.nan
        with pytest.raises(InvalidInputError, match="x10 is not a finite unit"):
            PurificationParams(c0=1.0, c1=0.0, d0=0.0, d1=1.0,
                               x10=x10, x11=p.x11, x20=p.x20, x21=p.x21)

    def test_non_orthogonal_pair(self):
        # E1 = c0|0>x10 + c1|1>x11 is a unit vector for any unit x10, x11
        e = np.eye(4, dtype=np.complex128)
        x = (e[0] + e[1]) / math.sqrt(2.0)
        p = PurificationParams(c0=0.6, c1=0.8, d0=0.8, d1=0.6,
                               x10=e[0], x11=x, x20=x, x21=e[2])
        phi = build_purification(0.7, p)
        assert np.vdot(phi, phi).real == pytest.approx(1.0, abs=1e-12)
        rho_ab = partial_trace(np.outer(phi, phi.conj()), (2, 3, 2, 4),
                               (0, 1))
        assert np.allclose(rho_ab, rho_ab_analytic(0.7), atol=1e-12)


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
        # residual() is the one per-point distance; it does not read alpha
        p = unique_point_params()
        assert residual(0.3, p).distance_to_unique_point <= 1e-12
        rng = np.random.default_rng(73)
        q = random_params(rng)
        assert residual(0.3, q).distance_to_unique_point == \
            residual(1.2, q).distance_to_unique_point

    def test_distance_known_point(self):
        # E2 is already orthogonal to E1 = (x10, 0), so d0_eff = 0.1 and
        # the x21 overlap, normalized by d1_eff, is 1/sqrt(2)
        e = np.eye(4, dtype=np.complex128)
        p = PurificationParams(c0=1.0, c1=0.0, d0=0.1, d1=math.sqrt(0.99),
                               x10=e[0], x11=e[1], x20=e[2],
                               x21=(e[0] + e[3]) / math.sqrt(2.0))
        want = 1.0 - 1.0 / math.sqrt(2.0)
        assert residual(0.7, p).distance_to_unique_point == \
            pytest.approx(want, abs=1e-12)


def s_table(alpha, i, j):
    """S_ij = Tr_A |psi_i><psi_j| on B, rebuilt from the state vectors."""
    v = [psi1(alpha).reshape(2, 3), psi2(alpha).reshape(2, 3)]
    return np.einsum("ab,aB->bB", v[i], v[j].conj())


def random_chart(rng, rows):
    chart = rng.standard_normal((rows, 17))
    chart[:, :2] = rng.uniform(0.0, math.pi / 2, (rows, 2))
    return chart


def frame_params(row):
    """The PurificationParams of a frame row, filled entry by entry: x10 =
    e0, then re/im pairs of x11, x20 and x21, the last entry of each real.
    The weights are (cos, sin) of the two angles; a negative weight is a
    sign on its vector, the same purification with a nonnegative weight."""
    r = row
    vecs = [np.array(v, dtype=np.complex128) for v in (
        [1.0, 0.0, 0.0, 0.0],
        [r[2] + 1j * r[3], r[4], 0.0, 0.0],
        [r[5] + 1j * r[6], r[7] + 1j * r[8], r[9], 0.0],
        [r[10] + 1j * r[11], r[12] + 1j * r[13], r[14] + 1j * r[15], r[16]])]
    w = [f(t) for t in r[:2] for f in (math.cos, math.sin)]
    x = [math.copysign(1.0, wk) * v / np.linalg.norm(v)
         for wk, v in zip(w, vecs)]
    return PurificationParams(*(abs(wk) for wk in w), *x)


def swapped_params(rng):
    """E1 = |1>x and E2 = |0>y with x orthogonal to y; x10 and x21, of
    weight 0, are random."""
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x10, x21 = v[:2] / np.linalg.norm(v[:2], axis=1, keepdims=True)
    x, y = np.linalg.qr(v[2:].T)[0].T
    return PurificationParams(c0=0.0, c1=1.0, d0=1.0, d1=0.0,
                              x10=x10, x11=x, x20=y, x21=x21)


class TestChartObjective:
    ALPHAS = (1e-3, 0.3, 0.7, math.pi / 4, 1.1, math.pi / 2 - 1e-3)

    def test_s_tables_closed_form(self):
        # the entries the objective's weights s^4, c^4 and 4 s^2 c^2 use
        for alpha in self.ALPHAS:
            s, c = math.sin(alpha), math.cos(alpha)
            off = np.zeros((3, 3))
            off[0, 2] = off[2, 1] = s * c
            assert np.allclose(s_table(alpha, 0, 0),
                               np.diag([s * s, 0.0, c * c]), atol=1e-16)
            assert np.allclose(s_table(alpha, 1, 1),
                               np.diag([0.0, s * s, c * c]), atol=1e-16)
            assert np.allclose(s_table(alpha, 0, 1), off, atol=1e-16)
            assert np.allclose(s_table(alpha, 1, 0), off.T, atol=1e-16)

    def test_target_is_s_tensor_g_at_unique_point(self):
        g11, g22, g12 = (g[..., 0] for g in _UNIQUE_GRAMS)
        grams = {(0, 0): g11, (1, 1): g22, (0, 1): g12,
                 (1, 0): g12.conj().T}
        for alpha in np.linspace(0.0, math.pi / 2, 13):
            rho = 0.5 * sum(np.kron(s_table(alpha, i, j), g)
                            for (i, j), g in grams.items())
            assert np.max(np.abs(rho - _bc_target(alpha))) <= 1e-15

    def test_matches_partial_trace_oracle(self):
        # residual() traces A and X out of the full state with
        # partial_trace; the scan objective uses the S (x) G closed form
        rng = np.random.default_rng(73)
        alpha = 0.9
        ps = [unique_point_params()] + [random_params(rng) for _ in range(40)]
        chart = np.array([_to_chart(p) for p in ps])
        res = _residual_chart(alpha, chart)
        terms = np.linalg.norm(_residual_terms(alpha, chart), axis=1)
        dist = _distance_chart(chart)
        for k, p in enumerate(ps):
            v = residual(alpha, p)
            assert res[k] == pytest.approx(v.residual, abs=1e-12)
            assert terms[k] == pytest.approx(v.residual, abs=1e-12)
            assert dist[k] == pytest.approx(v.distance_to_unique_point,
                                            abs=1e-12)

    def test_terms_are_the_residual(self):
        # the 32 real terms' norm is the objective; degenerate rows (x11 =
        # 0, a collapsed E2) give NaN terms where the objective penalizes
        rng = np.random.default_rng(79)
        chart = random_chart(rng, 500)
        chart[3, 2:5] = 0.0
        chart[7, 1] = chart[7, 0]
        chart[7, 5:10] = [1.0, 0.0, 0.0, 0.0, 0.0]
        chart[7, 10:17] = np.append(chart[7, 2:5], np.zeros(4))
        for alpha in (0.3, math.pi / 4, 1.2):
            terms = _residual_terms(alpha, chart)
            res = _residual_chart(alpha, chart)
            assert terms.shape == (500, 32)
            bad = np.isnan(terms)
            assert np.flatnonzero(bad.any(axis=1)).tolist() == [3, 7]
            assert bad[[3, 7]].all()
            assert np.flatnonzero(res == _PENALTY).tolist() == [3, 7]
            ok = ~bad.any(axis=1)
            norm = np.linalg.norm(terms[ok], axis=1)
            assert np.max(np.abs(norm - res[ok]) / res[ok]) <= 1e-15

    def test_residual_bounds_the_gram_differences(self):
        # residual >= s^2 |D11|/2, s^2 |D22|/2 and s c |D12|, so a zero
        # residual forces G = G* (module docstring); checked on the
        # partial_trace oracle
        rng = np.random.default_rng(78)
        for alpha in (0.3, math.pi / 4, 1.2):
            s, c = math.sin(alpha), math.cos(alpha)
            for _ in range(20):
                p = random_params(rng)
                d11, d22, d12 = (np.linalg.norm(g - g0) for g, g0
                                 in zip(_grams(*_e_pair(p)), _UNIQUE_GRAMS))
                r = residual(alpha, p).residual
                assert r >= s * s * d11 / 2
                assert r >= s * s * d22 / 2
                assert r >= s * c * d12

    def test_chart_reaches_non_orthogonal_pairs(self):
        # the chart decodes a non-orthogonal p to an E pair with p's Gram
        # blocks, so the scan visits purifications whose G11 is not
        # diagonal; the frame fixes the X gauge, so the E vectors
        # themselves are p's up to a unitary on X
        rng = np.random.default_rng(77)
        q = random_params(rng)
        x11 = (q.x10 + q.x11) / np.linalg.norm(q.x10 + q.x11)
        p = PurificationParams(c0=math.sqrt(0.5), c1=math.sqrt(0.5),
                               d0=q.d0, d1=q.d1, x10=q.x10, x11=x11,
                               x20=q.x20, x21=q.x21)
        e1, e2, _, _, bad = _chart_states(_to_chart(p)[None])
        assert not bad[0]
        got = _grams(e1, e2)
        for g, want in zip(got, _grams(*_e_pair(p))):
            assert np.max(np.abs(g - want)) <= 1e-15
        assert abs(got[0][0, 1, 0]) > 0.1

    def test_unique_point_frame_row(self):
        # x10 = e0 is implicit; x11 = x20 = e1 and x21 = e0
        want = [0.0, math.pi / 2, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        assert _to_chart(unique_point_params()).tolist() == want

    def test_frame_round_trip(self):
        # any params, dependent vectors included, decode to their own
        # Gram blocks and residual; the rows without an equal pair are
        # random_params themselves
        rng = np.random.default_rng(80)
        alpha = 0.7
        for k in range(200):
            p = random_params(rng)
            x = [p.x10, p.x11, p.x20, p.x21]
            w = {"c0": p.c0, "c1": p.c1, "d0": p.d0, "d1": p.d1}
            if k % 4 == 1:
                x[1] = x[0]                       # x11 = x10
            elif k % 4 == 2:
                x[3] = x[2]                       # x21 = x20
            elif k % 4 == 3:
                x = [x[0]] * 4                    # all four equal
                # E2 is then (d0, d1) (x) x10 against (c0, c1) (x) x10, and
                # orthogonalizing it scales rounding by 1/|sin(tc - td)|;
                # keep that factor below 1.5
                tc = rng.uniform(0.0, math.pi / 8)
                td = rng.uniform(3 * math.pi / 8, math.pi / 2)
                w = {"c0": math.cos(tc), "c1": math.sin(tc),
                     "d0": math.cos(td), "d1": math.sin(td)}
            p = PurificationParams(**w, x10=x[0], x11=x[1], x20=x[2],
                                   x21=x[3])
            chart = _to_chart(p)[None]
            assert np.all(chart[0, [4, 9, 16]] >= 0.0)   # R's diagonal
            e1, e2, _, _, bad = _chart_states(chart)
            assert not bad[0]
            for g, want in zip(_grams(e1, e2), _grams(*_e_pair(p))):
                assert np.max(np.abs(g - want)) <= 1e-15
            assert _residual_chart(alpha, chart)[0] == \
                pytest.approx(residual(alpha, p).residual, abs=1e-12)

    @pytest.mark.parametrize("angle", [0, 1])
    def test_terms_smooth_through_zero_weights(self, angle):
        # the chart's weights are (cos t, sin t), not their absolute
        # values, so the 32 terms stay smooth where the unique point puts
        # c1 = 0 (angle 0 at 0) and d0 = 0 (angle 1 at pi/2): a forward
        # difference at the least-squares step and a central one at 10
        # times that step agree on either side of, and across, those
        # zeros.  <x10|x11> and <x20|x21> are nonzero, so both weights
        # enter the terms linearly
        alpha = math.acos(math.sqrt(0.85))
        row = _to_chart(unique_point_params())
        row[[2, 12]] = 0.3

        def terms(t):
            r = row.copy()
            r[angle] = t
            return _residual_terms(alpha, r[None])[0]

        for off in (-5e-8, -1e-9, 1e-9, 3e-8):
            t = row[angle] + off
            forward = (terms(t + 1e-7) - terms(t)) / 1e-7
            central = (terms(t + 1e-6) - terms(t - 1e-6)) / 2e-6
            assert np.linalg.norm(forward - central) <= 1e-6

    @pytest.mark.parametrize("cos2", [0.05, 0.5, 0.85, 0.99])
    def test_distance_bound(self, cos2):
        # distance <= max(sqrt(2r)/s, r/(s c)) (module docstring) on frame
        # rows 1e-6 to 1 from the unique row; every 200th row is checked
        # against the partial_trace oracle, the rest through the chart
        # objective pinned to it
        alpha = math.acos(math.sqrt(cos2))
        rng = np.random.default_rng(79)
        step = rng.standard_normal((14000, 17))
        step *= np.logspace(-6.0, 0.0, len(step))[:, None] \
            / np.linalg.norm(step, axis=1, keepdims=True)
        rows = _to_chart(unique_point_params()) + step
        r = _residual_chart(alpha, rows)
        dist = _distance_chart(rows)
        assert np.all(r != _PENALTY)
        assert np.all(dist <= _distance_bound(alpha, r))
        for k in range(0, len(rows), 200):
            v = residual(alpha, frame_params(rows[k]))
            assert v.residual == pytest.approx(r[k], abs=1e-12)
            assert v.distance_to_unique_point == \
                pytest.approx(dist[k], abs=1e-12)
            assert v.distance_to_unique_point <= \
                _distance_bound(alpha, v.residual)
        # r < NEAR_ZERO_RESIDUAL forces the verdict up to cos^2 = 0.98
        assert (_distance_bound(alpha, NEAR_ZERO_RESIDUAL)
                <= UNIQUE_DISTANCE) == (cos2 <= 0.98)

    def test_stop_residual_certifies_half_the_unique_distance(self):
        # a row below the stop lies within UNIQUE_DISTANCE / 2 at every
        # interior alpha, and the stop never exceeds NEAR_ZERO_RESIDUAL
        for alpha in np.linspace(1e-5, math.pi / 2 - 1e-5, 2001):
            stop = _stop_residual(alpha)
            assert 0.0 < stop <= NEAR_ZERO_RESIDUAL
            assert _distance_bound(alpha, stop) <= UNIQUE_DISTANCE / 2
        for cos2, want in ((0.5, 1e-8), (0.85, 1e-8), (0.99, 1.25e-9),
                           (0.9999, 1.25e-11)):
            assert _stop_residual(math.acos(math.sqrt(cos2))) == \
                pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1e-3, math.pi / 2 - 1e-3])
    def test_oracle_near_the_endpoints(self, alpha):
        # one of the weights s^4, c^4 nearly vanishes here
        rng = np.random.default_rng(75)
        ps = [unique_point_params()] + [random_params(rng) for _ in range(20)]
        res = _residual_chart(alpha, np.array([_to_chart(p) for p in ps]))
        for k, p in enumerate(ps):
            assert res[k] == pytest.approx(residual(alpha, p).residual,
                                           abs=1e-12)

    def test_oracle_just_above_collapse(self):
        # each chart vector scaled to a norm of 2 ORTHO_COLLAPSE still
        # decodes to p; E2 nearly parallel to E1 is checked against the
        # partial trace of the decoded state itself
        rng = np.random.default_rng(76)
        alpha = 0.6
        for _ in range(5):
            p = random_params(rng)
            for cols in (slice(2, 5), slice(5, 10), slice(10, 17)):
                chart = _to_chart(p)        # x11, x20 and x21 in turn
                chart[cols] *= 2.0 * ORTHO_COLLAPSE
                res = _residual_chart(alpha, chart[None])[0]
                assert res != _PENALTY
                assert res == pytest.approx(residual(alpha, p).residual,
                                            abs=1e-12)
        for eps in (3e-8, 1e-7, 1e-6):
            chart = _to_chart(random_params(rng))
            chart[1] = chart[0] + eps      # the D weights ~ the E1 weights
            chart[5:10] = [1.0, 0.0, 0.0, 0.0, 0.0]        # x20 = x10
            chart[10:17] = np.append(chart[2:5], np.zeros(4))  # x21 = x11
            e1, e2, _, _, bad = _chart_states(chart[None])
            assert not bad[0]
            phi = _purification(alpha, e1, e2)
            rho = partial_trace(np.outer(phi, phi.conj()), (2, 3, 2, 4),
                                (1, 2))
            want = np.linalg.norm(rho - _bc_target(alpha))
            assert _residual_chart(alpha, chart[None])[0] == \
                pytest.approx(want, abs=1e-12)

    def test_batch_rows_independent(self):
        # the optimizer merges rows from different branches into one
        # objective call, which is exact only if rows do not interact
        rng = np.random.default_rng(74)
        alpha = 0.8
        chart = random_chart(rng, 1000)
        chart[11, 2:5] = 0.0                      # x11 = 0: degenerate row
        single = np.array([_residual_chart(alpha, chart[k:k + 1])[0]
                           for k in range(len(chart))])
        assert np.flatnonzero(single == _PENALTY).tolist() == [11]
        for rows in (7, 34, 1000):
            batch = _residual_chart(alpha, chart[:rows])
            assert np.array_equal(batch, single[:rows])


class TestSwappedPurification:
    """E1 = |1>x, E2 = |0>y with x orthogonal to y: D11 = diag(-1, 1),
    D22 = -D11 and |D12| = 1, so the residual is sin(alpha) (module
    docstring)."""

    def test_residual_is_sin_alpha_at_distance_one(self):
        rng = np.random.default_rng(89)
        for cos2 in np.linspace(0.05, 0.9999, 40):
            alpha = math.acos(math.sqrt(cos2))
            v = residual(alpha, swapped_params(rng))
            assert abs(v.residual - math.sin(alpha)) <= 1e-15
            assert v.distance_to_unique_point == pytest.approx(1.0,
                                                               abs=1e-15)

    @pytest.mark.parametrize("cos2", [0.05, 0.5, 0.85, 0.9999])
    def test_chart_objective_is_stationary(self, cos2):
        alpha = math.acos(math.sqrt(cos2))
        row = _to_chart(swapped_params(np.random.default_rng(90)))
        h = 1e-6
        steps = h * np.eye(len(row))
        grad = (_residual_chart(alpha, row + steps)
                - _residual_chart(alpha, row - steps)) / (2 * h)
        assert _residual_chart(alpha, row[None])[0] == \
            pytest.approx(math.sin(alpha), abs=1e-15)
        assert np.max(np.abs(grad)) <= 1e-9


class TestRechart:
    """_rechart puts each row at the chart point of its own effective
    parameters: the weights and unit vectors of E1 and of the
    orthogonalized E2."""

    def test_residual_and_distance_invariant(self):
        rng = np.random.default_rng(83)
        chart = random_chart(rng, 500)
        new = _rechart(chart)
        assert not np.array_equal(new, chart)
        dist = _distance_chart(chart)
        assert np.max(np.abs(_distance_chart(new) - dist)) <= 1e-15
        for alpha in (0.3, math.pi / 4, 1.2):
            assert np.max(np.abs(_residual_chart(alpha, new)
                                 - _residual_chart(alpha, chart))) <= 1e-15

    def test_matches_the_oracle_near_collapse(self):
        # rows just above collapse, and rows in the corner c0 ~ d0 ~ 1,
        # x20 ~ x10, where the orthogonalized E2 is a remainder of 1e-7 to
        # 3e-3 scaled to unit length: the re-charted params, through the
        # partial_trace oracle, give the chart objective and distance of
        # the re-charted rows and the distance of the original ones.  E2 is
        # orthogonalized twice, so the re-chart keeps the residual to
        # rounding and a second re-chart stays put, in the corner too
        rng = np.random.default_rng(84)
        alpha = 0.6
        rows = []
        for _ in range(5):
            for cols in (slice(2, 5), slice(5, 10), slice(10, 17)):
                row = _to_chart(random_params(rng))
                row[cols] *= 2.0 * ORTHO_COLLAPSE
                rows.append(row)
        for delta in np.logspace(-9.0, -2.5, 12):
            row = random_chart(rng, 1)[0]
            row[:2] = delta * rng.uniform(0.5, 1.0, 2)     # c1, d1 ~ delta
            row[5:10] = [1.0, 0.0, 0.0, 0.0, 0.0]           # x20 = x10 ...
            row[5:10] += 1e-7 * rng.standard_normal(5)      # ... nearly
            rows.append(row)
        chart = np.array(rows)
        assert not _chart_states(chart)[4].any()
        new = _rechart(chart)
        res, dist = _residual_chart(alpha, new), _distance_chart(new)
        assert np.max(np.abs(dist - _distance_chart(chart))) <= 1e-12
        assert np.max(np.abs(res - _residual_chart(alpha, chart))) <= 1e-15
        assert np.max(np.abs(_rechart(new) - new)) <= 1e-13
        for k, row in enumerate(new):
            v = residual(alpha, frame_params(row))
            assert v.residual == pytest.approx(res[k], abs=1e-12)
            assert v.distance_to_unique_point == \
                pytest.approx(dist[k], abs=1e-12)

    def test_unique_row_is_a_fixed_point(self):
        # c1 is exactly 0 there, and a vector of weight 0 becomes e1 = x11
        row = _to_chart(unique_point_params())[None]
        assert np.array_equal(_rechart(row), row)

    def test_second_rechart_stays_put(self):
        rng = np.random.default_rng(85)
        once = _rechart(random_chart(rng, 500))
        assert np.max(np.abs(_rechart(once) - once)) <= 1e-14

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(86)
        chart = random_chart(rng, 300)
        single = np.array([_rechart(chart[k:k + 1])[0]
                           for k in range(len(chart))])
        for rows in (7, 34, 300):
            assert np.array_equal(_rechart(chart[:rows]), single[:rows])

    def test_bad_and_non_finite_rows_kept(self):
        rng = np.random.default_rng(87)
        chart = random_chart(rng, 5)
        chart[0, 2:5] = 0.0                      # x11 = 0
        chart[1, 1] = chart[1, 0]                # E2 = E1: collapses
        chart[1, 5:10] = [1.0, 0.0, 0.0, 0.0, 0.0]
        chart[1, 10:17] = np.append(chart[1, 2:5], np.zeros(4))
        chart[2, 7] = math.nan
        chart[3, 12] = math.inf
        with np.errstate(invalid="ignore"):
            bad = _chart_states(chart)[4]
            new = _rechart(chart)
        assert bad[:2].all()
        assert np.array_equal(new[:4], chart[:4], equal_nan=True)
        assert np.array_equal(new[4], _rechart(chart[4:])[0])
        assert not np.array_equal(new[4], chart[4])

    def test_only_the_descent_starts_from_the_rechart(self, monkeypatch):
        # the scan re-charts once, the sampled rows plus the known point,
        # and the least-squares descent starts from that re-chart
        recharts, stages = [], []

        def rechart(chart):
            recharts.append((chart, _rechart(chart)))
            return recharts[-1][1]

        def recording(solver):
            def run(objective, x0, **kwargs):
                stages.append(x0)
                return solver(objective, x0, **kwargs)
            return run

        monkeypatch.setattr(uniqueness, "_rechart", rechart)
        monkeypatch.setattr(uniqueness, "levenberg_marquardt_batch",
                            recording(levenberg_marquardt_batch))
        monkeypatch.setattr(uniqueness, "nelder_mead_batch",
                            recording(nelder_mead_batch))
        uniqueness_scan(0.7, n_samples=200, n_local_starts=8, seed=4)
        assert len(recharts) == 1 and len(stages) == 4
        assert np.array_equal(recharts[0][0][0],
                              _to_chart(unique_point_params()))
        assert stages[0] is recharts[0][1]


class TestScan:
    def test_small_scan_confirms(self):
        rep = uniqueness_scan(math.pi / 4, n_samples=300, n_local_starts=8,
                              seed=1)
        assert rep.confirmed
        assert rep.min_residual <= 1e-10
        assert rep.distance_at_min <= 1e-3
        assert rep.near_zero_count >= 1
        assert rep.max_distance_near_zero <= 1e-3

    @pytest.mark.parametrize("alpha, seed", [
        (0.01, 1), (math.acos(math.sqrt(0.999)), 2)],
        ids=["alpha=0.01", "cos2=0.999"])
    def test_no_capped_rows_near_cos2_one(self, alpha, seed):
        # near cos^2 = 1 the descent ends every row below the stop or at
        # the swapped purification, whose residual is sin(alpha) exactly
        rep = uniqueness_scan(alpha, n_samples=2000, n_local_starts=20,
                              seed=seed)
        assert rep.confirmed
        assert rep.n_capped == 0
        assert abs(rep.next_residual - math.sin(alpha)) <= 1e-12

    def test_rounds_restart_from_the_previous_end_rows(self, monkeypatch):
        # least squares runs first, to the stop; each simplex round then
        # restarts plainly from the previous stage's end rows, bit for bit,
        # and the short first rounds leave 6000 iterations per row in all
        stages = []

        def recording(solver):
            def run(objective, x0, **kwargs):
                stages.append((x0, kwargs, solver(objective, x0, **kwargs)))
                return stages[-1][2]
            return run

        monkeypatch.setattr(uniqueness, "levenberg_marquardt_batch",
                            recording(levenberg_marquardt_batch))
        monkeypatch.setattr(uniqueness, "nelder_mead_batch",
                            recording(nelder_mead_batch))
        alpha = 0.7
        rep = uniqueness_scan(alpha, n_samples=200, n_local_starts=8, seed=4)
        stop = _stop_residual(alpha)
        assert stages[0][1] == {"max_iters": _LM_ITERS, "target": stop}
        assert _LM_ITERS == 200
        lm_vals = stages[0][2][1]
        assert rep.n_least_squares == \
            np.count_nonzero(lm_vals < rep.stop_residual) > 0
        assert [kw for _, kw, _ in stages[1:]] == [
            {"max_iters": m, "tol": SIMPLEX_DIAMETER, "target": stop}
            for m in _ROUND_ITERS]
        assert list(_ROUND_ITERS) == [500, 500, 5000]
        for (x0, _, _), (_, _, (ends, _, _)) in zip(stages[1:], stages):
            assert x0.shape == ends.shape == (9, 17)
            assert x0.tobytes() == ends.tobytes()

    def test_capped_rows_and_next_residual(self, monkeypatch):
        # both come from the last simplex round: iters >= max_iters, and
        # the smallest end value outside the near-zero set.  Since the
        # descent finishes the rows no small shape leaves a capped or far
        # row, so the last round hands back one far row at max_iters
        rounds = []

        def recording(objective, x0, **kwargs):
            x, vals, iters = nelder_mead_batch(objective, x0, **kwargs)
            if len(rounds) == 2:
                x[1] = random_chart(np.random.default_rng(88), 1)[0]
                vals[1] = objective(x[1:2])[0]
                iters[1] = kwargs["max_iters"]
            rounds.append(((x, vals, iters), kwargs["max_iters"]))
            return x, vals, iters

        monkeypatch.setattr(uniqueness, "nelder_mead_batch", recording)
        rep = uniqueness_scan(0.7, n_samples=200, n_local_starts=8, seed=4)
        (_, vals, iters), max_iters = rounds[-1]
        assert len(rounds) == 3
        assert rep.n_capped == np.count_nonzero(iters >= max_iters) > 0
        far = vals[vals >= NEAR_ZERO_RESIDUAL]
        assert far.size and rep.next_residual == far.min()

    @pytest.mark.parametrize("cos2", [0.05, 0.5, 0.85, 0.99, 0.9999])
    def test_near_zero_end_rows_obey_the_distance_bound(self, cos2,
                                                        monkeypatch):
        # 1 - |<x10|x21>| is rounded near 1, so the distance carries about
        # 1e-16 even where the residual is 1e-33; allow 1e-15 for that.
        # Every round stops its rows at the scan's stop residual, and the
        # rows below it sit within UNIQUE_DISTANCE / 2, also at 0.9999,
        # where NEAR_ZERO_RESIDUAL alone certifies nothing
        ends, targets = [], []

        def recording(objective, x0, **kwargs):
            targets.append(kwargs["target"])
            ends.append(nelder_mead_batch(objective, x0, **kwargs))
            return ends[-1]

        monkeypatch.setattr(uniqueness, "nelder_mead_batch", recording)
        alpha = math.acos(math.sqrt(cos2))
        rep = uniqueness_scan(alpha, n_samples=300, n_local_starts=8, seed=0)
        assert rep.confirmed
        assert targets == [rep.stop_residual] * 3
        assert rep.stop_residual == _stop_residual(alpha)
        x, vals, _ = ends[-1]
        near = vals < NEAR_ZERO_RESIDUAL
        assert np.count_nonzero(near) == rep.near_zero_count > 1
        dist = _distance_chart(x[near])
        assert np.max(dist) == rep.max_distance_near_zero
        assert np.all(dist <= _distance_bound(alpha, vals[near]) + 1e-15)
        stopped = vals < rep.stop_residual
        assert np.count_nonzero(stopped) > 1
        assert np.all(_distance_chart(x[stopped]) <= UNIQUE_DISTANCE / 2)

    def test_next_residual_without_far_minima(self, monkeypatch):
        def at_zero(objective, x0, **kwargs):
            return x0, np.zeros(len(x0)), np.zeros(len(x0), dtype=int)

        monkeypatch.setattr(uniqueness, "nelder_mead_batch", at_zero)
        rep = uniqueness_scan(0.7, n_samples=4, n_local_starts=2, seed=3)
        assert rep.next_residual == math.inf
        assert rep.n_capped == 0

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
        with pytest.raises(InvalidInputError):
            uniqueness_scan(0.7, n_samples=100.0, n_local_starts=2)
        with pytest.raises(InvalidInputError):
            uniqueness_scan(0.7, n_samples=10, n_local_starts=2.0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        # the same seed rule as OptimizerConfig
        with pytest.raises(InvalidInputError, match="64 unsigned bits"):
            uniqueness_scan(0.7, n_samples=2, n_local_starts=1, seed=seed)

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
