import math

import numpy as np
import pytest

from nosig.bounds import (BoundsReport, FamilyBounds, _best_sums, _c_flip,
                          _optimal_columns, batched_columns, family_bounds,
                          family_chsh_bounds, h_bounds)
from nosig import tolerances as tol
from nosig.correlations import (Decomposition, chsh_value, correlator,
                                decompose, outcome_terms, quantum_joint)
from nosig.errors import InvalidInputError, InvalidMarginalError
from nosig.measurements import (BlochSetting, QutritBasis, SettingsFamily,
                                qutrit_unitary)

Z = BlochSetting(0.0, 0.0)
B_COMP = QutritBasis((0.0,) * 6)
GHZ_FAMILY = SettingsFamily(Z, Z, Z, Z, B_COMP)


def random_family(rng):
    return SettingsFamily.from_params(rng.uniform(0, 2 * math.pi, 14))


class TestHBounds:
    def test_pinned_positive(self):
        assert h_bounds(0.5, 0.5, 0.5) == (0.5, 0.5)

    def test_uniform(self):
        lo, up = h_bounds(1 / 3, 0.0, 0.0)
        assert lo == pytest.approx(-1 / 3)
        assert up == pytest.approx(1 / 3)

    def test_pinned_negative(self):
        assert h_bounds(0.5, 0.5, -0.5) == (-0.5, -0.5)

    def test_degenerate_outcome(self):
        assert h_bounds(0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_ordering_holds_when_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, c = rng.uniform(-0.5, 0.5, 2)
            f = max(abs(a), abs(c)) + rng.uniform(0, 0.5)
            lo, up = h_bounds(f, a, c)
            assert lo <= up + 1e-12

    def test_infeasible_marginals_rejected(self):
        with pytest.raises(InvalidMarginalError):
            h_bounds(0.3, 0.5, 0.0)

    @pytest.mark.parametrize("slack, ok", [(0.5, True), (2.0, False)])
    def test_agrees_with_decomposition_at_the_boundary(self, slack, ok):
        # one completion rule: f >= max(|a|, |c|) - MARGINAL_FEASIBLE
        gap = slack * tol.MARGINAL_FEASIBLE
        f = np.array([0.5 - gap, 0.25, 0.25 + gap])
        a = np.array([0.5, 0.0, 0.0])
        c = np.zeros(3)
        d = Decomposition(f=f, a=a, c=c, h=np.zeros(3))
        if ok:
            h_bounds(f, a, c)
            assert d.validate() is d
            return
        for call in (lambda: h_bounds(f, a, c), d.validate):
            with pytest.raises(InvalidMarginalError) as exc:
                call()
            assert isinstance(exc.value, InvalidInputError)

    def test_nan_rejected(self):
        for f, a, c in ((math.nan, 0.1, 0.1), (0.5, math.nan, 0.0),
                        (0.5, 0.0, math.nan)):
            with pytest.raises(InvalidMarginalError):
                h_bounds(f, a, c)
        d = Decomposition(f=np.array([math.nan, 0.5, 0.5]), a=np.zeros(3),
                          c=np.zeros(3), h=np.zeros(3))
        with pytest.raises(InvalidInputError):
            d.validate()

    def test_positivity_enumeration_oracle(self):
        # L and U must match brute-force enumeration over a fine h grid
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, c = rng.uniform(-0.4, 0.4, 2)
            f = max(abs(a), abs(c)) + rng.uniform(0.0, 0.4)
            lo, up = h_bounds(f, a, c)
            hs = np.linspace(-1.5, 1.5, 6001)
            sa = np.array([1, 1, -1, -1])
            sc = np.array([1, -1, 1, -1])
            probs = (f + sa[None, :] * a + sc[None, :] * c
                     + (sa * sc)[None, :] * hs[:, None]) / 4.0
            ok = hs[np.all(probs >= -1e-12, axis=1)]
            assert lo == pytest.approx(ok.min(), abs=1e-3)
            assert up == pytest.approx(ok.max(), abs=1e-3)


class TestMeasurementBounds:
    # the per-pair reports m11..m22 of family_bounds
    def test_alpha_zero_unit_window(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            rep = family_bounds(0.0, random_family(rng)).m11
            assert rep.lower_sum == pytest.approx(-1.0, abs=1e-12)
            assert rep.upper_sum == pytest.approx(1.0, abs=1e-12)

    def test_ghz_pinning(self):
        rep = family_bounds(math.pi / 2, GHZ_FAMILY).m11
        assert rep.lower_sum == pytest.approx(1.0, abs=1e-14)
        assert rep.upper_sum == pytest.approx(1.0, abs=1e-14)

    def test_quantum_correlator_inside_window(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            alpha = rng.uniform(0, math.pi / 2)
            fam = random_family(rng)
            rep = family_bounds(alpha, fam).m11
            e = correlator(decompose(quantum_joint(alpha, fam.a1, fam.b, fam.c1)))
            assert rep.lower_sum - 1e-10 <= e <= rep.upper_sum + 1e-10
            assert np.all(rep.lower_b <= rep.upper_b + 1e-10)


class TestFamilyBounds:
    def test_alpha_zero_window(self):
        rng = np.random.default_rng(45)
        fb = family_bounds(0.0, random_family(rng))
        assert fb.chsh_lower == pytest.approx(-4.0, abs=1e-12)
        assert fb.chsh_upper == pytest.approx(4.0, abs=1e-12)

    def test_ghz_pinning_family(self):
        fb = family_bounds(math.pi / 2, GHZ_FAMILY)
        assert fb.chsh_lower == pytest.approx(2.0, abs=1e-14)

    def test_quantum_value_inside(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            alpha = rng.uniform(0, math.pi / 2)
            fam = random_family(rng)
            fb = family_bounds(alpha, fam)
            q = chsh_value(alpha, fam)
            assert fb.chsh_lower - 1e-10 <= q <= fb.chsh_upper + 1e-10

    def test_swap_a_and_c(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            alpha = rng.uniform(0, math.pi / 2)
            fam = random_family(rng)
            swapped = SettingsFamily(fam.c1, fam.c2, fam.a1, fam.a2, fam.b)
            fb, fs = family_bounds(alpha, fam), family_bounds(alpha, swapped)
            assert fb.chsh_lower == pytest.approx(fs.chsh_lower, abs=1e-12)
            assert fb.chsh_upper == pytest.approx(fs.chsh_upper, abs=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(48)
        alpha = 0.8
        a = BlochSetting(1.1, 0.4)
        c = BlochSetting(2.0, 3.2)
        cols = qutrit_unitary(QutritBasis(tuple(rng.uniform(0, 6, 6))))
        na, nc = np.array(a.bloch_vector()), np.array(c.bloch_vector())

        def bounds_of(columns):
            f, g = outcome_terms(alpha, columns)
            return h_bounds(f, g @ na, g @ nc)

        lo_b, up_b = bounds_of(cols)
        for perm in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
            lo_p, up_p = bounds_of(cols[:, perm])
            assert np.sum(lo_b) == pytest.approx(np.sum(lo_p), abs=1e-12)
            assert np.sum(up_b) == pytest.approx(np.sum(up_p), abs=1e-12)

    def test_forces_violation_strictness(self):
        dummy = BoundsReport(np.zeros(3), np.zeros(3), 0.0, 0.0)

        def fb(lo, up):
            return FamilyBounds(dummy, dummy, dummy, dummy, lo, up)

        assert fb(2.0 + 1e-8, 4.0).forces_violation
        assert not fb(2.0 + 1e-10, 4.0).forces_violation
        assert fb(-4.0, -2.0 - 1e-8).forces_violation
        assert not fb(-4.0, -2.0 + 1e-10).forces_violation
        assert not fb(1.0, 1.5).forces_violation


class TestBatchedPath:
    def test_born_rule_oracle(self):
        # family_bounds shares the batched closed form, so the independent
        # reference is each pair's window rebuilt from Born-rule statistics
        rng = np.random.default_rng(52)
        for _ in range(60):
            alpha = rng.uniform(0, math.pi / 2)
            p = rng.uniform(-2, 8, 14)
            fam = SettingsFamily.from_params(p)
            fb = family_bounds(alpha, fam)
            lo_sums, up_sums = [], []
            pairs = ((fb.m11, fam.a1, fam.c1), (fb.m12, fam.a1, fam.c2),
                     (fb.m21, fam.a2, fam.c1), (fb.m22, fam.a2, fam.c2))
            for rep, a, c in pairs:
                d = decompose(quantum_joint(alpha, a, fam.b, c))
                lo, up = h_bounds(d.f, d.a, d.c)
                assert np.max(np.abs(rep.lower_b - lo)) <= 1e-12
                assert np.max(np.abs(rep.upper_b - up)) <= 1e-12
                assert rep.lower_sum == pytest.approx(np.sum(lo), abs=1e-12)
                assert rep.upper_sum == pytest.approx(np.sum(up), abs=1e-12)
                lo_sums.append(np.sum(lo))
                up_sums.append(np.sum(up))
            l11, l12, l21, l22 = lo_sums
            u11, u12, u21, u22 = up_sums
            want_lo, want_up = l11 + l12 + l21 - u22, u11 + u12 + u21 - l22
            assert fb.chsh_lower == pytest.approx(want_lo, abs=1e-12)
            assert fb.chsh_upper == pytest.approx(want_up, abs=1e-12)
            lo, up = family_chsh_bounds(alpha, p[None, :])
            assert lo[0] == pytest.approx(want_lo, abs=1e-12)
            assert up[0] == pytest.approx(want_up, abs=1e-12)

    def test_product_completion_in_every_window(self):
        # criterion 3 as a theorem (bounds docstring): with one shared B
        # basis, h_b = a_b c_b / f_b from the Born-rule conditionals lies
        # in each outcome's window, so L <= CHSH_prod <= U, and as one
        # joint over all four settings |CHSH_prod| <= 2
        rng = np.random.default_rng(54)
        for alpha in (0.0, 0.2, 0.6, math.pi / 4, 1.0, 1.3, math.pi / 2):
            for _ in range(40):
                p = rng.uniform(0, 2 * math.pi, 14)
                fam = SettingsFamily.from_params(p)
                e = {}
                for x, a in enumerate((fam.a1, fam.a2)):
                    for z, c in enumerate((fam.c1, fam.c2)):
                        d = decompose(quantum_joint(alpha, a, fam.b, c))
                        live = d.f > 0.0
                        h = np.where(live, d.a * d.c
                                     / np.where(live, d.f, 1.0), 0.0)
                        lo, up = h_bounds(d.f, d.a, d.c)
                        assert np.all(lo - 1e-12 <= h)
                        assert np.all(h <= up + 1e-12)
                        e[x, z] = np.sum(h)
                chsh = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
                lower, upper = family_chsh_bounds(alpha, p)
                assert lower[0] - 1e-12 <= chsh <= upper[0] + 1e-12
                assert abs(chsh) <= 2.0 + 1e-12

    def test_antipodal_c_flips_window(self):
        # C -> -C swaps a + c and a - c, so the window maps to its negative
        rng = np.random.default_rng(53)
        for alpha in (0.0, 0.3, 0.9, math.pi / 2):
            p = rng.uniform(0, 2 * math.pi, (500, 14))
            flipped = p.copy()
            flipped[:, [4, 6]] = math.pi - p[:, [4, 6]]
            flipped[:, [5, 7]] = p[:, [5, 7]] + math.pi
            lo, up = family_chsh_bounds(alpha, p)
            lo_f, up_f = family_chsh_bounds(alpha, flipped)
            assert np.max(np.abs(up_f + lo)) < 1e-14
            assert np.max(np.abs(lo_f + up)) < 1e-14

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(50)
        batch = rng.uniform(0, 2 * math.pi, (30, 14))
        lo_all, up_all = family_chsh_bounds(0.9, batch)
        for k in (0, 7, 29):
            lo1, up1 = family_chsh_bounds(0.9, batch[k][None, :])
            assert lo1[0] == lo_all[k]
            assert up1[0] == up_all[k]

    @pytest.mark.parametrize("alpha", [5.0, -0.1, math.nan])
    def test_alpha_outside_range_rejected(self, alpha):
        # the same rule as family_bounds: alpha in [0, pi/2]
        with pytest.raises(InvalidInputError, match="outside"):
            family_chsh_bounds(alpha, np.zeros((1, 14)))

    @pytest.mark.parametrize("shape", [(2, 13), (2, 15), (13,), (1, 2, 14)])
    def test_row_width_other_than_14_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="14"):
            family_chsh_bounds(0.5, np.zeros(shape))

    def test_one_row_vector_accepted(self):
        p = np.random.default_rng(55).uniform(0, 2 * math.pi, 14)
        lo, up = family_chsh_bounds(0.5, p)
        lo1, up1 = family_chsh_bounds(0.5, p[None, :])
        assert lo.shape == (1,) and lo[0] == lo1[0] and up[0] == up1[0]

    def test_block_slices_and_single_rows_bitwise(self):
        # optimizer._in_blocks evaluates large batches 1000 rows at a time
        rng = np.random.default_rng(54)
        batch = rng.uniform(-2 * math.pi, 4 * math.pi, (2500, 14))
        lo_all, up_all = family_chsh_bounds(0.7, batch)
        for start in range(0, 2500, 1000):
            lo, up = family_chsh_bounds(0.7, batch[start:start + 1000])
            assert np.array_equal(lo, lo_all[start:start + 1000])
            assert np.array_equal(up, up_all[start:start + 1000])
        for k in rng.choice(2500, 40, replace=False):
            lo, up = family_chsh_bounds(0.7, batch[k])
            assert lo[0] == lo_all[k] and up[0] == up_all[k]

    def test_batched_columns_unitary(self):
        rng = np.random.default_rng(51)
        angles = rng.uniform(0, 2 * math.pi, (6, 20))
        us = batched_columns(angles)
        for k in range(20):
            u = us[..., k]
            assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-13)
            single = qutrit_unitary(QutritBasis(tuple(angles[:, k])))
            assert np.allclose(u, single, atol=1e-14)


class TestOptimalSettings:
    """The closed-form best qubit settings of a basis (bounds docstring),
    against a brute force over all 7^4 tuples of {0, +-2 g_b}."""

    N_BASES = 2000

    @staticmethod
    def bases(alpha):
        seed = int(1e6 * alpha)
        return np.random.default_rng(seed).uniform(
            0, 2 * math.pi, (6, TestOptimalSettings.N_BASES))

    @staticmethod
    def brute_force_max(g):
        """max |v11+v12| + |v21+v22| + |v11+v21| + |v12-v22| over all 2401
        tuples, with every norm taken from the vectors themselves."""
        v = np.concatenate([np.zeros_like(g[:1]), 2 * g, -2 * g])  # (7, 3, R)
        plus = np.linalg.norm(v[:, None] + v[None], axis=2)       # (7, 7, R)
        minus = np.linalg.norm(v[:, None] - v[None], axis=2)
        best = np.full(g.shape[-1], -np.inf)
        for a in range(7):  # [v12, v21, v22]
            f = (plus[a][:, None, None] + plus[None, :, :]
                 + plus[a][None, :, None] + minus[:, None, :])
            best = np.maximum(best, f.max(axis=(0, 1, 2)))
        return best

    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4, 1.2,
                                       math.pi / 2])
    def test_rebuilt_settings_reach_the_brute_force_max(self, alpha):
        b = self.bases(alpha)
        g = outcome_terms(alpha, batched_columns(b))[1]
        best = self.brute_force_max(g)
        reduced = 2 * np.linalg.norm(_best_sums(g), axis=2).sum(axis=0)
        assert np.max(np.abs(reduced - best)) <= 1e-14
        pt, _ = _optimal_columns(alpha, b)
        assert pt[8:].tobytes() == b.tobytes()
        lower, _ = family_chsh_bounds(alpha, pt.T)
        assert np.max(np.abs(lower - (-4.0 + best))) <= 1e-14
        # the C-flip of the same settings gives U = -L
        _, upper = family_chsh_bounds(alpha, _c_flip(pt).T)
        assert np.max(np.abs(upper + lower)) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4, 1.2,
                                       math.pi / 2])
    def test_no_random_settings_do_better(self, alpha):
        b = self.bases(alpha)
        lower = family_chsh_bounds(alpha, _optimal_columns(alpha, b)[0].T)[0]
        rng = np.random.default_rng(7)
        trials = 500
        for start in range(0, self.N_BASES, 100):  # 50000 rows per call
            p = np.empty((100, trials, 14))
            p[..., :8] = rng.uniform(0, 2 * math.pi, (100, trials, 8))
            p[..., 8:] = b[:, start:start + 100].T[:, None, :]
            lo, up = family_chsh_bounds(alpha, p.reshape(-1, 14))
            assert np.all(lo.reshape(100, trials).max(axis=1)
                          <= lower[start:start + 100] + 1e-14)
            assert np.all(up.reshape(100, trials).min(axis=1)
                          >= -lower[start:start + 100] - 1e-14)

    def test_batch_equals_single_rows_bitwise(self):
        b = self.bases(0.7)[:, :300]
        pt, _ = _optimal_columns(0.7, b)
        window = family_chsh_bounds(0.7, pt.T)
        flipped = _c_flip(pt)
        for k in range(0, 300, 13):
            one, _ = _optimal_columns(0.7, b[:, k:k + 1])
            assert one[:, 0].tobytes() == pt[:, k].tobytes()
            assert _c_flip(one)[:, 0].tobytes() == flipped[:, k].tobytes()
            lo, up = family_chsh_bounds(0.7, one.T)
            assert lo[0] == window[0][k] and up[0] == window[1][k]

    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4, 1.2,
                                       math.pi / 2])
    def test_shared_terms_give_the_same_window_bitwise(self, alpha):
        # the sweep hands the rebuild's (f, g) to the kernel, for the
        # rebuilt settings and for their C-flip alike
        b = self.bases(alpha)[:, :300]
        for cols in (b, *(b[:, k:k + 1] for k in range(0, 300, 13))):
            pt, terms = _optimal_columns(alpha, cols)
            for p in (pt.T, _c_flip(pt).T):
                shared = family_chsh_bounds(alpha, p, terms=terms)
                own = family_chsh_bounds(alpha, p)
                assert [w.tobytes() for w in shared] == \
                    [w.tobytes() for w in own]

    def test_terms_of_another_batch_size_rejected(self):
        b = self.bases(0.3)[:, :4]
        pt, (f, g) = _optimal_columns(0.3, b)
        for terms in ((f[:, :3], g[:, :, :3]), (f, g[:, :, :3]), (g, f),
                      (f,)):
            with pytest.raises(InvalidInputError, match="terms"):
                family_chsh_bounds(0.3, pt.T, terms=terms)

    def test_computational_basis_takes_the_z_axes(self):
        # restart 0 of the sweep: every optimal sum lies on the z axis
        for alpha in (0.4, 1.0, math.pi / 2):
            pt, _ = _optimal_columns(alpha, np.zeros((6, 1)))
            assert np.all((pt[0:8:2] == 0.0) | (pt[0:8:2] == math.pi))
