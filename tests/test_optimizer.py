import hashlib
import math

import numpy as np
import pytest

from nosig.bounds import family_chsh_bounds
from nosig.errors import InvalidInputError
from nosig.optimizer import (_BLOCK_ROWS, _LOWER, _UPPER, OptimizerConfig,
                             _in_blocks, _live, _starts,
                             levenberg_marquardt_batch, maximize_chsh_lower,
                             minimize_chsh_upper, nelder_mead_batch, sweep)

FAST = OptimizerConfig(restarts=20, max_iters=2000, tol=1e-10, seed=7)


class TestNelderMeadBatch:
    def test_batched_quadratic(self):
        target = np.array([0.3, -1.2, 2.5])

        def objective(p):
            return np.sum((p - target) ** 2, axis=1)

        rng = np.random.default_rng(0)
        x0 = rng.normal(0, 2, (8, 3))
        pts, vals, iters = nelder_mead_batch(objective, x0,
                                             max_iters=2000, tol=1e-12)
        assert np.allclose(pts, target[None, :], atol=1e-5)
        assert np.all(vals < 1e-10)
        assert np.all(iters < 2000)

    def test_history_monotone(self):
        # the search is deterministic, so a run capped at k iterations
        # reports the best value after iteration k of a longer run
        def objective(p):
            return np.sum(p ** 2, axis=1) + np.abs(p[:, 0])

        x0 = np.random.default_rng(1).normal(0, 1, (6, 4))
        h = np.array([nelder_mead_batch(objective, x0, max_iters=k,
                                        tol=1e-10)[1]
                      for k in range(1, 300, 7)])
        assert np.all(np.diff(h, axis=0) <= 1e-15)
        assert np.all(h[-1] < h[0])

    def test_outputs_and_call_count_pinned(self):
        # each iteration evaluates the reflections in one call and every
        # row's expansion or contraction in one more, so the call count
        # pins the shared follow-up call while rows and outputs do not move
        seen = []

        def objective(p):
            seen.append(len(p))
            return (np.sum(p ** 2, axis=1) + np.abs(p[:, 0])
                    + 0.3 * np.sin(3 * p[:, 1]))

        x0 = np.random.default_rng(1).normal(0, 1, (6, 4))
        digest = hashlib.sha256()
        for k in (1, 2, 7, 300):
            pts, vals, iters = nelder_mead_batch(objective, x0, max_iters=k,
                                                 tol=1e-10)
            digest.update(pts.tobytes() + vals.tobytes() + iters.tobytes())
        assert digest.hexdigest() == \
            "27c0c7c46468b02ef86231761ef7964f8e01587a2a8e7ade806878a59f1e9f1a"
        assert sum(seen) == 3272
        assert len(seen) == 626

    def test_tie_order_pinned(self):
        # a plateau objective makes many values tie exactly; the stable
        # sort keeps tied vertices in rank order with the new vertex
        # after those it ties with, and the digest pins that order
        seen = []

        def objective(p):
            seen.append(len(p))
            return np.floor(4.0 * np.sum(p ** 2, axis=1)) / 4.0

        x0 = np.random.default_rng(3).normal(0, 1, (8, 5))
        digest = hashlib.sha256()
        for k in (1, 2, 7, 300):
            pts, vals, iters = nelder_mead_batch(objective, x0, max_iters=k,
                                                 tol=1e-10)
            digest.update(pts.tobytes() + vals.tobytes() + iters.tobytes())
        assert digest.hexdigest() == \
            "fe86a62ffcfd744e84b1e33a4525dc2fb02fd5021de9c3c767b20fea0f039245"
        assert sum(seen) == 2397
        assert len(seen) == 268

    def test_rows_independent_of_batch(self):
        # rows starting on the flat region (p0 > 5) only shrink and freeze
        # within a few iterations; the others run to max_iters
        def objective(p):
            bowl = np.sum(p ** 2, axis=1) + 0.3 * np.sin(3 * p[:, 1])
            return np.where(p[:, 0] > 5.0, 1.0, bowl)

        # with target -0.1 the others stop early too, below the target
        x0 = np.random.default_rng(4).normal(0, 1, (7, 4))
        x0[[1, 4, 5], 0] = 10.0
        for target in (None, -0.1):
            pts, vals, iters = nelder_mead_batch(
                objective, x0, max_iters=50, tol=1e-3, target=target)
            assert np.all(iters[[1, 4, 5]] < 15)
            if target is None:
                assert np.all(iters[[0, 2, 3, 6]] == 50)
            else:
                assert np.all(iters[[0, 2, 3, 6]] < 50)
                assert np.all(vals[[0, 2, 3, 6]] < target)
            for i in range(len(x0)):
                p1, v1, n1 = nelder_mead_batch(
                    objective, x0[i:i + 1], max_iters=50, tol=1e-3,
                    target=target)
                assert p1[0].tobytes() == pts[i].tobytes()
                assert v1[0].tobytes() == vals[i].tobytes()
                assert n1[0] == iters[i]

    def test_loose_tolerance_freezes_early(self):
        def objective(p):
            return np.sum(p ** 2, axis=1)

        x0 = np.full((3, 5), 2.0)
        _, _, tight = nelder_mead_batch(objective, x0, max_iters=500, tol=1e-12)
        _, _, loose = nelder_mead_batch(objective, x0, max_iters=500, tol=1e-2)
        assert np.all(loose < tight)

    def test_start_below_target_freezes_at_once(self):
        def objective(p):
            return np.sum(p ** 2, axis=1)

        x0 = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        pts, vals, iters = nelder_mead_batch(objective, x0, max_iters=500,
                                             tol=1e-12, target=1e-6)
        assert iters[0] == 0 and vals[0] == 0.0
        assert pts[0].tolist() == [0.0, 0.0, 0.0]
        assert 0 < iters[1] < 500 and vals[1] < 1e-6

    def test_row_stops_where_it_crosses_target(self):
        # the stopped row is the untargeted run capped at the same
        # iteration, the first one whose best value is below target
        def objective(p):
            return np.sum(p ** 2, axis=1) + 0.3 * np.sin(3 * p[:, 1])

        x0 = np.full((1, 5), 2.0)
        target = 1e-3 + objective(np.zeros((1, 5)))[0]
        pts, vals, (n,) = nelder_mead_batch(objective, x0, max_iters=2000,
                                            tol=1e-12, target=target)
        assert vals[0] < target
        capped = nelder_mead_batch(objective, x0, max_iters=n, tol=1e-12)
        assert capped[0].tobytes() == pts.tobytes()
        assert capped[1].tobytes() == vals.tobytes()
        before = nelder_mead_batch(objective, x0, max_iters=n - 1, tol=1e-12)
        assert before[1][0] >= target
        _, free_vals, (free_n,) = nelder_mead_batch(
            objective, x0, max_iters=2000, tol=1e-12)
        assert free_n > n and free_vals[0] < vals[0]

    def test_nan_never_freezes_by_target(self):
        # target = inf freezes every finite row at once; a NaN row runs on
        # exactly as without a target
        def objective(p):
            return np.where(p[:, 0] > 0.0, np.nan, np.sum(p ** 2, axis=1))

        x0 = np.array([[-1.0, 0.5], [1.0, 0.5]])
        pts, vals, iters = nelder_mead_batch(objective, x0, max_iters=40,
                                             tol=1e-12, target=math.inf)
        assert iters.tolist() == [0, 40]
        free = nelder_mead_batch(objective, x0[1:], max_iters=40, tol=1e-12)
        assert free[0].tobytes() == pts[1:].tobytes()
        assert np.isnan(vals[1]) and np.isnan(free[1][0])
        assert free[2][0] == 40


def rosenbrock(p):
    # Rosenbrock's valley as residuals; its zero is (1, 1)
    return np.stack([10.0 * (p[:, 1] - p[:, 0] ** 2), 1.0 - p[:, 0]], axis=1)


class TestLevenbergMarquardtBatch:
    def test_rosenbrock_reaches_its_zero(self):
        pts, vals, iters = levenberg_marquardt_batch(
            rosenbrock, np.array([[-1.2, 1.0]]), max_iters=200, target=1e-10)
        assert vals[0] < 1e-10 and 0 < iters[0] < 200
        assert np.allclose(pts[0], [1.0, 1.0], atol=1e-9)
        assert vals[0] == np.linalg.norm(rosenbrock(pts)[0])

    def test_rows_independent_of_batch(self):
        # rows starting on the plateau p2 > 5 never reach target and run
        # to max_iters; the others stop in Rosenbrock's valley.  Each row
        # equals its own run alone bit for bit
        def residuals(p):
            return np.column_stack([rosenbrock(p), np.sin(p[:, 2]),
                                    np.where(p[:, 2] > 5.0, 1.0, 0.0)])

        x0 = np.random.default_rng(5).normal(0.0, 1.0, (9, 3))
        x0[[1, 4, 5], 2] = 10.0
        pts, vals, iters = levenberg_marquardt_batch(
            residuals, x0, max_iters=30, target=1e-9)
        assert np.all(iters[[1, 4, 5]] == 30) and np.all(vals[[1, 4, 5]] >= 1)
        assert np.all(iters[[0, 2, 3, 6, 7, 8]] < 30)
        for i in range(len(x0)):
            p1, v1, n1 = levenberg_marquardt_batch(
                residuals, x0[i:i + 1], max_iters=30, target=1e-9)
            assert p1[0].tobytes() == pts[i].tobytes()
            assert v1[0].tobytes() == vals[i].tobytes()
            assert n1[0] == iters[i]

    def test_start_below_target_freezes_at_once(self):
        x0 = np.array([[1.0, 1.0], [-1.2, 1.0]])
        pts, vals, iters = levenberg_marquardt_batch(
            rosenbrock, x0, max_iters=200, target=1e-6)
        assert iters[0] == 0 and vals[0] == 0.0
        assert pts[0].tolist() == [1.0, 1.0]
        assert 0 < iters[1] < 200 and vals[1] < 1e-6

    def test_cost_never_rises(self):
        # a row moves only when its sum of squares falls
        x0 = np.random.default_rng(6).normal(0.0, 2.0, (5, 2))
        h = np.array([levenberg_marquardt_batch(
            rosenbrock, x0, max_iters=k, target=0.0)[1] for k in range(12)])
        assert np.all(np.diff(h, axis=0) <= 0.0)
        assert np.all(h[-1] < h[0])

    def test_nan_never_accepted_nor_frozen(self):
        # target = inf freezes every finite row at once; a NaN row is
        # never accepted nor frozen by the target: its lambda rises 23
        # times, from 1e-3 to the 1e20 clip, without overflow, and the row
        # stops there where it started.  A row whose zero (x = 2) lies in
        # the NaN region (x >= 1) never steps into it and stalls below x = 1
        def residuals(p):
            return np.where(p[:, :1] < 1.0, p[:, :1] - 2.0, np.nan)

        x0 = np.array([[0.0], [1.5]])
        pts, vals, iters = levenberg_marquardt_batch(
            residuals, x0, max_iters=400, target=math.inf)
        assert iters.tolist() == [0, 23]
        assert pts.tobytes() == x0.tobytes()
        assert vals[0] == 2.0 and np.isnan(vals[1])
        pts, vals, iters = levenberg_marquardt_batch(
            residuals, x0, max_iters=40, target=0.0)
        assert iters.tolist() == [25, 23]
        assert 0.9 < pts[0, 0] < 1.0 and 1.0 < vals[0] < 1.1
        assert pts[1, 0] == 1.5 and np.isnan(vals[1])

    def test_stalled_row_freezes_and_keeps_its_point(self):
        # (x0, x1, 1) has norm 1 at its stationary point 0, above target.
        # Once no step lowers the cost, lambda climbs to its clip and the
        # row stops long before max_iters, at the point it reached; a row
        # that starts there never moves
        def residuals(p):
            return np.column_stack([p, np.ones(len(p))])

        x0 = np.array([[0.0, 0.0], [0.5, -0.3], [3.0, 1e-3]])
        out = levenberg_marquardt_batch(residuals, x0, max_iters=200,
                                        target=1e-8)
        pts, vals, iters = out
        assert iters[0] == 23 and np.all(iters < 200)
        assert pts[0].tobytes() == x0[0].tobytes()
        assert np.all(vals == 1.0) and np.max(np.abs(pts)) < 1e-9
        longer = levenberg_marquardt_batch(residuals, x0, max_iters=2000,
                                           target=1e-8)
        assert [a.tobytes() for a in longer] == [a.tobytes() for a in out]


class TestLiveness:
    TOL = 1e-6

    @staticmethod
    def brute(xa, tol):
        return np.max(np.abs(xa - xa[:, :1, :]), axis=(1, 2)) >= tol

    def check(self, xa):
        with np.errstate(invalid="ignore"):
            live = _live(np.ascontiguousarray(xa.swapaxes(0, 1)),
                         xa[:, :-1, :].mean(axis=1), self.TOL)
            assert live.tolist() == self.brute(xa, self.TOL).tolist()
        return live

    def test_crafted_simplices(self):
        # rows are rank-ordered simplices (best vertex first, worst last)
        xa = np.zeros((7, 4, 3))
        xa[0, 2, 1] = self.TOL          # only a middle vertex is tol away
        xa[1, 1:, :] = 0.5 * self.TOL   # every vertex within tol
        xa[2, 3, 0] = self.TOL          # the worst vertex exactly tol away
        xa[3, 3, 2] = np.nan            # NaN in the worst vertex
        xa[4, 3, 0] = 1.0               # worst far, NaN in a middle vertex
        xa[4, 1, 2] = np.nan
        xa[5, 3, 0] = 1.0               # worst far, inf - inf in the others
        xa[5, [0, 2], 1] = np.inf
        xa[6, 3, 0] = -1.0              # worst far, finite elsewhere
        assert self.check(xa).tolist() == [True, False, True, False, False,
                                           False, True]

    def test_random_simplices_match_brute_force(self):
        rng = np.random.default_rng(11)
        xa = rng.normal(0.0, 1.0, (200, 6, 5)) * \
            10.0 ** rng.integers(-9, -4, (200, 1, 1))
        xa[::3, -1, :] = xa[::3, 0, :]  # the short-cut cannot decide these
        live = self.check(xa)
        assert 0 < np.count_nonzero(live) < len(xa)


class TestInBlocks:
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 3535])
    def test_blocks_match_one_call(self, n):
        seen = []

        def objective(p):
            seen.append(len(p))
            return np.sum(p ** 2, axis=1) + np.sin(p[:, 0])

        p = np.random.default_rng(n).normal(0.0, 1.0, (n, 6))
        whole = objective(p)
        seen.clear()
        assert _in_blocks(objective, p).tobytes() == whole.tobytes()
        assert len(seen) == math.ceil(n / _BLOCK_ROWS) == math.ceil(n / 1000)
        assert max(seen) <= 1000

    def test_zero_rows(self):
        out = _in_blocks(lambda p: np.sum(p, axis=1), np.empty((0, 6)))
        assert out.shape == (0,)


class TestEndpoints:
    def test_product_limit(self):
        lo = maximize_chsh_lower(0.0, FAST)
        up = minimize_chsh_upper(0.0, FAST)
        assert lo.value == pytest.approx(-4.0, abs=1e-9)
        assert up.value == pytest.approx(4.0, abs=1e-9)

    def test_ghz_limit(self):
        lo = maximize_chsh_lower(math.pi / 2, FAST)
        up = minimize_chsh_upper(math.pi / 2, FAST)
        assert lo.value == pytest.approx(2.0, abs=1e-9)
        assert up.value == pytest.approx(-2.0, abs=1e-9)

    def test_pinning_start_alone_reaches_ghz_value(self):
        cfg = OptimizerConfig(restarts=1, max_iters=2000, tol=1e-10, seed=0)
        lo = maximize_chsh_lower(math.pi / 2, cfg)
        up = minimize_chsh_upper(math.pi / 2, cfg)
        assert lo.value >= 2.0 - 1e-9
        assert up.value <= -2.0 + 1e-9


class TestSearchInvariants:
    # both branches of the closed form and the endpoints, where a zero sum
    # falls back to the z axis: the upper winner's C-flip must hold on each
    @pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 4, 1.2,
                                       math.pi / 2])
    def test_reevaluation_matches_reported_value(self, alpha):
        lo = maximize_chsh_lower(alpha, FAST)
        up = minimize_chsh_upper(alpha, FAST)
        assert family_chsh_bounds(alpha, lo.params[None, :])[0][0] == \
            pytest.approx(lo.value, abs=1e-12)
        assert family_chsh_bounds(alpha, up.params[None, :])[1][0] == \
            pytest.approx(up.value, abs=1e-12)

    def test_restart_dominance(self):
        few = OptimizerConfig(restarts=6, max_iters=1500, tol=1e-9, seed=3)
        many = OptimizerConfig(restarts=24, max_iters=1500, tol=1e-9, seed=3)
        alpha = 0.9
        assert maximize_chsh_lower(alpha, many).value >= \
            maximize_chsh_lower(alpha, few).value - 1e-12
        assert minimize_chsh_upper(alpha, many).value <= \
            minimize_chsh_upper(alpha, few).value + 1e-12

    def test_deterministic_repeat(self):
        a = maximize_chsh_lower(1.1, FAST)
        b = maximize_chsh_lower(1.1, FAST)
        assert a.value == b.value
        assert np.array_equal(a.params, b.params)
        assert a.iterations == b.iterations

    def test_symmetry_of_directions(self):
        cfg = OptimizerConfig(restarts=40, max_iters=2000, tol=1e-10, seed=5)
        alpha = math.acos(math.sqrt(0.75))
        lo = maximize_chsh_lower(alpha, cfg)
        up = minimize_chsh_upper(alpha, cfg)
        assert abs(up.value + lo.value) <= 1e-3


def fourteen_angle_search(alpha, direction, restarts, seed):
    """The reference search over all 14 settings angles, with no closed
    form: restart 0 at the z axes (C on -z for the upper bound), the
    others uniform on the sphere and the Givens chart."""
    rng = np.random.default_rng(seed)
    x0 = np.zeros((restarts, 14))
    if direction == _UPPER:
        x0[0, 4] = x0[0, 6] = math.pi
    x0[1:, 0:8:2] = np.arccos(rng.uniform(-1.0, 1.0, (restarts - 1, 4)))
    x0[1:, 1:8:2] = rng.uniform(0.0, 2.0 * math.pi, (restarts - 1, 4))
    x0[1:, 8::2] = rng.uniform(0.0, math.pi / 2, (restarts - 1, 3))
    x0[1:, 9::2] = rng.uniform(0.0, 2.0 * math.pi, (restarts - 1, 3))
    sign = -1.0 if direction == _LOWER else 1.0
    _, vals, _ = nelder_mead_batch(
        lambda p: sign * family_chsh_bounds(alpha, p)[direction], x0,
        max_iters=2000, tol=1e-10)
    return sign * float(vals.min())


class TestSixAngleSearch:
    @pytest.mark.parametrize("alpha", [0.4, math.pi / 4, 1.2])
    def test_fourteen_angle_oracle_never_does_better(self, alpha):
        cfg = OptimizerConfig(restarts=24, max_iters=2000, tol=1e-10, seed=2)
        lower = fourteen_angle_search(alpha, _LOWER, 24, seed=1)
        upper = fourteen_angle_search(alpha, _UPPER, 24, seed=1)
        assert lower <= maximize_chsh_lower(alpha, cfg).value + 1e-12
        assert upper >= minimize_chsh_upper(alpha, cfg).value - 1e-12

    def test_complex_branch_is_linear_in_sin_2alpha(self):
        # for alpha up to about 0.95, L_bar = -4 + kappa sin 2alpha with one
        # constant kappa (ROADMAP item 6); 1.0 already lies on the real branch
        cfg = OptimizerConfig(restarts=40, max_iters=2000, tol=1e-10, seed=0)
        kappa = [(maximize_chsh_lower(alpha, cfg).value + 4.0)
                 / math.sin(2.0 * alpha)
                 for alpha in (0.2, 0.5, math.pi / 4, 0.9)]
        assert max(kappa) - min(kappa) <= 1e-9
        assert kappa[0] == pytest.approx(4.83055464273694, abs=1e-9)

    def test_streams_differ_across_seeds_and_points(self):
        # keyed by (grid_index, direction, restart) under entropy seed, so
        # seed 42 at point 1 no longer repeats seed 43 at point 0
        a = _starts(OptimizerConfig(restarts=50, seed=42), 1, _LOWER)
        b = _starts(OptimizerConfig(restarts=50, seed=43), 0, _LOWER)
        assert a.shape == (50, 6) and not np.any(a[0]) and not np.any(b[0])
        assert not np.any(np.all(a[1:, None] == b[None, 1:], axis=2))
        up = _starts(OptimizerConfig(restarts=50, seed=42), 1, _UPPER)
        assert not np.any(np.all(a[1:] == up[1:], axis=1))
        longer = _starts(OptimizerConfig(restarts=80, seed=42), 1, _LOWER)
        assert longer[:50].tobytes() == a.tobytes()


class TestSweep:
    def test_records_and_determinism(self):
        grid = (0.0, 0.6, math.pi / 2)
        cfg = OptimizerConfig(restarts=5, max_iters=1200, tol=1e-9, seed=11,
                              alpha_grid=grid)
        first = sweep(cfg)
        second = sweep(cfg)
        assert len(first) == 3
        for r1, r2 in zip(first, second):
            assert r1.alpha == r2.alpha
            assert r1.l_bar == r2.l_bar
            assert r1.u_bar == r2.u_bar
            assert np.array_equal(r1.params_lower, r2.params_lower)
            assert np.array_equal(r1.params_upper, r2.params_upper)
            assert r1.iterations_total == r2.iterations_total
        for rec in first:
            assert rec.cos2_alpha == pytest.approx(math.cos(rec.alpha) ** 2)
            assert rec.restarts == 5
            assert rec.l_bar <= 2.0 + 1e-6
            assert rec.u_bar >= -2.0 - 1e-6

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            sweep(OptimizerConfig(alpha_grid=()))


class TestConfigValidation:
    def test_bad_restarts(self):
        for bad in (0, 2.5, True):
            with pytest.raises(InvalidInputError):
                OptimizerConfig(restarts=bad)

    def test_bad_max_iters(self):
        for bad in (0, 2.5, True):
            with pytest.raises(InvalidInputError):
                OptimizerConfig(max_iters=bad)

    def test_bad_tol(self):
        for bad in (-1e-3, math.nan, math.inf, True, "1e-3"):
            with pytest.raises(InvalidInputError):
                OptimizerConfig(tol=bad)

    def test_bad_seed(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=-1)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=2 ** 64)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=1.5)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=True)

    def test_bad_grid_value(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(alpha_grid=(0.1, 2.0))
        for bad in (math.pi / 2 + 1e-13, -1e-300, math.nan):
            with pytest.raises(InvalidInputError):
                OptimizerConfig(alpha_grid=(bad,))
        OptimizerConfig(alpha_grid=(0.0, math.pi / 2))
