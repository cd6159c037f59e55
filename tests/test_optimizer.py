import hashlib
import math

import numpy as np
import pytest

from nosig.bounds import family_chsh_bounds
from nosig.errors import InvalidInputError
from nosig.optimizer import (_BLOCK_ROWS, OptimizerConfig, _in_blocks, _live,
                             maximize_chsh_lower, minimize_chsh_upper,
                             nelder_mead_batch, sweep)

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

        x0 = np.random.default_rng(4).normal(0, 1, (7, 4))
        x0[[1, 4, 5], 0] = 10.0
        pts, vals, iters = nelder_mead_batch(objective, x0, max_iters=50,
                                             tol=1e-3)
        assert np.all(iters[[1, 4, 5]] < 15)
        assert np.all(iters[[0, 2, 3, 6]] == 50)
        for i in range(len(x0)):
            p1, v1, n1 = nelder_mead_batch(objective, x0[i:i + 1],
                                           max_iters=50, tol=1e-3)
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
    def test_reevaluation_matches_reported_value(self):
        lo = maximize_chsh_lower(0.7, FAST)
        up = minimize_chsh_upper(0.7, FAST)
        assert family_chsh_bounds(0.7, lo.params[None, :])[0][0] == \
            pytest.approx(lo.value, abs=1e-12)
        assert family_chsh_bounds(0.7, up.params[None, :])[1][0] == \
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
        with pytest.raises(InvalidInputError):
            OptimizerConfig(restarts=0)

    def test_bad_max_iters(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(max_iters=0)

    def test_bad_tol(self):
        for bad in (-1e-3, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                OptimizerConfig(tol=bad)

    def test_bad_seed(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=-1)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=2 ** 64)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(seed=1.5)

    def test_bad_grid_value(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(alpha_grid=(0.1, 2.0))
        for bad in (math.pi / 2 + 1e-13, -1e-300, math.nan):
            with pytest.raises(InvalidInputError):
                OptimizerConfig(alpha_grid=(bad,))
        OptimizerConfig(alpha_grid=(0.0, math.pi / 2))
