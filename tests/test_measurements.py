import itertools
import math

import numpy as np
import pytest

from nosig.errors import InvalidInputError
from nosig.measurements import (BlochSetting, QutritBasis, SettingsFamily,
                                batched_columns, bloch_vectors,
                                qubit_projector, qutrit_unitary)


def random_basis(rng):
    return QutritBasis(tuple(rng.uniform(0, 2 * math.pi, 6)))


class TestBlochSetting:
    def test_vector_is_unit(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = BlochSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert abs(np.linalg.norm(s.bloch_vector()) - 1) < 1e-14

    def test_poles(self):
        assert np.allclose(BlochSetting(0.0, 0.0).bloch_vector(), (0, 0, 1))
        assert np.allclose(BlochSetting(math.pi, 0.0).bloch_vector(),
                           (0, 0, -1), atol=1e-15)
        assert np.allclose(BlochSetting(math.pi / 2, 0.0).bloch_vector(),
                           (1, 0, 0), atol=1e-15)

    def test_one_chart_with_the_batched_form(self):
        rng = np.random.default_rng(22)
        theta, phi = rng.uniform(-10, 10, (2, 200))
        batched = np.array(bloch_vectors(theta, phi))
        for k in range(200):
            v = BlochSetting(theta[k], phi[k]).bloch_vector()
            assert all(type(x) is float for x in v)
            assert v == tuple(batched[:, k])

    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.0, math.nan),
                                            (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_angles_rejected(self, theta, phi):
        with pytest.raises(InvalidInputError, match="finite"):
            BlochSetting(theta, phi)


class TestQubitProjectors:
    def test_complete_and_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = BlochSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            pp, pm = qubit_projector(s, +1), qubit_projector(s, -1)
            assert np.allclose(pp + pm, np.eye(2), atol=1e-14)
            assert np.allclose(pp @ pp, pp, atol=1e-14)
            assert np.allclose(pp @ pm, np.zeros((2, 2)), atol=1e-14)
            assert np.allclose(pp, pp.conj().T, atol=1e-15)

    def test_z_axis_is_computational(self):
        s = BlochSetting(0.0, 0.0)
        assert np.allclose(qubit_projector(s, +1), np.diag([1.0, 0.0]))
        assert np.allclose(qubit_projector(s, -1), np.diag([0.0, 1.0]))

    def test_outcome_validation(self):
        with pytest.raises(InvalidInputError):
            qubit_projector(BlochSetting(0.0, 0.0), 0)


class TestQutritBasis:
    def test_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = qutrit_unitary(random_basis(rng))
            assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-13)

    def test_identity_at_zero_angles(self):
        assert np.allclose(qutrit_unitary(QutritBasis((0.0,) * 6)), np.eye(3))

    def test_angle_count_validation(self):
        with pytest.raises(InvalidInputError):
            QutritBasis((0.0, 1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            QutritBasis((0.0,) * 5 + (bad,))


def reference_givens(j, k, theta, phi):
    # one explicit phased Givens matrix per angle pair, shape (N, 3, 3)
    g = np.zeros(theta.shape + (3, 3), dtype=np.complex128)
    g[:, 0, 0] = g[:, 1, 1] = g[:, 2, 2] = 1.0
    g[:, j, j] = g[:, k, k] = np.cos(theta)
    g[:, j, k] = -np.sin(theta) * np.exp(1j * phi)
    g[:, k, j] = np.sin(theta) * np.exp(-1j * phi)
    return g


def reference_columns(angles):
    # the Givens chart as the matrix product G01 G02 G12, shape (N, 3, 3)
    t1, p1, t2, p2, t3, p3 = angles
    return (reference_givens(0, 1, t1, p1) @ reference_givens(0, 2, t2, p2)
            @ reference_givens(1, 2, t3, p3))


class TestGivensChart:
    """batched_columns writes the Givens product out entrywise; the
    reference multiplies the three matrices."""

    def assert_matches_reference(self, angles):
        got = np.moveaxis(batched_columns(angles), -1, 0)
        assert np.max(np.abs(got - reference_columns(angles))) <= 1e-15

    def test_random_angles(self):
        rng = np.random.default_rng(27)
        self.assert_matches_reference(
            rng.uniform(-2 * math.pi, 2 * math.pi, (6, 20000)))

    def test_special_angles(self):
        # every combination of 0, +-pi/2, pi and 2*pi, the all-zero
        # pinning start included
        special = (0.0, math.pi / 2, -math.pi / 2, math.pi, 2 * math.pi)
        angles = np.array(list(itertools.product(special, repeat=6))).T
        self.assert_matches_reference(angles)
        assert np.array_equal(batched_columns(np.zeros((6, 1)))[..., 0],
                              np.eye(3))


class TestSettingsFamily:
    def test_params_round_trip(self):
        rng = np.random.default_rng(26)
        p = list(rng.uniform(-3, 7, 14))
        fam = SettingsFamily.from_params(p)
        assert fam.to_params() == pytest.approx(p)

    def test_params_layout(self):
        fam = SettingsFamily(BlochSetting(1, 2), BlochSetting(3, 4),
                             BlochSetting(5, 6), BlochSetting(7, 8),
                             QutritBasis((9, 10, 11, 12, 13, 14)))
        assert fam.to_params() == list(range(1, 15))

    def test_length_validation(self):
        with pytest.raises(InvalidInputError):
            SettingsFamily.from_params([0.0] * 13)

    @pytest.mark.parametrize("k", [0, 7, 13])
    def test_non_finite_entry_rejected_by_the_settings(self, k):
        p = [0.3] * 14
        p[k] = math.nan
        with pytest.raises(InvalidInputError, match="finite"):
            SettingsFamily.from_params(p)
