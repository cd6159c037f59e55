import math

import numpy as np
import pytest

from nosig.errors import InvalidInputError
from nosig.qlinalg import hermitian_eigenvalues, partial_trace
from nosig.states import (ghz3, psi, psi1, psi2, rho_ab_analytic,
                          rho_ac_analytic)

ALPHAS = [0.0, 0.3, math.pi / 4, 1.1, math.pi / 2]


class TestStateVector:
    def test_component_placement(self):
        v = psi(0.7)
        ca, sa = math.cos(0.7) / math.sqrt(2), math.sin(0.7) / math.sqrt(2)
        # |021> = 5, |120> = 10, |000> = 0, |111> = 9
        assert v[5] == pytest.approx(ca)
        assert v[10] == pytest.approx(ca)
        assert v[0] == pytest.approx(sa)
        assert v[9] == pytest.approx(sa)
        assert np.count_nonzero(v) == 4

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unit_norm(self, alpha):
        assert abs(np.linalg.norm(psi(alpha)) - 1.0) < 1e-14

    def test_ghz_limit(self):
        # at alpha=pi/2 only the qubit-like |000>, |111> components remain
        v = psi(math.pi / 2)
        expected = np.zeros(12)
        expected[0] = expected[9] = 1 / math.sqrt(2)
        assert np.max(np.abs(v - expected)) < 1e-15

    def test_ghz3_vector(self):
        v = ghz3()
        assert v[0] == pytest.approx(1 / math.sqrt(2))
        assert v[7] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(v) == 2

    @pytest.mark.parametrize("alpha", [-0.1, math.pi / 2 + 0.1, 7.0])
    def test_domain(self, alpha):
        with pytest.raises(InvalidInputError):
            psi(alpha)

    def test_branch_states_orthonormal(self):
        for alpha in ALPHAS:
            v1, v2 = psi1(alpha), psi2(alpha)
            assert abs(np.linalg.norm(v1) - 1) < 1e-14
            assert abs(np.linalg.norm(v2) - 1) < 1e-14
            assert abs(np.vdot(v1, v2)) < 1e-14


class TestMarginals:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ab_against_partial_trace(self, alpha):
        v = psi(alpha)
        rho = np.outer(v, v.conj())
        got = partial_trace(rho, (2, 3, 2), (0, 1))
        assert np.linalg.norm(got - rho_ab_analytic(alpha)) < 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cb_against_partial_trace(self, alpha):
        v = psi(alpha)
        rho = np.outer(v, v.conj())
        bc = partial_trace(rho, (2, 3, 2), (1, 2))        # B x C order
        cb = bc.reshape(3, 2, 3, 2).transpose(1, 0, 3, 2).reshape(6, 6)
        # the A <-> C symmetry: C-B (qubit first) is the A-B matrix
        assert np.linalg.norm(cb - rho_ab_analytic(alpha)) < 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ac_against_partial_trace(self, alpha):
        v = psi(alpha)
        rho = np.outer(v, v.conj())
        got = partial_trace(rho, (2, 3, 2), (0, 2))
        assert np.linalg.norm(got - rho_ac_analytic(alpha)) < 1e-13

    def test_ac_spectrum_at_pi_over_4(self):
        eigs = hermitian_eigenvalues(rho_ac_analytic(math.pi / 4))
        assert np.allclose(eigs, [0.0, 0.25, 0.25, 0.5], atol=1e-12)

    def test_ac_is_bell_state_at_zero(self):
        rho = rho_ac_analytic(0.0)
        psi_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert np.linalg.norm(rho - np.outer(psi_plus, psi_plus)) < 1e-15

    def test_ac_is_classical_mixture_at_ghz(self):
        rho = rho_ac_analytic(math.pi / 2)
        assert np.linalg.norm(rho - np.diag([0.5, 0, 0, 0.5])) < 1e-15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_marginals_are_density_matrices(self, alpha):
        for rho in (rho_ab_analytic(alpha), rho_ac_analytic(alpha)):
            assert abs(np.trace(rho).real - 1) < 1e-14
            assert hermitian_eigenvalues(rho)[0] > -1e-12
