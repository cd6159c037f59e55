import numpy as np
import pytest

from nosig.errors import InvalidInputError
from nosig.qlinalg import (check_density, check_hermitian,
                           hermitian_eigenvalues, partial_trace)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_density(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestEigensolver:
    def test_known_spectrum(self):
        # U diag(lam) U^dagger with U from the QR of a random complex matrix
        # must give lam back, ascending; every other draw repeats a value
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5, 6):
            for k in range(40):
                lam = rng.uniform(-5.0, 5.0, n)
                if k % 2:
                    lam[1] = lam[0]
                lam = np.sort(lam)
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                u, _ = np.linalg.qr(z)
                m = u @ np.diag(lam) @ u.conj().T
                got = np.asarray(hermitian_eigenvalues(0.5 * (m + m.conj().T)))
                assert np.all(np.abs(got - lam)
                              <= 1e-12 * np.maximum(1.0, np.abs(lam)))

    def test_sorted_ascending(self):
        rng = np.random.default_rng(12)
        e = hermitian_eigenvalues(random_hermitian(rng, 5))
        assert np.all(np.diff(e) >= 0)

    def test_diagonal_matrix(self):
        e = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(e, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPartialTrace:
    def test_pure_state_marginals_oracle(self):
        # einsum-based oracle on a random 3-party pure state
        rng = np.random.default_rng(13)
        dims = (2, 3, 2)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        t = v.reshape(dims)
        want_ab = np.einsum("abc,ABc->abAB", t, t.conj()).reshape(6, 6)
        got_ab = partial_trace(rho, dims, (0, 1))
        assert np.linalg.norm(got_ab - want_ab) < 1e-13
        want_ac = np.einsum("abc,AbC->acAC", t, t.conj()).reshape(4, 4)
        got_ac = partial_trace(rho, dims, (0, 2))
        assert np.linalg.norm(got_ac - want_ac) < 1e-13
        want_b = np.einsum("abc,aBc->bB", t, t.conj())
        got_b = partial_trace(rho, dims, (1,))
        assert np.linalg.norm(got_b - want_b) < 1e-13

    def test_trace_preserved(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 12)
        for keep in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2)):
            red = partial_trace(rho, (2, 3, 2), keep)
            assert abs(np.trace(red).real - 1.0) < 1e-12

    def test_product_state_factors(self):
        rng = np.random.default_rng(15)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        rho = np.kron(a, b)
        assert np.linalg.norm(partial_trace(rho, (2, 3), (0,)) - a) < 1e-13
        assert np.linalg.norm(partial_trace(rho, (2, 3), (1,)) - b) < 1e-13

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 6)
        assert np.linalg.norm(partial_trace(rho, (2, 3), (0, 1)) - rho) == 0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            partial_trace(np.eye(5) / 5, (2, 3), (0,))
        with pytest.raises(InvalidInputError):
            partial_trace(np.zeros(3), (3,), (0,))
        with pytest.raises(InvalidInputError, match="out of range"):
            partial_trace(np.eye(6) / 6, (2, 3), (2,))


class TestChecks:
    def test_check_hermitian(self):
        check_hermitian(np.array([[1.0, 1j], [-1j, 0.0]]))
        with pytest.raises(InvalidInputError):
            check_hermitian(np.array([[1.0, 1j], [1j, 0.0]]))
        for bad in (np.zeros((2, 3)), np.zeros(3)):
            with pytest.raises(InvalidInputError, match="not square"):
                check_hermitian(bad)

    def test_check_density_accepts_valid(self):
        rng = np.random.default_rng(19)
        check_density(random_density(rng, 4))

    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(InvalidInputError):
            check_density(np.eye(2))

    def test_check_density_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            check_density(np.diag([1.5, -0.5]))
