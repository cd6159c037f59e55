import math

import numpy as np
import pytest

from nosig.correlations import (Decomposition, born_joint3, chsh_value,
                                clamp_probabilities, correlation_matrix,
                                correlator, decompose, fach_closed_form,
                                horodecki_chsh_max, outcome_terms,
                                quantum_joint, recompose)
from nosig.errors import InvalidInputError
from nosig.measurements import (BlochSetting, QutritBasis, SettingsFamily,
                                batched_columns, qutrit_unitary)
from nosig.optimizer import nelder_mead_batch
from nosig.states import psi, rho_ab_analytic, rho_ac_analytic

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

Z = BlochSetting(0.0, 0.0)
B_COMP = QutritBasis((0.0,) * 6)


def random_settings(rng):
    a = BlochSetting(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
    c = BlochSetting(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
    b = QutritBasis(tuple(rng.uniform(0, 2 * math.pi, 6)))
    return a, b, c


def qubit_eigvec(s: BlochSetting, outcome: int) -> np.ndarray:
    # explicit spinor, independent of the projector construction
    half = s.theta / 2.0
    phase = complex(math.cos(s.phi), math.sin(s.phi))
    if outcome == +1:
        return np.array([math.cos(half), phase * math.sin(half)])
    return np.array([-np.conj(phase) * math.sin(half), math.cos(half)])


def amplitude_oracle(alpha, a, b, c):
    # P = |<a,b,c|psi>|^2 from raw amplitudes
    v = psi(alpha)
    u = qutrit_unitary(b)
    out = np.empty((2, 3, 2))
    for ia, sa in enumerate((+1, -1)):
        va = qubit_eigvec(a, sa)
        for ib in range(3):
            vb = u[:, ib]
            for ic, sc in enumerate((+1, -1)):
                vc = qubit_eigvec(c, sc)
                full = np.kron(np.kron(va, vb), vc)
                out[ia, ib, ic] = abs(np.vdot(full, v)) ** 2
    return out


class TestQuantumJoint:
    def test_ghz_computational(self):
        j = quantum_joint(math.pi / 2, Z, B_COMP, Z)
        assert j[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert j[1, 1, 1] == pytest.approx(0.5, abs=1e-14)
        assert j.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.sort(j.ravel())[-3] < 1e-14

    def test_alpha_zero_has_no_b0_weight(self):
        # the alpha=0 state only populates qutrit components 1 and 2
        j = quantum_joint(0.0, BlochSetting(0.7, 0.3), B_COMP,
                          BlochSetting(2.0, 5.0))
        assert np.max(np.abs(j[:, 0, :])) < 1e-14

    def test_amplitude_oracle_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            alpha = rng.uniform(0, math.pi / 2)
            a, b, c = random_settings(rng)
            got = quantum_joint(alpha, a, b, c)
            want = amplitude_oracle(alpha, a, b, c)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_normalization_random(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            j = quantum_joint(rng.uniform(0, math.pi / 2), *random_settings(rng))
            assert j.sum() == pytest.approx(1.0, abs=1e-12)
            assert j.min() >= 0.0

    def test_ab_marginal_matches_density_matrix(self):
        from nosig.measurements import qubit_projector
        rng = np.random.default_rng(33)
        for _ in range(10):
            alpha = rng.uniform(0, math.pi / 2)
            a, b, c = random_settings(rng)
            j = quantum_joint(alpha, a, b, c)
            rho = rho_ab_analytic(alpha)
            u = qutrit_unitary(b)
            for ia, sa in enumerate((+1, -1)):
                for ib in range(3):
                    pb = np.outer(u[:, ib], u[:, ib].conj())
                    op = np.kron(qubit_projector(a, sa), pb)
                    want = np.trace(rho @ op).real
                    assert j[ia, ib, :].sum() == pytest.approx(want, abs=1e-12)

    def test_clamp_policy(self):
        p = np.full((2, 3, 2), 1.0 / 12)
        p[0, 0, 0] -= 1e-13
        p[1, 2, 1] += 1e-13
        assert clamp_probabilities(p.copy()).min() >= 0.0
        p[0, 0, 0] = -1e-9
        with pytest.raises(InvalidInputError):
            clamp_probabilities(p)

    def test_error_messages_print_plain_floats(self):
        p = np.full((2, 3, 2), 1.0 / 12)
        p[0, 0, 0] += 1e-9
        with pytest.raises(InvalidInputError) as exc:
            clamp_probabilities(p)
        assert str(exc.value) == f"probabilities sum to {float(p.sum())!r}"
        assert "1.000000001" in str(exc.value)
        assert "np.float64" not in str(exc.value)
        p[0, 0, 0] = -1e-9
        with pytest.raises(InvalidInputError) as exc:
            clamp_probabilities(p)
        assert str(exc.value) == "negative probability -1e-09"

    @pytest.mark.parametrize("p", [[math.nan, 1.0], [math.nan, math.nan],
                                   [0.25, math.nan, 0.75]])
    def test_nan_rejected(self, p):
        with pytest.raises(InvalidInputError, match="nan"):
            clamp_probabilities(np.array(p))


class TestDecomposition:
    def test_ghz_b0_components(self):
        d = decompose(quantum_joint(math.pi / 2, Z, B_COMP, Z))
        for arr in (d.f, d.a, d.c, d.h):
            assert arr[0] == pytest.approx(0.5, abs=1e-14)

    def test_uniform(self):
        d = decompose(np.full((2, 3, 2), 1.0 / 12))
        assert np.allclose(d.f, 1 / 3)
        assert np.allclose(d.a, 0) and np.allclose(d.c, 0) and np.allclose(d.h, 0)

    def test_round_trip(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            j = rng.random((2, 3, 2))
            j /= j.sum()
            back = recompose(decompose(j))
            assert np.max(np.abs(back - j)) < 1e-14

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            decompose(np.full((2, 2, 2), 0.125))

    def test_validate_flags_bad_components(self):
        d = Decomposition(f=np.array([0.2, 0.3, 0.5]),
                          a=np.array([0.5, 0.0, 0.0]),
                          c=np.zeros(3), h=np.zeros(3))
        with pytest.raises(InvalidInputError):
            d.validate()
        d = Decomposition(f=np.array([0.2, 0.3, 0.4]), a=np.zeros(3),
                          c=np.zeros(3), h=np.zeros(3))
        with pytest.raises(InvalidInputError, match="do not sum to 1"):
            d.validate()


class TestClosedForm:
    def test_matches_decomposition(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            alpha = rng.uniform(0, math.pi / 2)
            a, b, c = random_settings(rng)
            d = decompose(quantum_joint(alpha, a, b, c))
            f, abias, cbias = fach_closed_form(alpha, a, b, c)
            assert np.max(np.abs(d.f - f)) < 1e-12
            assert np.max(np.abs(d.a - abias)) < 1e-12
            assert np.max(np.abs(d.c - cbias)) < 1e-12

    def test_ghz_f_profile(self):
        f, _, _ = fach_closed_form(math.pi / 2, Z, B_COMP, Z)
        assert np.allclose(f, [0.5, 0.5, 0.0], atol=1e-14)

    def test_equatorial_bias_quarter(self):
        # with the b=0 vector (|0>+|2>)/sqrt2, an equatorial A axis picks
        # up bias 1/4 at alpha=pi/4
        b = QutritBasis((0.0, 0.0, math.pi / 4, 0.0, 0.0, 0.0))
        u = qutrit_unitary(b)
        assert np.allclose(u[:, 0], [1 / math.sqrt(2), 0, 1 / math.sqrt(2)])
        _, abias, _ = fach_closed_form(math.pi / 4, BlochSetting(math.pi / 2, 0.0),
                                       b, Z)
        assert abias[0] == pytest.approx(0.25, abs=1e-14)
        d = decompose(quantum_joint(math.pi / 4, BlochSetting(math.pi / 2, 0.0),
                                    b, Z))
        assert d.a[0] == pytest.approx(0.25, abs=1e-14)

    def test_column_phases_drop_out(self):
        rng = np.random.default_rng(36)
        alpha, (a, b, c) = 0.9, random_settings(rng)
        cols = qutrit_unitary(b)
        phased = cols * np.exp(1j * rng.uniform(0, 2 * math.pi, 3))[None, :]
        base = outcome_terms(alpha, cols)
        got = outcome_terms(alpha, phased)
        for x, y in zip(base, got):
            assert np.max(np.abs(x - y)) < 1e-13


    @pytest.mark.parametrize("alpha", [0.0, 0.4, math.pi / 4, 1.2,
                                       math.pi / 2])
    def test_unitarity_sums(self, alpha):
        # the columns are orthonormal, so sum_b |b_i|^2 = 1 and
        # sum_b b_i b_j* = 0 for i != j: f sums to 1 and g to 0
        rng = np.random.default_rng(37)
        columns = batched_columns(rng.uniform(-7, 7, (6, 2000)))
        f, g = outcome_terms(alpha, columns)
        assert f.shape == (3, 2000) and g.shape == (3, 3, 2000)
        assert np.max(np.abs(f[0] + f[1] + f[2] - 1.0)) <= 1e-15
        assert np.max(np.abs(g[0] + g[1] + g[2])) <= 1e-15


class TestCorrelator:
    def test_ghz_limit(self):
        d = decompose(quantum_joint(math.pi / 2, Z, B_COMP, Z))
        assert correlator(d) == pytest.approx(1.0, abs=1e-12)

    def test_bell_limit(self):
        d = decompose(quantum_joint(0.0, Z, B_COMP, Z))
        assert correlator(d) == pytest.approx(-1.0, abs=1e-12)

    def test_uniform(self):
        assert correlator(decompose(np.full((2, 3, 2), 1 / 12))) == 0.0

    def test_range_validation(self):
        d = Decomposition(f=np.array([1 / 3] * 3), a=np.zeros(3),
                          c=np.zeros(3), h=np.array([0.5, 0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            correlator(d)

    def test_nan_rejected(self):
        d = Decomposition(f=np.array([1 / 3] * 3), a=np.zeros(3),
                          c=np.zeros(3), h=np.array([0.1, math.nan, 0.1]))
        with pytest.raises(InvalidInputError, match="nan"):
            correlator(d)

    def test_independent_of_b_and_matches_ac_state(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            alpha = rng.uniform(0, math.pi / 2)
            a, _, c = random_settings(rng)
            values = []
            for _ in range(4):
                b = QutritBasis(tuple(rng.uniform(0, 2 * math.pi, 6)))
                values.append(correlator(decompose(quantum_joint(alpha, a, b, c))))
            assert max(values) - min(values) < 1e-10
            na, nc = a.bloch_vector(), c.bloch_vector()
            op = np.kron(sum(x * p for x, p in zip(na, PAULI)),
                         sum(x * p for x, p in zip(nc, PAULI)))
            want = np.trace(rho_ac_analytic(alpha) @ op).real
            assert values[0] == pytest.approx(want, abs=1e-10)

    def test_bilinear_in_axes(self):
        # E(na, nc) must equal the matrix form na^T T nc fitted from the
        # nine axis-pair evaluations
        rng = np.random.default_rng(38)
        alpha = 0.8
        b = QutritBasis(tuple(rng.uniform(0, 2 * math.pi, 6)))
        axes = [BlochSetting(math.pi / 2, 0.0), BlochSetting(math.pi / 2, math.pi / 2),
                BlochSetting(0.0, 0.0)]

        def e(a, c):
            return correlator(decompose(quantum_joint(alpha, a, b, c)))

        t = np.array([[e(ai, cj) for cj in axes] for ai in axes])
        for _ in range(10):
            a = BlochSetting(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            c = BlochSetting(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            na, nc = np.array(a.bloch_vector()), np.array(c.bloch_vector())
            assert e(a, c) == pytest.approx(float(na @ t @ nc), abs=1e-10)


class TestChshValue:
    def test_bell_pair_reaches_tsirelson(self):
        # alpha=0 leaves A-C in a Bell state; the optimal CHSH pair gives
        # 2*sqrt(2) regardless of the B basis
        # T = diag(1, 1, -1) here, so the optimal C axes sit at 3pi/4, pi/4
        a1 = BlochSetting(math.pi / 2, 0.0)
        a2 = BlochSetting(0.0, 0.0)
        c1 = BlochSetting(3 * math.pi / 4, 0.0)
        c2 = BlochSetting(math.pi / 4, 0.0)
        fam = SettingsFamily(a1, a2, c1, c2, QutritBasis((0.3, 1.0, 2.0, 0.1, 0.7, 4.0)))
        assert abs(chsh_value(0.0, fam)) == pytest.approx(2 * math.sqrt(2), abs=1e-10)

    def test_degenerate_family_bounded_by_two(self):
        rng = np.random.default_rng(39)
        a, b, c = random_settings(rng)
        fam = SettingsFamily(a, a, c, c, b)
        val = chsh_value(rng.uniform(0, math.pi / 2), fam)
        assert abs(val) <= 2.0 + 1e-10

    def test_threshold_state_supremum(self):
        alpha = math.acos(math.sqrt(1 / math.sqrt(2)))
        assert horodecki_chsh_max(rho_ac_analytic(alpha)) == pytest.approx(2.0, abs=1e-9)


class TestHorodecki:
    def test_bell_state(self):
        psi_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        rho = np.outer(psi_plus, psi_plus)
        assert horodecki_chsh_max(rho) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_classical_mixture(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5])
        assert horodecki_chsh_max(rho) == pytest.approx(2.0, abs=1e-12)

    def test_family_closed_form_both_branches(self):
        for c2 in (1.0, 0.9, 0.75, 1 / math.sqrt(2), 0.6):
            alpha = math.acos(math.sqrt(c2))
            want = 2 * math.sqrt(2) * c2
            assert horodecki_chsh_max(rho_ac_analytic(alpha)) == pytest.approx(want, abs=1e-9)
        for c2 in (0.2, 0.1, 0.0):
            alpha = math.acos(math.sqrt(c2))
            want = 2 * math.sqrt(c2 ** 2 + (1 - 2 * c2) ** 2)
            assert horodecki_chsh_max(rho_ac_analytic(alpha)) == pytest.approx(want, abs=1e-9)

    def test_correlation_matrix_diagonal(self):
        t = correlation_matrix(rho_ac_analytic(0.5))
        c2, s2 = math.cos(0.5) ** 2, math.sin(0.5) ** 2
        assert np.allclose(t, np.diag([c2, c2, s2 - c2]), atol=1e-12)

    def test_against_direct_settings_search(self):
        # derivative-free maximization over the 8 qubit angles as oracle
        rng = np.random.default_rng(40)
        for alpha in rng.uniform(0, math.pi / 2, 10):
            rho = rho_ac_analytic(alpha)
            t = correlation_matrix(rho)

            def neg_chsh(p):
                def axis(th, ph):
                    return np.stack([np.sin(th) * np.cos(ph),
                                     np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
                a1, a2 = axis(p[:, 0], p[:, 1]), axis(p[:, 2], p[:, 3])
                c1, c2 = axis(p[:, 4], p[:, 5]), axis(p[:, 6], p[:, 7])
                e = lambda x, y: np.einsum("ri,ij,rj->r", x, t, y)
                return -np.abs(e(a1, c1) + e(a1, c2) + e(a2, c1) - e(a2, c2))

            starts = rng.uniform(0, math.pi, (40, 8))
            _, vals, _ = nelder_mead_batch(neg_chsh, starts, max_iters=1200,
                                           tol=1e-12)
            found = -vals.min()
            closed = horodecki_chsh_max(rho)
            assert found <= closed + 1e-9   # the search can never exceed it
            assert closed == pytest.approx(found, abs=1e-6)

    def test_rejects_non_density(self):
        with pytest.raises(InvalidInputError):
            horodecki_chsh_max(np.eye(4))
        with pytest.raises(InvalidInputError):
            horodecki_chsh_max(np.eye(2) / 2)


class TestBornJoint3:
    def test_ghz_parity(self):
        from nosig.states import ghz3
        zp = [np.diag([1.0 + 0j, 0]), np.diag([0, 1.0 + 0j])]
        p = born_joint3(ghz3(), (2, 2, 2), (zp, zp, zp))
        assert p[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert p[1, 1, 1] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("size", [7, 9, 12])
    def test_state_size_must_match_dims(self, size):
        zp = [np.diag([1.0 + 0j, 0]), np.diag([0, 1.0 + 0j])]
        with pytest.raises(InvalidInputError, match=f"{size} entries"):
            born_joint3(np.zeros(size), (2, 2, 2), (zp, zp, zp))
