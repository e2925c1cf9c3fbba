import numpy as np
import pytest

from consensuslab import (
    NumericalError,
    deterministic_verdict,
    eigen_spectrum,
    make_projections,
    second_eigenvalue_modulus,
    spectral_radius,
    validate_matrix,
)
from consensuslab.spectral import CONSENSUS, MARGINAL, classify, disagreement_update_matrix

from conftest import random_stochastic, random_stochastic_matrix

# symmetric circulant with 2/3 on the diagonal; equals I/2 + J/6, so the
# characteristic polynomial factors as (z - 1)(z - 1/2)^2
CIRCULANT3 = [
    [2 / 3, 1 / 6, 1 / 6],
    [1 / 6, 2 / 3, 1 / 6],
    [1 / 6, 1 / 6, 2 / 3],
]


class TestEigenSpectrum:
    def test_identity(self):
        spec = eigen_spectrum(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1, 1, 1], atol=1e-12)

    def test_swap_sorted_with_tie_break(self):
        spec = eigen_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # equal moduli; real part descending puts +1 first
        assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_equal_moduli_and_real_parts_by_imag_desc(self):
        # two rotations by 0.6 +- 0.8i and -0.6 +- 0.8i: four eigenvalues of modulus 1,
        # in pairs of equal real part; the solver lists the negative pair first
        m = np.zeros((4, 4))
        m[:2, :2] = [[-0.6, -0.8], [0.8, -0.6]]
        m[2:, 2:] = [[0.6, -0.8], [0.8, 0.6]]
        spec = eigen_spectrum(m)
        assert np.allclose(spec.eigenvalues, [0.6 + 0.8j, 0.6 - 0.8j, -0.6 + 0.8j, -0.6 - 0.8j],
                           atol=1e-12)

    def test_circulant_by_hand(self):
        spec = eigen_spectrum(np.array(CIRCULANT3))
        assert np.allclose(sorted(spec.eigenvalues.real, reverse=True), [1.0, 0.5, 0.5], atol=1e-9)
        assert np.max(np.abs(spec.eigenvalues.imag)) <= 1e-12

    def test_conjugate_pairs_exact(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])  # 3-cycle
        spec = eigen_spectrum(m)
        pair = [z for z in spec.eigenvalues if abs(z.imag) > 1e-12]
        assert len(pair) == 2
        assert pair[0] == np.conj(pair[1])

    def test_residual_bounded(self, rng):
        for n in (2, 5, 16):
            m = rng.normal(size=(n, n))
            spec = eigen_spectrum(m)
            assert spec.residual <= 1e-7 * np.abs(m).sum(axis=1).max()

    def test_length_and_order(self, rng):
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            values = eigen_spectrum(m).eigenvalues
            assert len(values) == 6
            moduli = np.abs(values)
            assert np.all(moduli[:-1] >= moduli[1:] - 1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="256"):
            eigen_spectrum(np.eye(300))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            eigen_spectrum(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestSecondEigenvalueModulus:
    def test_identity_is_one(self):
        assert second_eigenvalue_modulus(validate_matrix(np.eye(2))) == pytest.approx(1.0)

    def test_rank_one_averaging_is_zero(self):
        m = validate_matrix(np.full((4, 4), 0.25))
        assert second_eigenvalue_modulus(m) == pytest.approx(0.0, abs=1e-9)

    def test_gossip_expectation_is_half(self):
        m = validate_matrix(CIRCULANT3)
        assert second_eigenvalue_modulus(m) == pytest.approx(0.5, abs=1e-9)

    def test_leading_eigenvalue_asserted(self, rng):
        for n in (2, 4, 8):
            a = random_stochastic_matrix(rng, n)
            assert abs(np.abs(eigen_spectrum(a.entries).eigenvalues[0]) - 1.0) <= 1e-7
            second_eigenvalue_modulus(a)  # must not raise

    def test_n1_has_no_second_eigenvalue(self):
        assert second_eigenvalue_modulus(validate_matrix([[1.0]])) == 0.0


class TestSpectralRadius:
    def test_projector_radius_one(self):
        proj = make_projections(2)
        assert spectral_radius(proj.pi_perp) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity(self):
        assert spectral_radius(0.5 * np.eye(3)) == pytest.approx(0.5, abs=1e-12)

    def test_projected_rank_one_is_zero(self):
        a = validate_matrix(np.full((3, 3), 1 / 3))
        m = disagreement_update_matrix(a)
        assert np.max(np.abs(m)) <= 1e-12
        assert spectral_radius(m) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_disagreement_update_matches_dense_projector(self, rng, n):
        a = random_stochastic_matrix(rng, n)
        dense = make_projections(n).pi_perp @ a.entries
        assert np.max(np.abs(disagreement_update_matrix(a) - dense)) <= 1e-12


class TestDeterministicVerdict:
    def test_zero_diagonal_consensus(self):
        assert deterministic_verdict(validate_matrix([[1, 0], [1, 0]])) == CONSENSUS

    def test_swap_is_marginal(self, swap2):
        assert deterministic_verdict(swap2) == MARGINAL

    def test_identity_is_marginal(self):
        assert deterministic_verdict(validate_matrix(np.eye(2))) == MARGINAL

    def test_band_edges(self):
        assert classify(1.0 - 1e-6) == CONSENSUS
        assert classify(1.0 + 1e-6) == "no_consensus"
        assert classify(1.0 - 1e-8) == MARGINAL
        assert classify(1.0 + 1e-8) == MARGINAL


class TestSpectralInvariants:
    def test_projected_radius_equals_lambda2(self, rng):
        for n in range(2, 17):
            for _ in range(50):
                a = random_stochastic_matrix(rng, n)
                lam2 = second_eigenvalue_modulus(a)
                rho = spectral_radius(disagreement_update_matrix(a))
                assert abs(rho - lam2) <= 1e-7

    def test_stability_iff_radius_below_one(self, rng):
        # quantified desk-scale proxy: powers die out iff the radius is < 1
        checked = 0
        while checked < 50:
            m = rng.normal(size=(4, 4)) * rng.uniform(0.2, 0.8)
            rho = spectral_radius(m)
            if not (rho < 0.9 or rho > 1.1):
                continue
            power = np.linalg.matrix_power(m, 200)
            norm = np.abs(power).sum(axis=1).max()
            if rho < 0.9:
                assert norm < 1e-6
            else:
                assert norm > 1e-3
            checked += 1

    def test_projected_chain_equals_matrix_power(self, rng):
        # pi_perp X(t) from direct iteration vs (pi_perp A)^t x
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_stochastic_matrix(rng, n)
            proj = make_projections(n)
            pa = proj.pi_perp @ a.entries
            x = rng.normal(size=n)
            state = x.copy()
            for t in range(1, 21):
                state = a.entries @ state
                direct = proj.pi_perp @ state
                powered = np.linalg.matrix_power(pa, t) @ x
                scale = max(np.abs(direct).max(), 1e-12)
                assert np.max(np.abs(direct - powered)) <= 1e-9 * max(scale, 1.0)

    def test_infinity_norm_never_grows(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = random_stochastic_matrix(rng, n)
            x = rng.normal(size=n)
            t = int(rng.integers(1, 51))
            power = np.linalg.matrix_power(a.entries, t)
            assert np.abs(power @ x).max() <= np.abs(x).max() + 1e-9
