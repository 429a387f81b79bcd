import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnkernels import empirical, kernels, spectral
from nnkernels.spectral import DataMeasure


def random_psd(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A @ A.T / n


class TestEigendecompose:
    def test_identity_kernel(self):
        n = 6
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        dec = spectral.eigendecompose(np.eye(n), meas)
        assert np.allclose(dec.eigenvalues, 1.0 / n, atol=1e-14)

    def test_rank_one(self):
        v = np.array([1.0, -2.0, 0.5])
        w = np.array([0.2, 0.3, 0.5])
        meas = DataMeasure(np.zeros((3, 1)), w)
        dec = spectral.eigendecompose(np.outer(v, v), meas)
        assert dec.eigenvalues[0] == pytest.approx(float(w @ v**2), rel=1e-12)
        assert np.allclose(dec.eigenvalues[1:], 0.0, atol=1e-14)

    def test_weighted_orthonormality(self):
        n = 12
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        dec = spectral.eigendecompose(random_psd(n, 0), meas)
        G = dec.eigenfunctions.T @ (meas.weights[:, None] * dec.eigenfunctions)
        assert np.max(np.abs(G - np.eye(n))) < 1e-8

    def test_mercer_reconstruction(self):
        n = 10
        K = random_psd(n, 1)
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        dec = spectral.eigendecompose(K, meas)
        assert np.max(np.abs(spectral.mercer_reconstruction(dec) - K)) < 1e-6

    def test_spectral_budget(self):
        n = 9
        K = random_psd(n, 2)
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        dec = spectral.eigendecompose(K, meas)
        assert spectral.spectral_budget(dec) == pytest.approx(
            float(meas.weights @ np.diag(K)), abs=1e-8
        )

    def test_zero_weight_extension(self):
        # eigenfunctions extend off-support through the eigenvalue equation
        n = 8
        K = random_psd(n, 3)
        w = np.array([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0.0])
        meas = DataMeasure(np.zeros((n, 1)), w)
        dec = spectral.eigendecompose(K, meas)
        lam, Phi = dec.eigenvalues, dec.eigenfunctions
        for k in range(4):
            if lam[k] <= 0:
                continue
            lhs = (K * w) @ Phi[:, k]
            assert np.allclose(lhs, lam[k] * Phi[:, k], atol=1e-10)

    def test_sign_deterministic(self):
        n = 7
        K = random_psd(n, 4)
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        d1 = spectral.eigendecompose(K, meas)
        d2 = spectral.eigendecompose(K.copy(), meas)
        assert np.array_equal(d1.eigenfunctions, d2.eigenfunctions)

    def test_negative_clip_recorded(self):
        K = np.array([[1.0, 0.0], [0.0, -1e-8]])
        meas = DataMeasure.uniform(np.zeros((2, 1)))
        dec = spectral.eigendecompose(K, meas)
        assert dec.clipped < 0
        assert np.all(dec.eigenvalues >= 0)

    def test_sign_rule(self):
        # first component above 1e-8 of the column's largest is positive
        K = random_psd(30, 5)
        w = np.random.default_rng(5).uniform(size=30)
        w[[2, 11, 17]] = 0.0
        dec = spectral.eigendecompose(K, DataMeasure(np.zeros((30, 1)), w / w.sum()))
        for col in dec.eigenfunctions.T:
            big = np.flatnonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))
            assert col[big[0]] > 0

    def test_hypersphere_linear_degenerate_modes(self):
        # uniform sphere data, linear kernel: d near-degenerate eigenvalues
        # at 1/d^2 * d = ... operator eigenvalues ~ 1/(d*d) * d = 1/d... the
        # d leading eigenvalues cluster near 1/(d*d) * d = 1/d * (1/d) * d
        d, n = 10, 2000
        meas = empirical.make_synthetic("hypersphere_uniform", d, n, 7)
        spec = kernels.NetworkSpec(depth=2, input_dim=d, activation="linear")
        K = kernels.nngp_kernel(spec, meas.points)
        dec = spectral.eigendecompose(K, meas)
        top = dec.eigenvalues[:d]
        assert np.mean(top) == pytest.approx(1.0 / d**2, rel=0.05)
        assert np.std(top) / np.mean(top) < 0.10
        assert dec.eigenvalues[d] < 1e-12 * dec.eigenvalues[0]

    def test_irrep_eigenvalue_bound(self):
        d, n = 6, 1400
        meas = empirical.make_synthetic("hypersphere_uniform", d, n, 9)
        spec = kernels.NetworkSpec(depth=2, input_dim=d, activation="erf")
        K = kernels.nngp_kernel(spec, meas.points)
        dec = spectral.eigendecompose(K, meas)
        trace = spectral.spectral_budget(dec)
        lam = dec.eigenvalues
        # level-1 block: the d eigenvalues after the constant mode
        assert d * np.max(lam[1 : 1 + d]) <= trace * 1.1


class TestEigenvalues:
    @pytest.mark.parametrize("zero_weights", [False, True])
    def test_match_eigendecompose(self, zero_weights):
        n = 40
        K = random_psd(n, 6)
        K[:, 0] = K[0, :] = 0.0  # a null direction: rounding gives a clipped eigenvalue
        w = np.random.default_rng(6).uniform(size=n)
        if zero_weights:
            w[[1, 7, 8, 30]] = 0.0
        meas = DataMeasure(np.zeros((n, 1)), w / w.sum())
        dec = spectral.eigendecompose(K, meas)
        lam, clipped = spectral.eigenvalues(K, meas)
        assert lam.shape == dec.eigenvalues.shape
        assert np.all(np.diff(lam) <= 0) and np.all(lam >= 0)
        assert np.max(np.abs(lam - dec.eigenvalues)) <= 1e-14 * lam[0]
        assert abs(clipped - dec.clipped) <= 1e-14 * lam[0]

    def test_negative_clip_recorded(self):
        K = np.array([[1.0, 0.0], [0.0, -1e-8]])
        lam, clipped = spectral.eigenvalues(K, DataMeasure.uniform(np.zeros((2, 1))))
        assert clipped == pytest.approx(-0.5e-8, rel=1e-12)
        assert lam[0] == pytest.approx(0.5, rel=1e-14) and lam[1] == 0.0


class TestTargetsAndNorms:
    def test_top_eigenfunction_norm(self):
        n = 8
        K = random_psd(n, 5)
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        dec = spectral.eigendecompose(K, meas)
        g = dec.eigenfunctions[:, 0]
        assert spectral.rkhs_norm(g, K, meas) == pytest.approx(
            1.0 / dec.eigenvalues[0], rel=1e-10
        )

    def test_zero_function(self):
        n = 5
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        assert spectral.rkhs_norm(np.zeros(n), random_psd(n, 6), meas) == 0.0

    def test_out_of_rkhs_rejected(self):
        # rank-deficient kernel, target with null-space mass
        v = np.array([1.0, 1.0, 1.0])
        K = np.outer(v, v)
        meas = DataMeasure.uniform(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="RKHS"):
            spectral.rkhs_norm(np.array([1.0, -1.0, 0.0]), K, meas)

    def test_measure_invariance(self):
        # a fixed RKHS member (combination of kernel sections at fixed
        # anchors) keeps its norm across independent samples of the measure
        d = 3
        spec = kernels.NetworkSpec(depth=2, input_dim=d, activation="erf")
        rngz = np.random.default_rng(99)
        Z = rngz.standard_normal((5, d)) / np.sqrt(d)
        c = rngz.standard_normal(5)

        def norm_at(seed, n):
            meas = empirical.make_synthetic("gaussian_iid", d, n, seed)
            XZ = np.vstack([meas.points, Z])
            Kfull = kernels.nngp_kernel(spec, XZ).entries
            g = Kfull[:n, n:] @ c
            return spectral.rkhs_norm(g, Kfull[:n, :n], meas)

        a, b = norm_at(1, 900), norm_at(2, 900)
        assert abs(a - b) / a < 0.02

    def test_target_coefficients_roundtrip(self):
        n = 9
        K = random_psd(n, 7)
        meas = DataMeasure.uniform(np.zeros((n, 1)))
        dec = spectral.eigendecompose(K, meas)
        y = np.random.default_rng(8).standard_normal(n)
        y_k = spectral.target_coefficients(y, dec, meas)
        assert np.allclose(dec.eigenfunctions @ y_k, y, atol=1e-8)


class TestSpectraHelpers:
    def test_powerlaw_values(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 4)
        assert np.allclose(lam, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])

    def test_powerlaw_tail_sum(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 4_000_000)
        for Lp in (50, 500, 5000):
            tail = float(np.sum(lam[Lp:]))
            assert tail == pytest.approx(1.0 / Lp, rel=0.05)

    def test_degeneracies(self):
        assert spectral.hypersphere_degeneracy(0, 10) == 1
        assert spectral.hypersphere_degeneracy(1, 10) == 10
        assert spectral.hypersphere_degeneracy(2, 10) == 54
        d = 10
        assert spectral.hypersphere_degeneracy(2, d) == (d + 2) * (d - 1) // 2

    def test_degeneracy_validation(self):
        with pytest.raises(ValueError):
            spectral.hypersphere_degeneracy(1, 1)
        with pytest.raises(ValueError):
            spectral.hypersphere_degeneracy(-1, 5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(2, 40))
    def test_degeneracy_positive_integer(self, level, d_in):
        val = spectral.hypersphere_degeneracy(level, d_in)
        assert isinstance(val, int) and val >= 1


class TestMeasureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DataMeasure(np.zeros((2, 1)), np.array([0.5, 0.6]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DataMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))
