import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnkernels import kernels
from nnkernels.kernels import NetworkSpec


def unit_rows(n, d, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestNNGP:
    def test_erf_unit_diag_closed_form(self):
        # |x|^2 = d puts the input Gram diagonal at 1; the Erf map sends
        # 1 -> (2/pi) asin(2/3)
        d = 4
        spec = NetworkSpec(depth=2, input_dim=d, activation="erf")
        X = math.sqrt(d) * unit_rows(3, d)
        K = kernels.nngp_kernel(spec, X).entries
        assert np.allclose(np.diag(K), (2.0 / np.pi) * np.arcsin(2.0 / 3.0), atol=1e-12)

    def test_linear_identity(self):
        d = 6
        spec = NetworkSpec(depth=2, input_dim=d, activation="linear")
        X = np.random.default_rng(1).standard_normal((5, d))
        K = kernels.nngp_kernel(spec, X).entries
        assert np.allclose(K, X @ X.T / d, atol=1e-12)

    def test_relu_arccosine_value(self):
        # orthogonal unit-variance inputs: arc-cosine kernel gives
        # K = sqrt(h h')/(2 pi) * (sin t + (pi - t) cos t) at t = pi/2
        d = 4
        spec = NetworkSpec(depth=2, input_dim=d, activation="relu")
        X = math.sqrt(d) * np.eye(d)[:2]
        K = kernels.nngp_kernel(spec, X).entries
        assert K[0, 0] == pytest.approx(0.5, rel=1e-12)  # h/2 with h = 1
        assert K[0, 1] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)

    def test_mc_oracle_erf(self):
        d = 6
        X = unit_rows(8, d, seed=3)
        spec = NetworkSpec(depth=2, input_dim=d, activation="erf")
        Kmc = kernels.empirical_kernel_mc(spec, X, samples=400_000, seed=5).entries
        K = kernels.nngp_kernel(spec, X).entries
        assert np.max(np.abs(Kmc - K)) < 5e-3

    def test_mc_oracle_deep_relu(self):
        d = 5
        X = unit_rows(6, d, seed=4)
        spec = NetworkSpec(depth=3, input_dim=d, activation="relu", channels=256)
        Kmc = kernels.empirical_kernel_mc(spec, X, samples=40_000, seed=6).entries
        K = kernels.nngp_kernel(spec, X).entries
        assert np.max(np.abs(Kmc - K)) < 2e-2

    def test_mc_determinism(self):
        d, spec = 4, NetworkSpec(depth=2, input_dim=4, activation="erf")
        X = unit_rows(4, d, seed=7)
        K1 = kernels.empirical_kernel_mc(spec, X, samples=1000, seed=9).entries
        K2 = kernels.empirical_kernel_mc(spec, X, samples=1000, seed=9).entries
        assert np.array_equal(K1, K2)

    def test_cnn_patch_average(self):
        # patch-averaged input Gram feeds the recursion
        d, Nw = 8, 2
        spec = NetworkSpec(depth=2, input_dim=d, patch_count=Nw, activation="linear")
        X = np.random.default_rng(2).standard_normal((5, d))
        K = kernels.nngp_kernel(spec, X).entries
        Xp = X.reshape(5, Nw, d // Nw)
        G = np.einsum("nis,mis->nm", Xp, Xp) / (Nw * (d // Nw))
        assert np.allclose(K, G, atol=1e-12)

    @pytest.mark.parametrize("activation", ["erf", "relu"])
    @pytest.mark.parametrize("Nw", [2, 3])
    @pytest.mark.parametrize("kernel", [kernels.nngp_kernel, kernels.ntk_kernel_2layer])
    def test_cnn_nonlinear_patch_average(self, activation, Nw, kernel):
        # without pooling a CNN kernel is the mean of the FC kernels of its patches
        S = 4
        params = dict(depth=2, activation=activation, weight_var=1.7, readout_var=0.8, chi=1.3, bias_var=0.2)
        spec = NetworkSpec(input_dim=Nw * S, patch_count=Nw, **params)
        X = np.random.default_rng(3).standard_normal((6, Nw * S))
        Xp = X.reshape(6, Nw, S)
        fc = NetworkSpec(input_dim=S, **params)
        mean = sum(kernel(fc, Xp[:, i]).entries for i in range(Nw)) / Nw
        assert np.allclose(kernel(spec, X).entries, mean, rtol=1e-13, atol=1e-14)

    def test_cnn_mc_oracle(self):
        d, Nw = 8, 2
        spec = NetworkSpec(depth=2, input_dim=d, patch_count=Nw, activation="erf")
        X = unit_rows(5, d, seed=8) * math.sqrt(d)
        Kmc = kernels.empirical_kernel_mc(spec, X, samples=300_000, seed=11).entries
        K = kernels.nngp_kernel(spec, X).entries
        assert np.max(np.abs(Kmc - K)) < 6e-3

    def test_input_scale_dim(self):
        d, Nw = 8, 2
        s_patch = NetworkSpec(depth=2, input_dim=d, patch_count=Nw, activation="linear")
        s_dim = NetworkSpec(
            depth=2, input_dim=d, patch_count=Nw, activation="linear", input_scale="dim"
        )
        X = np.random.default_rng(3).standard_normal((4, d))
        Kp = kernels.nngp_kernel(s_patch, X).entries
        Kd = kernels.nngp_kernel(s_dim, X).entries
        assert np.allclose(Kd * Nw, Kp, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(2, 8),
        st.sampled_from(["linear", "erf", "relu"]),
        st.integers(0, 10_000),
    )
    def test_psd_and_symmetry(self, n, d, act, seed):
        spec = NetworkSpec(depth=2, input_dim=d, activation=act)
        X = np.random.default_rng(seed).standard_normal((n, d))
        K = kernels.nngp_kernel(spec, X).entries
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.linalg.eigvalsh(K)[0] > -1e-10 * max(np.trace(K), 1.0)


def full_weight_network(spec, X, rng, samples):
    """Fully connected nets with every weight drawn, readout included.

    Returns the last hidden layer, (samples, n, C), and the outputs, (samples, n).
    """
    n, d = X.shape
    sigma = kernels.ACTIVATIONS[spec.activation].sigma
    h, width_in, div = np.broadcast_to(X, (samples, n, d)), d, spec._input_divisor
    for _ in range(spec.depth - 1):
        W = rng.standard_normal((samples, width_in, spec.channels))
        pre = math.sqrt(spec.weight_var / div) * h @ W
        pre += math.sqrt(spec.bias_var) * rng.standard_normal((samples, 1, spec.channels))
        h, width_in, div = sigma(pre), spec.channels, spec.channels
    a = rng.standard_normal((samples, spec.channels, 1))
    return h, math.sqrt(spec.readout_var / (spec.chi * spec.channels)) * (h @ a)[:, :, 0]


def mc_agree(a, b):
    """True if the means of two sample stacks agree within 5 standard errors per entry."""
    se = np.sqrt((np.var(a, axis=0) + np.var(b, axis=0)) / a.shape[0])
    return bool(np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5.0 * se + 1e-12))


def assert_sampler_matches_reference(spec, X, samples, seed):
    """The package's sampler against the full-weight reference, on independent streams.

    Per sample, the last hidden layer's Gram G = H H^T must have the same
    law (its mean and the mean of its squared entries are compared), and
    the integrated readout's scale * G must have the mean of the drawn
    readout's f f^T.
    """
    h, f = full_weight_network(spec, X, np.random.default_rng([seed, 0]), samples)
    HT = kernels._forward(spec, X[:, None, :], np.random.default_rng([seed, 1]), samples)
    G_ref, G = h @ np.swapaxes(h, 1, 2), np.swapaxes(HT, 1, 2) @ HT
    assert np.all(np.isfinite(G))
    assert mc_agree(G_ref, G)
    assert mc_agree(G_ref**2, G**2)
    scale = spec.readout_var / (spec.chi * spec.channels)
    assert mc_agree(f[:, :, None] * f[:, None, :], scale * G)


def test_patch_columns_layout():
    Xp = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)  # (n, N_w, S)
    cols = kernels.patch_columns(Xp)
    assert cols.shape == (4, 6)
    for m in range(2):
        for i in range(3):
            assert np.array_equal(cols[:, i * 2 + m], Xp[m, i])


class TestMCSampler:
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("activation", ["relu", "erf"])
    @pytest.mark.parametrize("channels", [3, 16])  # below and above the 6 points
    def test_law_matches_full_weight_reference(self, depth, activation, channels):
        spec = NetworkSpec(depth=depth, input_dim=5, activation=activation, channels=channels)
        X = math.sqrt(5) * unit_rows(6, 5, seed=depth + channels)
        assert_sampler_matches_reference(spec, X, 20_000, seed=channels)

    def test_singular_hidden_gram(self):
        # a zero input row zeroes its relu units, so every hidden Gram is singular; d > n
        # and C > n send both hidden layers through the QR factor
        spec = NetworkSpec(depth=3, input_dim=10, activation="relu", channels=12)
        X = math.sqrt(10) * unit_rows(4, 10, seed=1)
        X[2] = 0.0
        assert_sampler_matches_reference(spec, X, 20_000, seed=2)
        K = kernels.empirical_kernel_mc(spec, X, samples=20_000, seed=3).entries
        assert np.all(np.isfinite(K)) and not np.any(K[2])

    @pytest.mark.parametrize(
        "depth, activation, channels",
        [(2, "linear", 1), (2, "erf", 1), (2, "relu", 1), (3, "relu", 64)],
    )
    def test_bias_matches_recursion(self, depth, activation, channels):
        spec = NetworkSpec(
            depth=depth, input_dim=5, activation=activation, channels=channels, bias_var=0.5
        )
        X = math.sqrt(5) * unit_rows(6, 5, seed=12)
        samples = 200_000 if depth == 2 else 20_000
        Kmc = kernels.empirical_kernel_mc(spec, X, samples=samples, seed=13).entries
        K = kernels.nngp_kernel(spec, X).entries
        # |E f f'| <= sqrt(K K') bounds the SE of each product by sqrt(2 / samples) max K
        assert np.max(np.abs(Kmc - K)) < 5.0 * math.sqrt(2.0 / samples) * np.max(np.diag(K))

    @pytest.mark.parametrize("channels", [256, 512])
    def test_memory_bounded_by_block_budget(self, channels):
        n = 6
        spec = NetworkSpec(depth=3, input_dim=5, activation="relu", channels=channels)
        block = kernels.MC_BLOCK_BYTES // (8 * n * channels)
        tracemalloc.start()
        try:
            kernels.empirical_kernel_mc(spec, unit_rows(n, 5, seed=4), samples=2 * block + 1, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * kernels.MC_BLOCK_BYTES


def polar_gauss_expectation(f, g, v1, v2, cov, n=64):
    """E[f(u) g(v)] for zero-mean Gaussian (u, v) by 2-d Gauss quadrature.

    u = a z1 and v = b z1 + c z2 with z standard normal; in polar
    coordinates z = r (cos p, sin p) the density is e^{-t} dt dp / (2 pi)
    with t = r^2 / 2, so t takes Gauss-Laguerre nodes and p Gauss-Legendre
    nodes on each arc between the angles where u or v changes sign.  The
    kinks of relu and its step derivative then fall on arc ends, where
    plain Gauss-Hermite nodes would converge slowly across them.
    """
    a = math.sqrt(v1)
    b = cov / a
    c = math.sqrt(v2 - b * b)
    t, wt = np.polynomial.laguerre.laggauss(n)
    r = np.sqrt(2.0 * t)[:, None]
    v_zero = math.atan2(c, b) + math.pi / 2  # v = 0 at this angle and the opposite one
    ends = sorted(
        {0.0, math.pi / 2, 3 * math.pi / 2, 2 * math.pi}
        | {v_zero % (2 * math.pi), (v_zero + math.pi) % (2 * math.pi)}
    )
    x, wx = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for p0, p1 in zip(ends[:-1], ends[1:]):
        p = 0.5 * (p1 - p0) * x + 0.5 * (p1 + p0)
        z1, z2 = r * np.cos(p), r * np.sin(p)
        total += wt @ (f(a * z1) * g(b * z1 + c * z2)) @ (0.5 * (p1 - p0) * wx)
    return total / (2.0 * math.pi)


class TestActivationTable:
    @pytest.mark.parametrize("name", ["linear", "erf", "relu"])
    @pytest.mark.parametrize(
        "v1, v2, cov",
        [
            (0.7, 1.6, 0.5),  # unequal variances
            (0.4, 2.5, -0.3),  # unequal variances, negative covariance
            (1.3, 1.3, 1.3 * math.exp(-0.8)),  # equal-time variances, decayed covariance
        ],
    )
    def test_expectations_match_quadrature(self, name, v1, v2, cov):
        act = kernels.ACTIVATIONS[name]
        sigma = lambda z: act.sigma(z) + np.zeros_like(z)
        dsigma = lambda z: act.dsigma(z) + np.zeros_like(z)  # linear's is the scalar 1
        assert act.pair(v1, v2, cov) == pytest.approx(
            polar_gauss_expectation(sigma, sigma, v1, v2, cov), abs=1e-12
        )
        assert act.dpair(v1, v2, cov) == pytest.approx(
            polar_gauss_expectation(dsigma, dsigma, v1, v2, cov), abs=1e-12
        )


class TestNTK:
    def test_input_validation(self):
        spec = NetworkSpec(depth=2, input_dim=4, patch_count=2, activation="erf")
        X = np.random.default_rng(9).standard_normal((3, 4))
        X[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            kernels.ntk_kernel_2layer(spec, X)
        with pytest.raises(ValueError, match="input dimension"):
            kernels.ntk_kernel_2layer(spec, np.ones((3, 6)))

    def test_linear_fcn_theta_is_2k(self):
        d = 6
        spec = NetworkSpec(depth=2, input_dim=d, activation="linear")
        X = np.random.default_rng(4).standard_normal((5, d))
        Th = kernels.ntk_kernel_2layer(spec, X).entries
        K = kernels.nngp_kernel(spec, X).entries
        assert np.allclose(Th, 2.0 * K, atol=1e-12)

    def test_norm_d_diagonal_is_2(self):
        d = 9
        spec = NetworkSpec(depth=2, input_dim=d, activation="linear")
        X = math.sqrt(d) * unit_rows(3, d, seed=5)
        Th = kernels.ntk_kernel_2layer(spec, X).entries
        assert np.allclose(np.diag(Th), 2.0, atol=1e-12)

    def test_erf_orthogonal_off_diagonal_zero(self):
        d = 4
        spec = NetworkSpec(depth=2, input_dim=d, activation="erf")
        X = math.sqrt(d) * np.eye(d)[:2]
        Th = kernels.ntk_kernel_2layer(spec, X).entries
        assert Th[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_jacobian_mc_oracle(self):
        # finite-difference Jacobian contraction of a wide sampled network
        d, C = 4, 6000
        spec = NetworkSpec(depth=2, input_dim=d, activation="erf", channels=C)
        X = math.sqrt(d) * unit_rows(3, d, seed=9)
        rng = np.random.default_rng(17)
        W = rng.standard_normal((C, d))
        a = rng.standard_normal(C)
        from scipy.special import erf

        cw = math.sqrt(1.0 / d)
        ca = math.sqrt(1.0 / C)
        u = cw * X @ W.T  # (n, C)
        grad_a = ca * erf(u)  # df/da_c
        dphi = (2.0 / math.sqrt(math.pi)) * np.exp(-(u**2))
        grad_W = ca * cw * np.einsum("c,nc,nd->ncd", a, dphi, X)
        Th_emp = grad_a @ grad_a.T + np.einsum("ncd,mcd->nm", grad_W, grad_W)
        Th = kernels.ntk_kernel_2layer(spec, X).entries
        assert np.max(np.abs(Th_emp - Th)) < 0.1


class TestAdapted:
    def test_reduces_to_nngp(self):
        d = 5
        X = np.random.default_rng(6).standard_normal((6, d))
        spec = NetworkSpec(depth=2, input_dim=d, activation="erf")
        K1 = kernels.nngp_kernel(spec, X).entries
        K2 = kernels.adapted_kernel_erf(np.eye(d) / d, X).entries
        assert np.allclose(K1, K2, atol=1e-12)

    def test_zero_sigma(self):
        X = np.random.default_rng(7).standard_normal((4, 6))
        K = kernels.adapted_kernel_erf(np.zeros((6, 6)), X).entries
        assert np.allclose(K, 0.0, atol=1e-15)

    def test_spiked_sigma_mc_oracle(self):
        # E_{w ~ N(0, Sigma)} [erf(w.x) erf(w.x')] by direct sampling
        S = 10
        rng = np.random.default_rng(8)
        w_star = rng.standard_normal(S)
        w_star /= np.linalg.norm(w_star)
        c_perp, c_star = 1.0 / S, 0.15
        Sigma = c_perp * np.eye(S) + (c_star - c_perp) * np.outer(w_star, w_star)
        X = rng.standard_normal((5, S))
        from scipy.special import erf

        L = np.linalg.cholesky(Sigma + 1e-15 * np.eye(S))
        draws = (L @ rng.standard_normal((S, 1_000_000))).T
        act = erf(draws @ X.T)
        Kmc = act.T @ act / draws.shape[0]
        K = kernels.adapted_kernel_erf(Sigma, X).entries
        assert np.max(np.abs(K - Kmc)) < 4e-3

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError):
            kernels.adapted_kernel_erf(-np.eye(3), np.zeros((2, 3)))


class TestWick:
    def test_fourth_moment_standard(self):
        assert kernels.wick_moment(np.zeros(1), np.eye(1), (0, 0, 0, 0)) == pytest.approx(3.0)

    def test_second_moment_with_mean(self):
        assert kernels.wick_moment(np.array([0.5]), np.array([[2.0]]), (0, 0)) == pytest.approx(
            2.25
        )

    def test_third_moment_with_mean(self):
        # mu^3 + 3 mu sigma^2
        assert kernels.wick_moment(np.array([0.5]), np.array([[2.0]]), (0, 0, 0)) == pytest.approx(
            3.125
        )

    def test_cross_fourth_moment(self):
        # E[(mu0+z0)^2 (mu1+z1)^2] expanded by hand
        mu = np.array([0.3, -0.2])
        Sig = np.array([[2.0, 0.5], [0.5, 1.0]])
        expect = (mu[0] ** 2 + 2.0) * (mu[1] ** 2 + 1.0) + 2 * 0.5**2 + 4 * mu[0] * mu[1] * 0.5
        assert kernels.wick_moment(mu, Sig, (0, 0, 1, 1)) == pytest.approx(expect, rel=1e-12)

    def test_odd_zero_mean(self):
        assert kernels.wick_moment(np.zeros(2), np.eye(2), (0, 0, 1)) == 0.0

    def test_order_cap(self):
        with pytest.raises(ValueError):
            kernels.wick_moment(np.zeros(1), np.eye(1), (0,) * 9)


class TestSpecValidation:
    def test_patch_count_must_divide(self):
        with pytest.raises(ValueError):
            NetworkSpec(depth=2, input_dim=7, patch_count=2)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            NetworkSpec(depth=2, input_dim=4, activation="tanh")

    def test_ntk_requires_depth_2(self):
        spec = NetworkSpec(depth=3, input_dim=4)
        with pytest.raises(ValueError):
            kernels.ntk_kernel_2layer(spec, np.zeros((2, 4)))
