import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnkernels import empirical, gpr, kernels


def setup_problem(d=6, P=12, n_test=7, seed=0, act="erf"):
    spec = kernels.NetworkSpec(depth=2, input_dim=d, activation=act)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((P, d)) / np.sqrt(d)
    Xs = rng.standard_normal((n_test, d)) / np.sqrt(d)
    both = np.vstack([X, Xs])
    K = kernels.nngp_kernel(spec, both).entries
    y = X @ rng.standard_normal(d)
    return K[:P, :P], K[P:, :P], np.diag(K)[P:], y


class TestGPR:
    def test_prior_at_p_zero(self):
        K_D, k_star, K_diag, _ = setup_problem()
        post = gpr.gpr_predict(np.zeros((0, 0)), np.zeros((7, 0)), K_diag, np.zeros(0), 0.1)
        assert np.allclose(post.mean, 0.0)
        assert np.allclose(post.variance, K_diag)

    def test_interpolation_ridgeless(self):
        K_D, k_star, K_diag, y = setup_problem()
        post = gpr.gpr_predict(K_D, K_D, np.diag(K_D), y, 0.0)
        assert np.max(np.abs(post.mean - y)) < 1e-8
        assert np.max(np.abs(post.train_residuals)) < 1e-8

    def test_variance_nonnegative_and_shrinks(self):
        K_D, k_star, K_diag, y = setup_problem()
        post = gpr.gpr_predict(K_D, k_star, K_diag, y, 0.05)
        assert np.all(post.variance >= 0.0)
        assert np.all(post.variance <= K_diag + 1e-12)

    def test_linearity_in_target(self):
        K_D, k_star, K_diag, y = setup_problem()
        rng = np.random.default_rng(3)
        y2 = rng.standard_normal(y.shape)
        a, b = 0.7, -1.3
        m1 = gpr.gpr_predict(K_D, k_star, K_diag, y, 0.1).mean
        m2 = gpr.gpr_predict(K_D, k_star, K_diag, y2, 0.1).mean
        m3 = gpr.gpr_predict(K_D, k_star, K_diag, a * y + b * y2, 0.1).mean
        assert np.max(np.abs(m3 - (a * m1 + b * m2))) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(1e-4, 10.0))
    def test_linearity_property(self, seed, kappa2):
        K_D, k_star, K_diag, y = setup_problem(seed=seed % 17)
        c = 1.0 + (seed % 7)
        m1 = gpr.gpr_predict(K_D, k_star, K_diag, y, kappa2).mean
        m2 = gpr.gpr_predict(K_D, k_star, K_diag, c * y, kappa2).mean
        assert np.max(np.abs(m2 - c * m1)) <= 1e-10 * max(1.0, c * np.max(np.abs(m1)))

    def test_rank_deficient_ridgeless_pseudo_inverse(self):
        # linear kernel with P > d is rank deficient; pseudo-inverse path
        d, P = 4, 10
        spec = kernels.NetworkSpec(depth=2, input_dim=d, activation="linear")
        rng = np.random.default_rng(5)
        X = rng.standard_normal((P, d))
        K = kernels.nngp_kernel(spec, X).entries
        w = rng.standard_normal(d)
        y = X @ w / np.sqrt(d)  # in the kernel's range
        post = gpr.gpr_predict(K, K, np.diag(K), y, 0.0)
        assert post.rank == d
        assert np.max(np.abs(post.mean - y)) < 1e-8

    def test_rank_deficient_ridgeless_matches_least_squares(self):
        # K = X X^T of rank d: the pseudo-inverse posterior is the least-squares
        # fit, X_t (X^T X)^{-1} X^T y, with zero variance at every test point
        rng = np.random.default_rng(3)
        X, X_test, y = rng.standard_normal((20, 3)), rng.standard_normal((7, 3)), rng.standard_normal(20)
        K_star_diag = np.sum(X_test**2, axis=1)
        post = gpr.gpr_predict(X @ X.T, X_test @ X.T, K_star_diag, y, 0.0)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        scale = np.max(K_star_diag)
        assert post.rank == 3
        assert np.max(np.abs(post.mean - X_test @ beta)) < 1e-14 * scale
        assert np.max(post.variance) < 1e-14 * scale
        assert np.max(np.abs(post.train_residuals - (y - X @ beta))) < 1e-14 * scale

    def test_posterior_mean_matches_direct_solve(self):
        K_D, k_star, K_diag, y = setup_problem(seed=2)
        post = gpr.gpr_predict(K_D, k_star, K_diag, y, 0.3)
        direct = k_star @ np.linalg.solve(K_D + 0.3 * np.eye(len(y)), y)
        assert np.allclose(post.mean, direct, atol=1e-10)

    def test_negative_ridge_rejected(self):
        K_D, k_star, K_diag, y = setup_problem()
        with pytest.raises(ValueError):
            gpr.gpr_predict(K_D, k_star, K_diag, y, -0.1)


class TestNTKInfiniteTime:
    def test_zero_init_is_kernel_regression(self):
        K_D, k_star, K_diag, y = setup_problem(act="linear", P=5)
        pred, I0 = gpr.ntk_infinite_time(K_D, k_star, y, np.zeros_like(y), np.zeros(7))
        direct = k_star @ np.linalg.solve(K_D, y)
        assert np.allclose(pred, direct, atol=1e-8)
        assert np.allclose(I0, 0.0, atol=1e-10)

    def test_init_transparency(self):
        # when f0 already fits the data, training changes nothing
        K_D, k_star, K_diag, y = setup_problem(P=5)
        f0_test = np.random.default_rng(4).standard_normal(7)
        pred, I0 = gpr.ntk_infinite_time(K_D, k_star, y, y, f0_test)
        assert np.allclose(pred, f0_test, atol=1e-8)

    def test_init_average_recovers_mean(self):
        K_D, k_star, K_diag, y = setup_problem(P=5)
        rng = np.random.default_rng(6)
        preds = []
        for _ in range(400):
            f0 = rng.multivariate_normal(np.zeros(len(y)), K_D)
            f0_t = rng.standard_normal(7) * 0.1
            pred, _ = gpr.ntk_infinite_time(K_D, k_star, y, f0, f0_t)
            preds.append(pred)
        mean_pred = np.mean(preds, axis=0)
        base, _ = gpr.ntk_infinite_time(K_D, k_star, y, np.zeros_like(y), np.zeros(7))
        assert np.max(np.abs(mean_pred - base)) < 0.05


class TestLossDecompose:
    def test_bias_variance_split(self):
        F = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([2.0, 2.0])
        w = np.array([0.5, 0.5])
        dec = gpr.loss_decompose(F, y, w)
        assert dec.bias == pytest.approx(0.5)  # mean = (2,3); (0^2+1^2)/2
        assert dec.variance == pytest.approx(1.0)  # var = (1,1)
        assert dec.total == pytest.approx(1.5)

    def test_single_draw_rejected(self):
        with pytest.raises(ValueError):
            gpr.loss_decompose(np.ones((1, 3)), np.ones(3), np.full(3, 1 / 3))
