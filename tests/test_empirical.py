import hashlib
import math

import numpy as np
import pytest
from scipy.special import erf

from nnkernels import curves, empirical, gpr, kernels
from nnkernels.empirical import TrainingConfig
from nnkernels.rng import stream

ACTIVATIONS = {
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
    "erf": (erf, lambda z: (2.0 / math.sqrt(math.pi)) * np.exp(-(z**2))),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
}


def einsum_reference(spec, X, y, X_test, cfg):
    """Per-seed test means and loss traces from plain einsum steps, one chain at a time.

    Each chain's stream, ``stream(seed, "langevin")`` as in the program,
    gives the input weights (C, S), the readout (N_w, C), then per step
    the input-weight noise (C, S) and the readout noise (N_w, C).
    """
    sigma, dsigma = ACTIVATIONS[spec.activation]
    Nw, S, C = spec.patch_count, spec.patch_size, spec.channels
    c_in = math.sqrt(spec.weight_var / spec._input_divisor)
    c_out = math.sqrt(spec.readout_var / (spec.chi * Nw * C))
    T_eff = cfg.temperature / spec.chi
    eta = cfg.step_size
    noise_sd = math.sqrt(2.0 * T_eff * eta)
    Xp = X.reshape(len(X), Nw, S)
    Xp_test = X_test.reshape(len(X_test), Nw, S)
    means, traces = [], []
    for seed in cfg.seeds:
        rng = stream(seed, "langevin")
        W = rng.standard_normal((C, S))
        a = rng.standard_normal((Nw, C))
        f_sum, trace = 0.0, []
        for step in range(cfg.steps):
            u = c_in * np.einsum("cs,nis->cin", W, Xp)
            r = c_out * np.einsum("ic,cin->n", a, sigma(u)) - y
            grad_a = c_out * np.einsum("n,cin->ic", r, sigma(u))
            ra = np.einsum("n,ic->cin", r, a) * dsigma(u)
            grad_W = c_out * c_in * np.einsum("cin,nis->cs", ra, Xp)
            W = W - eta * (grad_W + T_eff * W) + noise_sd * rng.standard_normal((C, S))
            a = a - eta * (grad_a + T_eff * a) + noise_sd * rng.standard_normal((Nw, C))
            if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
                u_test = c_in * np.einsum("cs,nis->cin", W, Xp_test)
                f_sum = f_sum + c_out * np.einsum("ic,cin->n", a, sigma(u_test))
                trace.append(r @ r)
        means.append(f_sum / len(trace))
        traces.append(trace)
    return np.array(means), np.array(traces)


class TestSynthetic:
    def test_deterministic(self):
        a = empirical.make_synthetic("gaussian_iid", 5, 40, 3)
        b = empirical.make_synthetic("gaussian_iid", 5, 40, 3)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_points(self):
        a = empirical.make_synthetic("gaussian_iid", 5, 40, 3)
        b = empirical.make_synthetic("gaussian_iid", 5, 40, 4)
        assert not np.array_equal(a.points, b.points)

    def test_hypersphere_unit_norm(self):
        m = empirical.make_synthetic("hypersphere_uniform", 7, 200, 0)
        assert np.max(np.abs(np.linalg.norm(m.points, axis=1) - 1.0)) < 1e-12

    def test_gaussian_mean_square_norm(self):
        d, n = 12, 4000
        m = empirical.make_synthetic("gaussian_iid", d, n, 1)
        mean_sq = float(np.mean(np.sum(m.points**2, axis=1)))
        assert abs(mean_sq - 1.0) < 5.0 / np.sqrt(n * d)

    def test_scale(self):
        base = empirical.make_synthetic("gaussian_iid", 4, 10, 2)
        scaled = empirical.make_synthetic("gaussian_iid", 4, 10, 2, scale=2.0)
        assert np.allclose(scaled.points, 2.0 * base.points)

    def test_uniform_weights(self):
        m = empirical.make_synthetic("gaussian_iid", 4, 10, 2)
        assert np.allclose(m.weights, 0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            empirical.make_synthetic("bad", 4, 10, 2)

    def test_points_bitwise_stable(self):
        # points and weights of these draws, hashed before the draws moved to rng.stream
        h = hashlib.sha256()
        for kind, d, n, seed, scale in [
            ("gaussian_iid", 5, 40, 3, 1.0),
            ("hypersphere_uniform", 7, 33, 2**64 - 1, 2.0),
            ("gaussian_iid", 10, 70, 11, np.sqrt(10)),
        ]:
            m = empirical.make_synthetic(kind, d, n, seed, scale=scale)
            h.update(m.points.tobytes())
            h.update(m.weights.tobytes())
        assert h.hexdigest() == "7956217a934d75d02c02e7979a287344c7d9ff69283d7a06f5c9326d9bbe6e87"


class TestTarget:
    def test_linear(self):
        X = np.array([[1.0, 2.0], [0.0, -1.0]])
        w = np.array([3.0, 1.0])
        assert np.allclose(empirical.make_target("single_index_linear", X, w), [5.0, -1.0])

    def test_cubic_frozen(self):
        # z = 1: y = 1 + c (1 - 3) = 1 - 2c = 0.8 at c = 0.1
        X = np.array([[1.0, 0.0]])
        w = np.array([1.0, 0.0])
        assert empirical.make_target("cubic_single_index", X, w)[0] == pytest.approx(0.8)

    def test_patch_linear(self):
        X = np.arange(8.0).reshape(2, 4)
        w = np.array([1.0, 1.0])
        a = np.array([1.0, -1.0])
        out = empirical.make_target("patch_linear", X, w, a_star=a, patch_count=2)
        assert np.allclose(out, [(0 + 1) - (2 + 3), (4 + 5) - (6 + 7)])

    def test_patch_needs_a_star(self):
        with pytest.raises(ValueError):
            empirical.make_target("patch_linear", np.ones((2, 4)), np.ones(2), patch_count=2)


class TestLearnability:
    def test_perfect(self):
        y = np.array([1.0, -2.0])
        w = np.array([0.5, 0.5])
        assert empirical.learnability(y, y, w) == pytest.approx(1.0)

    def test_zero_predictor(self):
        y = np.array([1.0, -2.0])
        assert empirical.learnability(np.zeros(2), y, np.full(2, 0.5)) == 0.0

    def test_scaled(self):
        y = np.array([1.0, 3.0])
        assert empirical.learnability(0.25 * y, y, np.full(2, 0.5)) == pytest.approx(0.25)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            empirical.learnability(np.ones(2), np.zeros(2), np.full(2, 0.5))


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(step_size=0.1, temperature=0.1, steps=10, burn_in=10)
        with pytest.raises(ValueError):
            TrainingConfig(step_size=0.1, temperature=0.1, steps=10, burn_in=2, thin=0)
        with pytest.raises(ValueError):
            TrainingConfig(step_size=-0.1, temperature=0.1, steps=10, burn_in=2)

    def test_duplicate_seeds_rejected(self):
        # two chains with one seed are one chain counted twice in the between-chain spread
        with pytest.raises(ValueError):
            TrainingConfig(step_size=0.1, temperature=0.1, steps=10, burn_in=2, seeds=(3, 1, 3))


class TestLangevin:
    def small_problem(self, C=16, P=8, d=6, seed=0):
        spec = kernels.NetworkSpec(depth=2, input_dim=d, activation="linear", channels=C)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((P, d))
        w = rng.standard_normal(d) / np.sqrt(d)
        y = X @ w
        X_test = rng.standard_normal((5, d))
        return spec, X, y, X_test

    def test_deterministic(self):
        spec, X, y, X_test = self.small_problem()
        cfg = TrainingConfig(
            step_size=empirical.suggest_step_size(spec, X),
            temperature=0.05,
            steps=200,
            burn_in=50,
            seeds=(1, 2),
        )
        a = empirical.langevin_train(spec, X, y, X_test, cfg)
        b = empirical.langevin_train(spec, X, y, X_test, cfg)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_seed_order_invariance(self):
        spec, X, y, X_test = self.small_problem()
        eta = empirical.suggest_step_size(spec, X)
        f = lambda seeds: empirical.langevin_train(
            spec,
            X,
            y,
            X_test,
            TrainingConfig(step_size=eta, temperature=0.05, steps=150, burn_in=50, seeds=seeds),
        )
        assert np.array_equal(f((3, 1, 2)).mean, f((1, 2, 3)).mean)

    def test_divergence_detected(self):
        spec, X, y, X_test = self.small_problem()
        cfg = TrainingConfig(step_size=50.0, temperature=0.05, steps=200, burn_in=50)
        with pytest.raises(RuntimeError, match="divergence"):
            empirical.langevin_train(spec, X, y, X_test, cfg)

    def test_equilibrium_matches_gpr(self):
        # small-scale version of the GPR <-> Langevin equivalence
        spec, X, y, X_test = self.small_problem(C=64, P=10, d=6)
        T = 0.05
        eta = empirical.suggest_step_size(spec, X)
        cfg = TrainingConfig(
            step_size=eta,
            temperature=T,
            steps=4000,
            burn_in=1000,
            seeds=tuple(range(24)),
        )
        stats = empirical.langevin_train(spec, X, y, X_test, cfg)
        both = np.vstack([X, X_test])
        K = kernels.nngp_kernel(spec, both).entries
        P = len(y)
        post = gpr.gpr_predict(K[:P, :P], K[P:, :P], np.diag(K)[P:], y, T)
        rel = np.linalg.norm(stats.mean - post.mean) / np.linalg.norm(post.mean)
        assert rel < 0.25
        # split-half drift small on the scale of the predictor
        assert stats.split_half_gap < 0.2 * np.max(np.abs(post.mean))

    @pytest.mark.parametrize("activation", ["linear", "erf", "relu"])
    @pytest.mark.parametrize("patch_count", [1, 3])
    @pytest.mark.parametrize("temperature", [0.0, 0.05])
    def test_matches_einsum_reference(self, activation, patch_count, temperature):
        d = 6
        spec = kernels.NetworkSpec(
            depth=2, input_dim=d, patch_count=patch_count, activation=activation, channels=8
        )
        rng = np.random.default_rng(4)
        X = rng.standard_normal((7, d))
        y = X @ rng.standard_normal(d) / np.sqrt(d)
        X_test = rng.standard_normal((3, d))
        cfg = TrainingConfig(
            step_size=empirical.suggest_step_size(spec, X, safety=0.3),
            temperature=temperature,
            steps=40,
            burn_in=10,
            thin=3,
            seeds=(5, 2, 9),
        )
        stats = empirical.langevin_train(spec, X, y, X_test, cfg)
        means, traces = einsum_reference(spec, X, y, X_test, cfg)
        assert np.allclose(stats.per_seed_means, means, rtol=1e-12, atol=0.0)
        assert np.allclose(stats.loss_trace, traces, rtol=1e-12, atol=0.0)

    def test_equilibrated_flag(self):
        spec, X, y, X_test = self.small_problem()
        eta = empirical.suggest_step_size(spec, X)

        def equilibrated(target, step_size=eta, temperature=0.05, seeds=tuple(range(8)), **kw):
            cfg = TrainingConfig(
                step_size=step_size, temperature=temperature, thin=5, seeds=seeds, **kw
            )
            return empirical.langevin_train(spec, X, target, X_test, cfg).equilibrated

        # mixed: the drift between halves is within the between-chain error
        assert equilibrated(y, steps=2000, burn_in=500)
        # one chain gives no between-chain error to compare against
        assert not equilibrated(y, steps=2000, burn_in=500, seeds=(0,))
        # unmixed: no burn-in, a small step and a large target, so every
        # chain's output is still moving from the prior towards the data
        assert not equilibrated(
            5.0 * y, step_size=0.2 * eta, temperature=0.01, steps=100, burn_in=0
        )

    def test_depth_guard(self):
        spec = kernels.NetworkSpec(depth=3, input_dim=4, activation="erf")
        cfg = TrainingConfig(step_size=0.01, temperature=0.1, steps=10, burn_in=1)
        with pytest.raises(ValueError):
            empirical.langevin_train(spec, np.ones((2, 4)), np.ones(2), np.ones((1, 4)), cfg)

    def test_bias_rejected(self):
        # the chains carry no bias parameters, so a biased spec would sample another network
        spec = kernels.NetworkSpec(depth=2, input_dim=4, activation="erf", bias_var=0.5)
        cfg = TrainingConfig(step_size=0.01, temperature=0.1, steps=10, burn_in=1)
        with pytest.raises(ValueError, match="bias_var"):
            empirical.langevin_train(spec, np.ones((2, 4)), np.ones(2), np.ones((1, 4)), cfg)

    @pytest.mark.parametrize("where", ["train", "test"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_inputs_rejected(self, where, bad):
        spec, X, y, X_test = self.small_problem()
        (X if where == "train" else X_test)[1, 2] = bad
        cfg = TrainingConfig(step_size=0.01, temperature=0.05, steps=20, burn_in=5)
        with pytest.raises(ValueError, match="inputs must be finite"):
            empirical.langevin_train(spec, X, y, X_test, cfg)

    def test_suggest_step_size_scales(self):
        spec, X, y, _ = self.small_problem()
        assert empirical.suggest_step_size(spec, X, safety=0.1) == pytest.approx(
            2.0 * empirical.suggest_step_size(spec, X, safety=0.05)
        )


class TestDatasetMC:
    def test_deterministic(self):
        lam = np.full(20, 0.05)
        y = np.full(20, 1 / np.sqrt(20))
        a = empirical.dataset_averaged_gpr_mc(lam, y, 10, 0.5, draws=50, seed=9)
        b = empirical.dataset_averaged_gpr_mc(lam, y, 10, 0.5, draws=50, seed=9)
        assert np.array_equal(a.mean_coefficients, b.mean_coefficients)
        assert a.total == b.total

    def test_min_draws(self):
        with pytest.raises(ValueError):
            empirical.dataset_averaged_gpr_mc(np.ones(3), np.ones(3), 5, 0.1, draws=1, seed=0)

    def test_matches_theory_flat(self):
        M, P, kappa2 = 100, 50, 1.0
        lam = np.full(M, 1.0 / M)
        y = np.full(M, 1.0 / np.sqrt(M))
        mc = empirical.dataset_averaged_gpr_mc(lam, y, P, kappa2, draws=4000, seed=5)
        pred = curves.learning_curve(lam, y, P, kappa2)
        assert abs(pred.total - mc.total) < 0.05 * mc.total

    def test_error_decreases_with_draws(self):
        # MC noise on the mean coefficients shrinks ~ 1/sqrt(draws)
        lam = np.full(30, 1.0 / 30)
        y = np.full(30, 1.0 / np.sqrt(30))
        pred = curves.learning_curve(lam, y, 15, 0.5)
        errs = []
        for draws in (200, 3200):
            mc = empirical.dataset_averaged_gpr_mc(lam, y, 15, 0.5, draws=draws, seed=11)
            errs.append(np.linalg.norm(mc.mean_coefficients - pred.mean_mode))
        # expect ~ 4x reduction; allow a factor-3 band around it
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] > 4.0 / 3.0

    def test_total_composition(self):
        lam = np.full(10, 0.1)
        y = np.full(10, 1 / np.sqrt(10))
        mc = empirical.dataset_averaged_gpr_mc(lam, y, 5, 0.3, draws=100, seed=2)
        assert mc.total == pytest.approx(mc.per_draw_loss_mean + mc.type_i_variance)
        assert mc.per_draw_loss_mean >= mc.bias - 1e-12
