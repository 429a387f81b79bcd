import numpy as np
import pytest

from nnkernels import dynamics, gpr, kernels
from nnkernels.dynamics import TimeGrid


def make_problem(P=6, d=5, seed=0, patch_count=1, activation="linear"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((P, d))
    spec = kernels.NetworkSpec(
        depth=2, input_dim=d, activation=activation, patch_count=patch_count
    )
    y = np.sin(X @ rng.standard_normal(d))
    return spec, X, y


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(1.0, 10)
        assert g.steps == 10 and g.h == pytest.approx(0.1)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2, 0.3]))

    def test_must_be_uniform(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.1, 0.3]))

    def test_must_increase(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, -0.1, -0.2]))

    @pytest.mark.parametrize("t_end", [1.0, 3.7e4])
    @pytest.mark.parametrize("steps", [10_000, 20_000, 50_000])
    def test_long_grids_construct(self, t_end, steps):
        # linspace's rounding grows with t_end; one time moved by 1e-6 h still fails
        g = TimeGrid.uniform(t_end, steps)
        assert g.steps == steps and g.h == pytest.approx(t_end / steps, rel=1e-12)
        t = g.times.copy()
        t[steps // 2] += 1e-6 * g.h
        with pytest.raises(ValueError):
            TimeGrid(t)


class TestNTKFlow:
    def test_matches_scalar_exponential(self):
        Theta = np.array([[2.0]])
        y = np.array([1.0])
        grid = TimeGrid.uniform(1.0, 50)
        traj = dynamics.ntk_flow(Theta, y, np.zeros(1), 0.5, grid)
        expect = 1.0 - np.exp(-0.5 * 2.0 * grid.times)
        assert np.max(np.abs(traj[:, 0] - expect)) < 1e-12

    def test_interpolates_at_long_time(self):
        spec, X, y = make_problem(P=4)
        Theta = dynamics.msrdj_theta0(
            *dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 1), 1.0, 1.0, 1e8, 1.0, 1.0),
            kernels.patch_gram(X, spec),
            1.0,
            1e8,
        )
        grid = TimeGrid.uniform(2000.0, 200)
        traj = dynamics.ntk_flow(Theta, y, np.zeros_like(y), 1.0, grid)
        assert np.max(np.abs(traj[-1] - y)) < 1e-6 * np.max(np.abs(y))

    def test_test_point_trajectory_limits(self):
        spec, X, y = make_problem(P=5)
        K = kernels.ntk_kernel_2layer(spec, np.vstack([X, X[:2] * 0.5])).entries
        Theta_D, theta_star = K[:5, :5], K[5:, :5]
        grid = TimeGrid.uniform(500.0, 400)
        train, test = dynamics.ntk_flow(
            Theta_D, y, np.zeros_like(y), 1.0, grid, theta_star=theta_star
        )
        pred, _ = gpr.ntk_infinite_time(Theta_D, theta_star, y, np.zeros(5), np.zeros(2))
        assert np.max(np.abs(test[0])) < 1e-12
        assert np.max(np.abs(test[-1] - pred)) < 1e-5


class TestPhiKernels:
    def test_linear_equal_time(self):
        spec, X, _ = make_problem()
        grid = TimeGrid.uniform(1.0, 4)
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, 1.0, 0.5, 10.0, 1.0, 1.3)
        Kx = kernels.patch_gram(X, spec)
        assert np.allclose(Phi.lag_values[0], 1.3 * Kx)
        assert np.allclose(dPhi.lag_values[0], 1.0)
        # lag decay e^{-omega_w s}
        omega_w = 1.0 * 0.5 / (1.3 * 10.0)
        assert np.allclose(Phi.lag_values[2], 1.3 * np.exp(-omega_w * 2 * grid.h) * Kx)

    def test_erf_equal_time_matches_nngp_form(self):
        spec, X, _ = make_problem(activation="erf")
        grid = TimeGrid.uniform(1.0, 2)
        Phi, _ = dynamics.phi_kernels(spec, X, grid, 1.0, 0.5, 10.0, 1.0, 1.0)
        Kx = kernels.patch_gram(X, spec)
        h = np.diag(Kx)
        expect = (2.0 / np.pi) * np.arcsin(
            2.0 * Kx / np.sqrt(np.outer(1.0 + 2.0 * h, 1.0 + 2.0 * h))
        )
        assert np.max(np.abs(Phi.lag_values[0] - expect)) < 1e-12

    def test_two_time_symmetry(self):
        spec, X, _ = make_problem()
        grid = TimeGrid.uniform(1.0, 5)
        Phi, _ = dynamics.phi_kernels(spec, X, grid, 1.0, 0.5, 10.0, 1.0, 1.0)
        assert np.array_equal(Phi.at(3, 1), Phi.at(1, 3))

    def test_nonlinear_cnn_rejected(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 8))
        spec = kernels.NetworkSpec(depth=2, input_dim=8, activation="erf", patch_count=2)
        with pytest.raises(ValueError):
            dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 2), 1.0, 0.5, 10.0, 1.0, 1.0)

    def test_relu_rejected(self):
        spec, X, _ = make_problem(activation="relu")
        with pytest.raises(ValueError):
            dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 2), 1.0, 0.5, 10.0, 1.0, 1.0)

    def test_mc_oracle_linear_cnn(self):
        # per-patch activation Grams averaged over patches, as in the closed
        # form; the MC error at 20k paths is about 1% of the largest entry
        spec, X, _ = make_problem(P=5, d=8, patch_count=2)
        grid = TimeGrid.uniform(2.0, 4)
        Phi, _ = dynamics.phi_kernels(spec, X, grid, 1.0, 0.5, 5.0, 1.0, 1.0)
        Phi_mc = dynamics.phi_kernels_mc(spec, X, grid, 1.0, 0.5, 5.0, 1.0, 20_000, 3)
        scale = np.max(np.abs(Phi.lag_values))
        assert np.max(np.abs(Phi_mc.lag_values - Phi.lag_values)) < 0.05 * scale

    def test_mc_oracle_erf(self):
        spec, X, _ = make_problem(P=4, activation="erf")
        grid = TimeGrid.uniform(2.0, 4)
        Phi, _ = dynamics.phi_kernels(spec, X, grid, 1.0, 0.5, 5.0, 1.0, 1.0)
        Phi_mc = dynamics.phi_kernels_mc(spec, X, grid, 1.0, 0.5, 5.0, 1.0, 200_000, 3)
        assert np.max(np.abs(Phi_mc.lag_values - Phi.lag_values)) < 3e-3

    def test_mc_deterministic(self):
        spec, X, _ = make_problem(P=3)
        grid = TimeGrid.uniform(1.0, 2)
        a = dynamics.phi_kernels_mc(spec, X, grid, 1.0, 0.5, 5.0, 1.0, 2000, 7)
        b = dynamics.phi_kernels_mc(spec, X, grid, 1.0, 0.5, 5.0, 1.0, 2000, 7)
        assert np.array_equal(a.lag_values, b.lag_values)


class TestMSRDJ:
    def setup_solution(self, chi=1e7, kappa2=0.5, steps=800, t_end=None, eta=0.2):
        spec, X, y = make_problem(P=6)
        sigma2 = 1.0
        t_end = t_end or 60.0 * sigma2 / (eta * kappa2)
        grid = TimeGrid.uniform(t_end, steps)
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, sigma2, sigma2)
        Kx = kernels.patch_gram(X, spec)
        f = dynamics.msrdj_mean_predictor(
            Phi, dPhi, Kx, y, grid, eta, kappa2, chi, sigma2, sigma2
        )
        return spec, X, y, grid, Phi, dPhi, Kx, f, sigma2, eta

    def test_short_time_matches_ntk(self):
        # solve on a short grid that resolves the lazy window
        spec, X, y = make_problem(P=6)
        # the memory decay contributes a relative deviation ~ omega_a * t / 2
        # inside the window, so a small ridge is needed for 1e-3 agreement
        chi, kappa2, sigma2, eta = 1e7, 0.01, 1.0, 0.2
        probe = dynamics.phi_kernels(
            spec, X, TimeGrid.uniform(1.0, 1), eta, kappa2, chi, sigma2, sigma2
        )
        Kx = kernels.patch_gram(X, spec)
        Theta0 = dynamics.msrdj_theta0(*probe, Kx, sigma2, chi)
        t_end = 0.1 / (eta * np.linalg.norm(Theta0, 2))
        grid = TimeGrid.uniform(t_end, 1200)
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, sigma2, sigma2)
        f = dynamics.msrdj_mean_predictor(
            Phi, dPhi, Kx, y, grid, eta, kappa2, chi, sigma2, sigma2
        )
        report = dynamics.limit_checks(
            f, grid, Theta0, sigma2 * Phi.lag_values[0], y, kappa2, eta
        )
        assert report.ntk_max_rel_dev < 1e-3

    def test_late_time_matches_gpr(self):
        spec, X, y, grid, Phi, dPhi, Kx, f, sigma2, eta = self.setup_solution()
        Theta0 = dynamics.msrdj_theta0(Phi, dPhi, Kx, sigma2, 1e7)
        report = dynamics.limit_checks(f, grid, Theta0, sigma2 * Phi.lag_values[0], y, 0.5, eta)
        assert report.gpr_final_rel_dev < 1e-3
        assert report.gpr_dev_monotone_after_transient

    def test_ntk_window_without_a_step_reports_nan(self):
        # the window ends before the first step after t = 0, where both sides are 0 up to rounding
        spec, X, y = make_problem(P=6)
        chi, kappa2, sigma2, eta = 1e7, 0.01, 1.0, 0.2
        grid = TimeGrid.uniform(50.0, 20)
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, sigma2, sigma2)
        Kx = kernels.patch_gram(X, spec)
        f = dynamics.msrdj_mean_predictor(Phi, dPhi, Kx, y, grid, eta, kappa2, chi, sigma2, sigma2)
        Theta0 = dynamics.msrdj_theta0(Phi, dPhi, Kx, sigma2, chi)
        report = dynamics.limit_checks(f, grid, Theta0, sigma2 * Phi.lag_values[0], y, kappa2, eta)
        assert report.ntk_window_end < grid.h
        assert np.isnan(report.ntk_max_rel_dev)

    def test_zero_noise_limit_equals_ntk_flow(self):
        # kappa2 = 0: no OU decay, memory kernel is constant, dynamics
        # reduce to gradient flow in Theta0
        spec, X, y = make_problem(P=5)
        grid = TimeGrid.uniform(5.0, 600)
        chi, sigma2, eta = 1e6, 1.0, 0.3
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, 0.0, chi, sigma2, sigma2)
        Kx = kernels.patch_gram(X, spec)
        f = dynamics.msrdj_mean_predictor(Phi, dPhi, Kx, y, grid, eta, 0.0, chi, sigma2, sigma2)
        Theta0 = dynamics.msrdj_theta0(Phi, dPhi, Kx, sigma2, chi)
        ntk = dynamics.ntk_flow(Theta0, y, np.zeros_like(y), eta, grid)
        assert np.max(np.abs(f - ntk)) < 1e-5 * np.max(np.abs(y))

    def test_step_doubling(self):
        spec, X, y = make_problem(P=4)
        chi, kappa2, sigma2, eta = 1e6, 0.5, 1.0, 0.2

        def solve(refine):
            grid = TimeGrid.uniform(20.0, 200 * refine)
            Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, sigma2, sigma2)
            Kx = kernels.patch_gram(X, spec)
            return dynamics.msrdj_mean_predictor(
                Phi, dPhi, Kx, y, grid, eta, kappa2, chi, sigma2, sigma2
            )

        rel = dynamics.step_doubling_check(solve, 1e-3)
        assert rel < 1e-3

    def test_step_doubling_detects_coarse_grid(self):
        spec, X, y = make_problem(P=4)
        chi, kappa2, sigma2, eta = 1e6, 0.5, 1.0, 5.0

        def solve(refine):
            grid = TimeGrid.uniform(50.0, 6 * refine)
            Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, sigma2, sigma2)
            Kx = kernels.patch_gram(X, spec)
            return dynamics.msrdj_mean_predictor(
                Phi, dPhi, Kx, y, grid, eta, kappa2, chi, sigma2, sigma2
            )

        with pytest.raises(RuntimeError):
            dynamics.step_doubling_check(solve, 1e-6)

    def test_starts_at_zero(self):
        *_, f, _, _ = self.setup_solution(steps=100, t_end=1.0)
        assert np.allclose(f[0], 0.0)


def reference_lag_values(spec, X, grid, eta, kappa2, chi, sigma_w2):
    """Phi and Phi' by lag through the activation table, one pair expectation per lag."""
    act = kernels.ACTIVATIONS[spec.activation]
    Kx = kernels.patch_gram(X, spec)
    h = sigma_w2 * np.diag(Kx)
    v1, v2 = h[:, None], h[None, :]
    decays = np.exp(-(eta * kappa2 / (sigma_w2 * chi)) * grid.times)
    Phi = np.array([act.pair(v1, v2, sigma_w2 * dec * Kx) for dec in decays])
    dPhi = np.array([act.dpair(v1, v2, sigma_w2 * dec * Kx) for dec in decays])
    return Phi, dPhi


class TestExponentialTerms:
    # (activation, input scale, whether phi_kernels attaches terms): at 3x
    # unit-variance inputs the erf series needs more than steps/2 terms
    CASES = [("linear", 1.0, True), ("erf", 1.0, True), ("erf", 0.3, True), ("erf", 3.0, False)]
    ARGS = (0.2, 0.5, 2000.0, 1.0, 1.0)  # eta, kappa2, chi, sigma_a2, sigma_w2

    def problem(self, activation, scale, P=20, steps=600):
        spec, X, y = make_problem(P=P, activation=activation)
        eta, kappa2, chi, sa2, sw2 = self.ARGS
        grid = TimeGrid.uniform(50.0 * sa2 / (eta * kappa2), steps)
        return spec, scale * X, y, grid

    @pytest.mark.parametrize("activation, scale, has_terms", CASES)
    def test_term_march_matches_lag_march(self, activation, scale, has_terms):
        spec, X, y, grid = self.problem(activation, scale)
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, *self.ARGS)
        assert (Phi.terms is not None) == has_terms and (dPhi.terms is not None) == has_terms
        Kx = kernels.patch_gram(X, spec)
        f = dynamics.msrdj_mean_predictor(Phi, dPhi, Kx, y, grid, *self.ARGS)
        lag_only = dynamics.TwoTimeKernel(Phi.lag_values), dynamics.TwoTimeKernel(dPhi.lag_values)
        ref = dynamics.msrdj_mean_predictor(*lag_only, Kx, y, grid, *self.ARGS)
        assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("activation, scale, has_terms", CASES[:3])
    def test_terms_reproduce_lag_values(self, activation, scale, has_terms):
        spec, X, _, grid = self.problem(activation, scale)
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, *self.ARGS)
        for kernel, tail in ((Phi, 2.0 / np.pi), (dPhi, 4.0 / np.pi)):
            summed = np.einsum("lk,kab->lab", np.exp(-np.outer(grid.times, kernel.rates)), kernel.terms)
            rounding = 16.0 * np.finfo(float).eps * np.max(np.abs(kernel.lag_values))
            assert np.max(np.abs(summed - kernel.lag_values)) <= tail * dynamics.SERIES_TAIL_TOL + rounding

    @pytest.mark.parametrize("activation, scale, has_terms", CASES)
    def test_lag_values_bitwise_unchanged(self, activation, scale, has_terms):
        spec, X, _, grid = self.problem(activation, scale, steps=40)
        eta, kappa2, chi, _, sw2 = self.ARGS
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, *self.ARGS)
        ref_Phi, ref_dPhi = reference_lag_values(spec, X, grid, eta, kappa2, chi, sw2)
        assert np.array_equal(Phi.lag_values, ref_Phi) and np.array_equal(dPhi.lag_values, ref_dPhi)

    def test_terms_only_when_cheaper(self):
        # K <= steps/2: the linear net's one term needs 2 steps, and the
        # unit-variance erf series (about 100 terms) is left off short grids
        spec, X, _, _ = self.problem("linear", 1.0)
        assert dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 1), *self.ARGS)[0].terms is None
        assert dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 2), *self.ARGS)[0].terms.shape[0] == 1
        spec, X, _, _ = self.problem("erf", 1.0)
        K = dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 600), *self.ARGS)[0].terms.shape[0]
        assert dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 2 * K), *self.ARGS)[0].terms.shape[0] == K
        assert dynamics.phi_kernels(spec, X, TimeGrid.uniform(1.0, 2 * K - 2), *self.ARGS)[0].terms is None
