import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf as sp_erf

from nnkernels import curves, feature, spectral


def aligned_target(lam):
    y = np.sqrt(lam)
    return y / np.linalg.norm(y)


class TestKernelScaling:
    def test_gp_limit(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 500)
        y = aligned_target(lam)
        sol = feature.kernel_scaling_solve(lam, y, 64, 0.1, 1e12)
        assert abs(sol.Q - 1.0) < 1e-6
        gp = curves.learning_curve(lam, y, 64, 0.1)
        assert np.max(np.abs(sol.learnability - gp.learnability)) < 1e-6

    def test_consistency_residual(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 500)
        y = aligned_target(lam)
        sol = feature.kernel_scaling_solve(lam, y, 64, 0.1, 50.0)
        assert sol.converged and sol.residual < 1e-8
        # verify the converged C_MF satisfies the stated equation directly
        rhs, _, _, _ = feature._scaling_rhs(lam, y, 64, 0.1, sol.Q, 50.0, 0.0)
        assert abs(sol.C_MF / (1.0 + sol.C_MF / 50.0) - rhs) < 1e-7 * max(abs(rhs), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.3, 2.5),
        st.integers(4, 400),
        st.floats(0.0, 2.0),
        st.floats(1.0, 1e4),
    )
    def test_consistency_property(self, alpha, P, kappa2, N):
        lam = spectral.powerlaw_spectrum(alpha, 1.0, 500)
        y = aligned_target(lam)
        sol = feature.kernel_scaling_solve(lam, y, P, kappa2, N)
        rhs, _, _, _ = feature._scaling_rhs(lam, y, P, kappa2, sol.Q, N, 0.0)
        assert sol.converged
        assert sol.Q == pytest.approx(1.0 + sol.C_MF / N, rel=1e-15)
        assert abs(sol.C_MF / (1.0 + sol.C_MF / N) - rhs) < 1e-10 * max(abs(rhs), 1.0)

    def test_releases_inputs(self):
        # brentq holds its callable in a reference cycle; the inputs must
        # not be reachable from it once the call returns
        gc.collect()
        gc.disable()
        try:
            lam = spectral.powerlaw_spectrum(1.0, 1.0, 500)
            y = aligned_target(lam)
            refs = weakref.ref(lam), weakref.ref(y)
            feature.kernel_scaling_solve(lam, y, 64, 0.1, 50.0)
            del lam, y
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_finite_n_suppresses_kernel(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 500)
        y = aligned_target(lam)
        sol = feature.kernel_scaling_solve(lam, y, 64, 0.1, 20.0)
        assert sol.Q > 1.0  # positive C_MF shrinks the kernel by 1/Q

    def test_ridgeless_quadratic_frozen(self):
        # Y/N = 1, X = 0: Q = (sqrt(5)-1)/2
        Q = feature.kernel_scaling_ridgeless_q(10.0, 10.0)
        assert Q == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)

    def test_ridgeless_large_target_asymptote(self):
        # Y/N = 100: Q ~ sqrt(N/Y) = 0.1 within 5%
        Q = feature.kernel_scaling_ridgeless_q(100.0 * 7.0, 7.0)
        assert abs(Q - 0.1) < 0.005

    def test_ridgeless_quadratic_is_root(self):
        for Y, N, X in [(3.0, 5.0, 0.0), (2.0, 9.0, 1.5), (0.0, 4.0, 1.0)]:
            Q = feature.kernel_scaling_ridgeless_q(Y, N, X)
            assert abs(Y * Q**2 + (N - X) * Q - N) < 1e-10

    def test_rhs_precision_near_full_learnability(self):
        # ridgeless at P=4096 the top modes have 1 - l_k ~ 1e-11, so 1 - l_k
        # taken from a rounded l_k would move the sum by ~3e-9; reference:
        # the per-term form l - D-term - y-term in long double
        lam = spectral.powerlaw_spectrum(2.0, 1.0, 200_000)
        y = aligned_target(lam)
        P, Q = 4096, 1.3
        rhs, k2, D, _ = feature._scaling_rhs(lam, y, P, 0.0, Q, 100.0, 0.0)
        L = np.longdouble
        lam_s, y, k2, D = (lam / Q).astype(L), y.astype(L), L(k2), L(D)
        kp = k2 / P
        terms = lam_s / (lam_s + kp) - (P / k2**2) * lam_s / (P * lam_s / k2 + 1) ** 2 * D
        ref = float(np.sum(terms - y**2 * lam_s / (lam_s + kp) ** 2))
        assert rhs == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha, count", [(1.0, 500), (2.0, 200_000)])
    def test_loss_is_learning_curve_of_scaled_kernel(self, alpha, count):
        # the second spectrum loses its tail to truncation
        lam = spectral.powerlaw_spectrum(alpha, 1.0, count)
        y = aligned_target(lam)
        assert (curves.truncate_spectrum(lam).size < count) == (count == 200_000)
        for P, kappa2, N in [(16, 0.1, 50.0), (256, 0.001, 1000.0), (4096, 1.0, 20.0)]:
            sol = feature.kernel_scaling_solve(lam, y, P, kappa2, N)
            ref = curves.learning_curve(lam / sol.Q, y, P, kappa2)
            assert sol.loss == pytest.approx(ref.total, rel=1e-12, abs=0)

    def test_truncated_target_mass_sources_D(self):
        # uniform target: the modes truncated off the spectrum hold 0.045
        # of its mass, which D's source keeps, as on the full spectrum
        lam = spectral.powerlaw_spectrum(2.0, 1.0, 200_000)
        y = np.full(lam.size, 1.0 / np.sqrt(lam.size))
        sol = feature.kernel_scaling_solve(lam, y, 64, 0.01, 100.0)
        assert sol.converged
        D = curves.solve_D(lam / sol.Q, y, 64, sol.kappa_eff2)
        assert sol.D == pytest.approx(D, rel=1e-12, abs=0)


class TestAdaptationLinear:
    def test_lazy_limit(self):
        sol = feature.adaptation_solve_linear(50, 10, 1000, 0.0, 100, 0.1)
        assert sol.c_star == pytest.approx(sol.c_perp, rel=1e-12)
        assert sol.amplification == pytest.approx(1.0, rel=1e-12)

    def test_c_perp_exact(self):
        for S in (8, 50, 200):
            sol = feature.adaptation_solve_linear(S, 4, 64, 100.0, 100, 0.1)
            assert sol.c_perp == 1.0 / S

    def test_quadratic_regime_frozen(self):
        # S=50, N_w=10, C=1000, chi=100: c_*^2 - 0.02 c_* - 0.02 = 0
        sol = feature.adaptation_solve_linear(50, 10, 1000, 100.0, 100_000, 1.0)
        root = (0.02 + np.sqrt(0.02**2 + 4 * 0.02)) / 2
        assert root == pytest.approx(0.15177, abs=5e-5)
        assert sol.quadratic_root == pytest.approx(root, rel=1e-12)
        # deep-learnable regime: full root approaches the quadratic root
        assert sol.c_star == pytest.approx(root, rel=0.01)
        # paper asymptote sqrt(chi*N_w/(S*C)) = sqrt(0.02) within 10%
        assert abs(sol.c_star - np.sqrt(0.02)) < 0.1 * sol.c_star

    def test_residual_small(self):
        sol = feature.adaptation_solve_linear(16, 4, 64, 100.0, 200, 0.05)
        assert sol.residual < 1e-8

    def test_amplification_exceeds_one(self):
        sol = feature.adaptation_solve_linear(16, 4, 64, 100.0, 200, 0.05)
        assert sol.amplification > 1.0
        assert sol.amplification == pytest.approx(sol.c_star * 16, rel=1e-12)

    def test_learnability_frozen(self):
        sol = feature.adaptation_solve_linear(50, 10, 1000, 100.0, 100_000, 1.0)
        lam_star = sol.c_star / 10
        assert lam_star == pytest.approx(0.0152, abs=3e-4)
        learn = feature.predicted_learnability(sol, 100_000, 100.0)  # keff2/P = 1e-3
        assert learn == pytest.approx(0.938, abs=0.005)

    def test_learnability_half_point(self):
        sol = feature.adaptation_solve_linear(16, 4, 64, 100.0, 100, 0.05)
        P_half = 0.05 / sol.lambda_star
        assert feature.predicted_learnability(sol, P_half, 0.05) == pytest.approx(0.5, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            feature.adaptation_solve_linear(0, 4, 64, 1.0, 10, 0.1)
        with pytest.raises(ValueError):
            feature.adaptation_solve_linear(16, 4, 64, 1.0, 10, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 256),
        st.integers(1, 16),
        st.integers(1, 1024),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
        st.integers(1, 100_000),
        st.floats(1e-4, 10.0),
    )
    def test_root_matches_cubic(self, S, N_w, C, chi, P, kappa_eff2):
        # g(c) c (b c + e)^2 = (1 - S c)(b c + e)^2 + A c; its one positive
        # real root, from the companion matrix, is an independent reference
        sol = feature.adaptation_solve_linear(S, N_w, C, chi, P, kappa_eff2)
        A, b, e = chi / (C * N_w), 1.0 / N_w, kappa_eff2 / P
        roots = np.roots([-S * b * b, b * b - 2 * S * b * e, 2 * b * e - S * e * e + A, e * e])
        positive = [r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0]
        assert len(positive) == 1
        assert sol.c_star == pytest.approx(positive[0], rel=1e-10, abs=0)
        g = 1.0 / sol.c_star - S + A / (b * sol.c_star + e) ** 2
        assert abs(g) < 1e-12 * S

    @pytest.mark.parametrize("solve", [feature.adaptation_solve_linear, feature.adaptation_solve_erf])
    def test_lazy_root_is_c_perp_exactly(self, solve):
        # at chi = 0, 1/(1/S) - S rounds below 0 for some S (93) and above it for others (49)
        for S in range(1, 201):
            sol = solve(S, 4, 64, 0.0, 100, 0.1)
            assert sol.c_star == sol.c_perp, S


class TestAdaptationErf:
    def test_overlap_frozen(self):
        assert feature.erf_linear_overlap(1.0, 1.0) == pytest.approx(
            (2.0 / np.sqrt(np.pi)) / np.sqrt(3.0), rel=1e-12
        )
        assert feature.erf_linear_overlap(1.0, 1.0) == pytest.approx(0.6515, abs=5e-5)

    def test_overlap_numerical_oracle(self):
        # E_{z~N(0,1)}[erf(z) z] via 1-D quadrature
        val, _ = quad(
            lambda z: sp_erf(z) * z * np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi),
            -12,
            12,
        )
        assert feature.erf_linear_overlap(1.0, 1.0) == pytest.approx(val, rel=1e-9)

    def test_erf_vs_linear_amplification(self):
        lin = feature.adaptation_solve_linear(16, 4, 64, 100.0, 200, 0.05)
        erf = feature.adaptation_solve_erf(16, 4, 64, 100.0, 200, 0.05)
        ratio = erf.amplification / lin.amplification
        assert 0.3 <= ratio <= 1.0
        assert erf.amplification > 1.0 and lin.amplification > 1.0

    def test_lazy_limit_erf(self):
        sol = feature.adaptation_solve_erf(16, 4, 64, 0.0, 200, 0.05)
        assert sol.c_star == pytest.approx(sol.c_perp, rel=1e-12)

    def test_norm_check_flag(self):
        # strong drive concentrates Sigma on the teacher direction
        sol = feature.adaptation_solve_erf(4, 1, 1, 5000.0, 100_000, 0.01)
        assert not sol.norm_check_ok


class TestOnData:
    def rand_problem(self, P=12, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((P, P + 3))
        K = A @ A.T / (P + 3)
        y = rng.standard_normal(P)
        return K, y

    def test_lazy_limit(self):
        K, y = self.rand_problem()
        P = len(y)
        t, Qbar = feature.ondata_adaptation_fixed_point(K, y, 0.0, 100.0, 0.3)
        assert Qbar == pytest.approx(1.0, abs=1e-12)
        direct = np.linalg.solve(K + (0.3 / P) * np.eye(P), y)
        assert np.max(np.abs(t - direct)) < 1e-10

    def test_zero_target(self):
        K, _ = self.rand_problem()
        t, Qbar = feature.ondata_adaptation_fixed_point(K, np.zeros(12), 3.0, 10.0, 0.3)
        assert np.allclose(t, 0.0) and Qbar == pytest.approx(1.0)

    def test_scalar_oracle_identity_kernel(self):
        # K = I_3, y = y0 * ones: t = t0 * ones with
        # t0 = y0/(Qbar + kappa2/3), Qbar = 1/(1 - 3 (chi/N) t0^2)
        chi, N, kappa2, y0 = 2.0, 40.0, 0.3, 0.7
        K = np.eye(3)
        y = np.full(3, y0)

        def resid(t0):
            Qbar = 1.0 / (1.0 - 3.0 * (chi / N) * t0**2)
            return (Qbar + kappa2 / 3.0) * t0 - y0

        pole = np.sqrt(1.0 / (3.0 * chi / N))
        t0 = brentq(resid, 0.0, 0.999 * pole, xtol=1e-15)
        t, Qbar = feature.ondata_adaptation_fixed_point(K, y, chi, N, kappa2)
        assert np.max(np.abs(t - t0)) < 1e-10
        assert abs(Qbar - 1.0 / (1.0 - 3.0 * (chi / N) * t0**2)) < 1e-10

    def test_pre_woodbury_equivalence(self):
        K, y = self.rand_problem(seed=3)
        t, Qbar = feature.ondata_adaptation_fixed_point(K, y, 0.5, 100.0, 0.5)
        assert Qbar > 1.0
        assert feature.ondata_pre_woodbury_residual(K, y, t, 0.5, 100.0, 0.5) < 1e-8

    def assert_root(self, K, y, chi, N, kappa2, pre_woodbury_tol):
        t, Qbar = feature.ondata_adaptation_fixed_point(K, y, chi, N, kappa2)
        P = len(y)
        denom = 1.0 - (chi / N) * float(t @ K @ t)
        assert denom > 0.0
        fixed_t = np.linalg.norm((Qbar * K + (kappa2 / P) * np.eye(P)) @ t - y)
        assert fixed_t < 1e-11 * np.linalg.norm(y)
        assert abs(Qbar - 1.0 / denom) < 1e-11 * Qbar
        assert feature.ondata_pre_woodbury_residual(K, y, t, chi, N, kappa2) < pre_woodbury_tol
        return Qbar, denom

    def test_near_pole_root(self):
        # strong drive: the root sits close to the pole, 1 - (chi/N) t'Kt ~ 0.0024
        K, y = self.rand_problem(seed=4)
        Qbar, denom = self.assert_root(K, 10 * y, 50.0, 1.0, 0.01, 1e-11)
        assert Qbar == pytest.approx(414.75, abs=0.01)
        assert denom < 0.01

    @pytest.mark.parametrize(
        "P, chi_over_n, kappa2, seed, denom",
        [(40, 0.01, 0.5, 0, 0.55), (200, 0.02, 0.1, 1, 0.12)],
    )
    def test_well_posed_random_kernels(self, P, chi_over_n, kappa2, seed, denom):
        K, y = self.rand_problem(P=P, seed=seed)
        _, got = self.assert_root(K, y, chi_over_n, 1.0, kappa2, 1e-10)
        assert got == pytest.approx(denom, abs=0.005)

    def test_bracket_cap(self):
        # K = I_3: the root grows like sqrt(3 (chi/N)) y0, past 2^64 here
        with pytest.raises(ValueError, match="bracket"):
            feature.ondata_adaptation_fixed_point(np.eye(3), np.ones(3), 1e40, 1.0, 0.3)


class TestTransfer:
    def test_identity(self):
        plan = feature.transfer_rescale(100, 1.0, 0.1, 1000, 1.0)
        assert (plan.N, plan.kappa2, plan.gamma, plan.P) == (100, 1.0, 0.1, 1000)

    def test_frozen_four_x(self):
        plan = feature.transfer_rescale(100, 1.0, 0.1, 1000, 4.0)
        assert plan.N == 400
        assert plan.kappa2 == pytest.approx(0.25)
        assert plan.gamma == pytest.approx(0.025)
        assert plan.P == 16000

    def test_composition(self):
        p12 = feature.transfer_rescale(100, 1.0, 0.1, 1000, 2.0)
        p12 = feature.transfer_rescale(p12.N, p12.kappa2, p12.gamma, p12.P, 3.0)
        direct = feature.transfer_rescale(100, 1.0, 0.1, 1000, 6.0)
        for a, b in zip(
            (p12.N, p12.kappa2, p12.gamma, p12.P),
            (direct.N, direct.kappa2, direct.gamma, direct.P),
        ):
            assert a == pytest.approx(b, rel=1e-12)

    def test_invariant_ratio(self):
        plan = feature.transfer_rescale(100, 1.0, 0.1, 1000, 7.0)
        assert plan.N**2 / plan.P == pytest.approx(100**2 / 1000, rel=1e-12)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            feature.transfer_rescale(100, 1.0, 0.1, 1000, 0.0)
