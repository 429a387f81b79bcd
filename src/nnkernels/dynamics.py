"""Mean-predictor training dynamics for 2-layer networks.

Two solvers:

* ``ntk_flow`` — the linearized (lazy) dynamics, a linear ODE in the
  NTK, solved in closed form through the kernel's eigenbasis;
* ``msrdj_mean_predictor`` — the self-averaged Langevin dynamics, a
  Volterra integral equation whose memory kernel combines the readout
  Ornstein-Uhlenbeck decay with two-time activation kernels Phi / Phi'
  of the OU-driven input weights.

The evolved variable is the network *output* f with f(0) = 0; the train
discrepancy is f - y.  Both weight processes are taken stationary, so
the two-time kernels depend on the lag only and Phi(t, t) = Phi(0, 0).

The integral equation is

    f(t) = - int_0^t eta [ e^{-omega_a (t-t')} Phi(t, t')
             + (sigma_a^2 / 2 chi) e^{-(omega_a + omega_w)(t-t')}
               Phi'(t, t') ∘ Kx ] (f(t') - y) dt',

with omega_a = eta kappa^2 / sigma_a^2 and
omega_w = eta kappa^2 / (sigma_w^2 chi).  Its t -> 0 slope reproduces
the NTK flow with Theta_0 = Phi(0,0) + (sigma_a^2/2chi) Phi'(0,0) ∘ Kx,
and for a linear activation with sigma_a = sigma_w and large chi the
t -> infinity limit is the GPR mean with kernel sigma^2 Phi(0,0) and
ridge kappa^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import ACTIVATIONS, NetworkSpec, _as_matrix, _patches, patch_gram
from .gpr import gpr_predict
from .rng import stream


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        h = np.diff(t)
        if np.any(h <= 0) or np.max(np.abs(h - h[0])) > 1e-12 * max(h[0], 1e-300):
            raise ValueError("grid must be uniform and increasing")
        object.__setattr__(self, "times", t)

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def steps(self) -> int:
        return self.times.size - 1

    @staticmethod
    def uniform(t_end: float, steps: int) -> "TimeGrid":
        return TimeGrid(np.linspace(0.0, t_end, steps + 1))

    @staticmethod
    def default(eta: float, kappa2: float, chi: float, sigma_a2: float, sigma_w2: float, steps: int = 400) -> "TimeGrid":
        t_end = 10.0 * max(sigma_a2, sigma_w2 * chi) / (eta * kappa2)
        return TimeGrid.uniform(t_end, steps)


@dataclass
class TwoTimeKernel:
    """Stationary two-time kernel stored by lag: values[l] = Phi(t, t - l h)."""

    lag_values: np.ndarray  # (steps + 1, n, n)

    def at(self, j: int, l: int) -> np.ndarray:
        return self.lag_values[abs(j - l)]


def ntk_flow(Theta_D, y, f0, gamma: float, grid: TimeGrid, theta_star=None, f0_test=None):
    """Closed-form linearized dynamics f_t = y - e^{-gamma Theta_D t}(y - f0).

    Returns the train trajectory (len(grid) x P); when a test-train
    kernel block is supplied, also the test trajectory obtained by
    integrating the test-point ODE through the same eigenbasis.
    """
    Theta_D = _as_matrix(Theta_D)
    y = np.asarray(y, dtype=float)
    f0 = np.broadcast_to(np.asarray(f0, dtype=float), y.shape)
    lam, V = np.linalg.eigh(Theta_D)
    c0 = V.T @ (y - f0)
    decay = np.exp(-gamma * np.outer(grid.times, lam))  # (n_t, P)
    train = y[None, :] - decay * c0[None, :] @ V.T
    if theta_star is None:
        return train
    theta_star = np.asarray(theta_star, dtype=float)
    f0_test = np.zeros(theta_star.shape[0]) if f0_test is None else np.asarray(f0_test, dtype=float)
    # df*/dt = gamma theta_* e^{-gamma Theta t} (y - f0)  integrates to
    # theta_* Theta^{-1} (1 - e^{-gamma Theta t}) (y - f0) through eigenmodes
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(lam > 1e-300, 1.0 / np.where(lam > 1e-300, lam, 1.0), 0.0)
    coeff = (1.0 - decay) * (inv * c0)[None, :]
    test = f0_test[None, :] + coeff @ (theta_star @ V).T
    return train, test


def closed_form_covers(spec: NetworkSpec) -> bool:
    """Whether ``phi_kernels`` has a closed form: linear nets and fully connected erf nets."""
    return spec.activation == "linear" or (spec.activation == "erf" and spec.patch_count == 1)


def phi_kernels(
    spec: NetworkSpec,
    X: np.ndarray,
    grid: TimeGrid,
    eta: float,
    kappa2: float,
    chi: float,
    sigma_a2: float,
    sigma_w2: float,
) -> tuple[TwoTimeKernel, TwoTimeKernel]:
    """Two-time activation kernels under the stationary OU weight process.

    The input-weight covariance across a lag s is
    Sigma_w(s) = sigma_w^2 e^{-omega_w s}, so the joint preactivation
    covariance has equal-time variances and a decayed cross term; the
    activation table's pair expectations at that covariance give Phi and
    Phi' (for linear, Phi(s) = Sigma_w(s) Kx and Phi' = 1).
    """
    if spec.depth != 2:
        raise ValueError("dynamics kernels implemented for depth-2 networks")
    if not closed_form_covers(spec):
        raise ValueError(
            "closed-form two-time kernels cover linear nets and fully connected erf nets, not "
            f"{spec.activation!r} with patch_count={spec.patch_count}; use the Monte-Carlo path"
        )
    act = ACTIVATIONS[spec.activation]
    Kx = patch_gram(X, spec)
    omega_w = eta * kappa2 / (sigma_w2 * chi)
    decays = np.exp(-omega_w * (grid.times - grid.times[0]))
    n = Kx.shape[0]
    h = sigma_w2 * np.diag(Kx)
    v1, v2 = h[:, None], h[None, :]
    Phi = np.empty((grid.steps + 1, n, n))
    dPhi = np.empty_like(Phi)
    for l, dec in enumerate(decays):
        cov = sigma_w2 * dec * Kx
        Phi[l] = act.pair(v1, v2, cov)
        dPhi[l] = act.dpair(v1, v2, cov)
    return TwoTimeKernel(Phi), TwoTimeKernel(dPhi)


def phi_kernels_mc(
    spec: NetworkSpec,
    X: np.ndarray,
    grid: TimeGrid,
    eta: float,
    kappa2: float,
    chi: float,
    sigma_w2: float,
    paths: int,
    seed: int,
) -> TwoTimeKernel:
    """Monte-Carlo estimate of Phi by simulating stationary OU weight paths.

    Phi is the per-patch activation Gram averaged over patches.  Lag l
    averages act(t + l) act(t)^T over every time t, path and patch, as
    one product of the stacked activations.  The paths draw from
    ``stream(seed, "ou_paths")``: the initial weights, then one (paths, S)
    block of OU noise per time step after the first.
    """
    sigma = ACTIVATIONS[spec.activation].sigma
    Xp = _patches(X, spec.input_dim, spec.patch_count)
    n, Nw, S = Xp.shape
    omega_w = eta * kappa2 / (sigma_w2 * chi)
    h = grid.h
    rng = stream(seed, "ou_paths")
    w = np.sqrt(sigma_w2) * rng.standard_normal((paths, S))
    a_dec = np.exp(-omega_w * h)
    noise_sd = np.sqrt(sigma_w2 * (1.0 - a_dec**2))
    XpT = Xp.transpose(2, 1, 0).reshape(S, Nw * n) / np.sqrt(spec._input_divisor)  # column i * n + m: patch i of x_m
    T = grid.steps
    acts = np.empty((T + 1, paths, Nw, n))
    for j in range(T + 1):
        acts[j] = sigma(w @ XpT).reshape(paths, Nw, n)
        if j < T:
            w = a_dec * w + noise_sd * rng.standard_normal((paths, S))
    Phi = np.empty((T + 1, n, n))
    for lag in range(T + 1):
        later = acts[lag:].reshape(-1, n)  # rows (time, path, patch), time lag apart
        earlier = acts[: T + 1 - lag].reshape(-1, n)
        Phi[lag] = later.T @ earlier / ((T + 1 - lag) * paths * Nw)
    return TwoTimeKernel(Phi)


def msrdj_theta0(Phi: TwoTimeKernel, dPhi: TwoTimeKernel, Kx, sigma_a2: float, chi: float) -> np.ndarray:
    """Equal-time kernel driving the t -> 0 slope of the integral equation."""
    Kx = _as_matrix(Kx)
    return Phi.lag_values[0] + (sigma_a2 / (2.0 * chi)) * dPhi.lag_values[0] * Kx


def msrdj_mean_predictor(
    Phi: TwoTimeKernel,
    dPhi: TwoTimeKernel,
    Kx,
    y,
    grid: TimeGrid,
    eta: float,
    kappa2: float,
    chi: float,
    sigma_a2: float,
    sigma_w2: float,
) -> np.ndarray:
    """March the Volterra equation by trapezoidal product integration.

    The current-time slice is treated implicitly (a small linear solve
    per step); exponential memory factors are evaluated exactly at every
    lag so stiff decay rates cost nothing in stability.
    """
    Kx = _as_matrix(Kx)
    y = np.asarray(y, dtype=float)
    P = y.shape[0]
    h = grid.h
    omega_a = eta * kappa2 / sigma_a2
    omega_w = eta * kappa2 / (sigma_w2 * chi)
    lags = grid.times - grid.times[0]
    M = eta * (
        np.exp(-omega_a * lags)[:, None, None] * Phi.lag_values
        + (sigma_a2 / (2.0 * chi))
        * np.exp(-(omega_a + omega_w) * lags)[:, None, None]
        * (dPhi.lag_values * Kx[None, :, :])
    )
    lhs = np.eye(P) + 0.5 * h * M[0]
    lu, piv = scipy.linalg.lu_factor(lhs)

    f = np.zeros((grid.steps + 1, P))
    gw = np.zeros((grid.steps + 1, P))  # trapezoid-weighted discrepancies
    gw[0] = 0.5 * (f[0] - y)
    for m in range(1, grid.steps + 1):
        known = np.einsum("jab,jb->a", M[m:0:-1], gw[:m])
        rhs = -h * known + 0.5 * h * (M[0] @ y)
        f[m] = scipy.linalg.lu_solve((lu, piv), rhs)
        gw[m] = f[m] - y
    return f


def step_doubling_check(solve, tol: float):
    """Run ``solve(refine)`` at refine = 1 and 2; raise if they disagree.

    ``solve`` maps a refinement factor to a trajectory sampled on the
    coarse grid points.  Used to detect step-size instability.
    """
    coarse = solve(1)
    fine = solve(2)[::2]
    change = float(np.max(np.abs(fine - coarse)))
    scale = float(np.max(np.abs(fine))) or 1.0
    if change > tol * scale:
        raise RuntimeError(
            f"Volterra step-doubling test failed (relative change {change / scale:.3e}); "
            "use a smaller step"
        )
    return change / scale


@dataclass
class LimitCheckReport:
    ntk_window_end: float
    ntk_max_rel_dev: float
    gpr_final_rel_dev: float
    gpr_dev_monotone_after_transient: bool


def limit_checks(trajectory, grid: TimeGrid, Theta0, K_gp, y, kappa2: float, eta: float) -> LimitCheckReport:
    """Compare a trajectory against its two analytic limits.

    (a) short time: NTK flow with Theta0 at rate eta over
        t <= 0.1 / (eta ||Theta0||);
    (b) late time: the GPR mean with kernel ``K_gp`` and ridge kappa2.
    """
    trajectory = np.asarray(trajectory, dtype=float)
    Theta0 = _as_matrix(Theta0)
    K_gp = _as_matrix(K_gp)
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(Theta0, 2))
    t_window = 0.1 / (eta * norm)
    in_window = grid.times <= t_window
    ntk = ntk_flow(Theta0, y, np.zeros_like(y), eta, grid)
    scale = float(np.max(np.abs(ntk[in_window]))) or 1.0
    ntk_dev = float(np.max(np.abs(trajectory[in_window] - ntk[in_window]))) / scale

    gpr_mean = gpr_predict(K_gp, K_gp, np.diag(K_gp), y, kappa2).mean
    devs = np.linalg.norm(trajectory - gpr_mean[None, :], axis=1)
    final_dev = float(devs[-1] / max(np.linalg.norm(gpr_mean), 1e-300))
    tail = devs[grid.steps // 2 :]
    monotone = bool(np.all(np.diff(tail) <= 1e-12 + 1e-6 * tail[:-1]))
    return LimitCheckReport(
        ntk_window_end=t_window,
        ntk_max_rel_dev=ntk_dev,
        gpr_final_rel_dev=final_dev,
        gpr_dev_monotone_after_transient=monotone,
    )
