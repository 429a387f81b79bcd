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

The memory kernel of linear and fully connected erf nets is a sum of
decaying exponentials, M(s) = sum_k e^{-rho_k s} C_k: one term for
linear nets, a truncated dual-activation series for erf.  The march then
carries one recursion per term instead of the whole history, which
costs O(T K n^2) for T steps and K terms instead of O(T^2 n^2), and it
never holds the (T + 1, n, n) memory array.  ``phi_kernels`` attaches
the terms only when K <= T/2, where the term march is the cheaper one:
both marches then take about T^2 n^2 / 2 multiply-adds, and measured on
an erf net at n = 40 and T = 600 (one BLAS thread) the term march takes
0.8 of the lag march's time at K = T/2 and breaks even near K = 0.6 T.
Otherwise, and for kernels without terms (``phi_kernels_mc``), the march
contracts the memory kernel's lag values over the whole history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import ACTIVATIONS, NetworkSpec, _mc_blocks, _patches, patch_columns, patch_gram
from .gpr import _plus_diagonal, _solve_psd, gpr_predict
from .rng import stream

#: truncation error of an erf kernel's exponential terms: the series stops
#: where its geometric tail bound r^{2K}/(1 - r^2) falls below this
SERIES_TAIL_TOL = 1e-16


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        h = np.diff(t)
        # linspace rounds each time to within about eps * t_end, so a
        # uniform grid's spacings differ by up to a few eps * t_end
        if np.any(h <= 0) or np.max(np.abs(h - h[0])) > 8.0 * np.finfo(float).eps * t[-1]:
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
    """Stationary two-time kernel stored by lag: values[l] = Phi(t, t - l h).

    ``rates`` and ``terms``, when set, give the same kernel as decaying
    exponentials, Phi(s) = sum_k e^{-rates_k s} terms_k: exactly for a
    linear net, and for an erf net to within (2/pi) SERIES_TAIL_TOL per
    entry for Phi and (4/pi) SERIES_TAIL_TOL for Phi', plus rounding.
    """

    lag_values: np.ndarray  # (steps + 1, n, n)
    rates: np.ndarray | None = None  # (K,)
    terms: np.ndarray | None = None  # (K, n, n)

    def at(self, j: int, l: int) -> np.ndarray:
        return self.lag_values[abs(j - l)]


def ntk_flow(Theta_D, y, f0, gamma: float, grid: TimeGrid, theta_star=None, f0_test=None):
    """Closed-form linearized dynamics f_t = y - e^{-gamma Theta_D t}(y - f0).

    Returns the train trajectory (len(grid) x P); when a test-train
    kernel block is supplied, also the test trajectory obtained by
    integrating the test-point ODE through the same eigenbasis.
    """
    Theta_D = np.asarray(Theta_D, dtype=float)
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
    Phi' (for linear, Phi(s) = Sigma_w(s) Kx and Phi' = 1).  Both kernels
    also carry their exponential terms (``_exponential_terms``) when
    there are at most steps/2 of them.
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
    series = _exponential_terms(spec.activation, Kx, sigma_w2, omega_w, grid.steps // 2)
    (rates, terms), (drates, dterms) = series or ((None, None), (None, None))
    return TwoTimeKernel(Phi, rates, terms), TwoTimeKernel(dPhi, drates, dterms)


def _exponential_terms(activation: str, Kx: np.ndarray, sigma_w2: float, omega_w: float, max_terms: int):
    """Phi and Phi' as (rates, terms), Phi(s) = sum_k e^{-rates_k s} terms_k,
    or None when that takes more than ``max_terms`` terms.

    Linear: Phi = sigma_w^2 e^{-omega_w s} Kx and Phi' = 1, one term each.
    Erf: with d_i = 1 + 2 sigma_w^2 Kx_ii, X0 = 2 sigma_w^2 Kx / sqrt(d_i d_j)
    and z = e^{-omega_w s},

        Phi  = (2/pi) arcsin(z X0)  = (2/pi) sum_k a_k/(2k+1) X0^{2k+1} z^{2k+1},
        Phi' = (4/pi) (1 - z^2 X0^2)^{-1/2} / sqrt(d_i d_j)
             = (4/pi) sum_k a_k X0^{2k} z^{2k} / sqrt(d_i d_j),

    with a_k = binom(2k, k)/4^k <= 1 and Hadamard powers of X0 (the
    dual-activation expansion).  Since |X0_ij| <= r = max_i 1 - 1/d_i < 1,
    the terms from k = K on add at most r^{2K}/(1 - r^2) times 2/pi
    (Phi) or 4/pi (Phi') to any entry, so K, the fewest terms that bring
    this below ``SERIES_TAIL_TOL``, is known before any term is built.
    """
    n = Kx.shape[0]
    if activation == "linear":
        if max_terms < 1:
            return None
        return (np.array([omega_w]), sigma_w2 * Kx[None]), (np.zeros(1), np.ones((1, n, n)))
    d = 1.0 + 2.0 * sigma_w2 * np.diag(Kx)
    r = float(np.max(1.0 - 1.0 / d))
    room = SERIES_TAIL_TOL * (1.0 - r * r)
    if room <= 0.0:
        return None
    K = 1 if r == 0.0 else math.ceil(math.log(room) / (2.0 * math.log(r)))
    if K > max_terms:
        return None
    norm = np.sqrt(np.outer(d, d))
    X0 = 2.0 * sigma_w2 * Kx / norm
    X2 = X0 * X0
    k = np.arange(K)
    a = np.cumprod(np.concatenate(([1.0], (2.0 * k[1:] - 1.0) / (2.0 * k[1:]))))
    even = np.empty((K, n, n))  # X0^{2k}
    even[0] = 1.0
    for j in range(1, K):
        np.multiply(even[j - 1], X2, out=even[j])
    terms = even * X0
    terms *= ((2.0 / np.pi) * a / (2.0 * k + 1.0))[:, None, None]
    even *= ((4.0 / np.pi) * a)[:, None, None]
    even /= norm
    return ((2.0 * k + 1.0) * omega_w, terms), (2.0 * k * omega_w, even)


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
    averages act(t + l) act(t)^T over every time t, path and patch.  Paths
    run in blocks whose (T + 1, paths, N_w, n) activations fit in
    ``kernels.MC_BLOCK_BYTES``; block b draws from ``stream(seed, "ou_paths", b)``
    its initial weights, then one (paths, S) block of OU noise per step.
    """
    sigma = ACTIVATIONS[spec.activation].sigma
    Xp = _patches(X, spec.input_dim, spec.patch_count)
    n, Nw, S = Xp.shape
    omega_w = eta * kappa2 / (sigma_w2 * chi)
    h = grid.h
    a_dec = np.exp(-omega_w * h)
    noise_sd = np.sqrt(sigma_w2 * (1.0 - a_dec**2))
    XpT = patch_columns(Xp) / np.sqrt(spec._input_divisor)
    T = grid.steps
    Phi = np.zeros((T + 1, n, n))
    for block, count in _mc_blocks(paths, 8 * (T + 1) * Nw * n):
        rng = stream(seed, "ou_paths", block)
        w = np.sqrt(sigma_w2) * rng.standard_normal((count, S))
        acts = np.empty((T + 1, count, Nw, n))
        for j in range(T + 1):
            acts[j] = sigma(w @ XpT).reshape(count, Nw, n)
            if j < T:
                w = a_dec * w + noise_sd * rng.standard_normal((count, S))
        for lag in range(T + 1):
            later = acts[lag:].reshape(-1, n)  # rows (time, path, patch), time lag apart
            earlier = acts[: T + 1 - lag].reshape(-1, n)
            Phi[lag] += later.T @ earlier
    Phi /= ((T + 1 - np.arange(T + 1)) * paths * Nw)[:, None, None]
    return TwoTimeKernel(Phi)


def msrdj_theta0(Phi: TwoTimeKernel, dPhi: TwoTimeKernel, Kx, sigma_a2: float, chi: float) -> np.ndarray:
    """Equal-time kernel driving the t -> 0 slope of the integral equation."""
    Kx = np.asarray(Kx, dtype=float)
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

    The current-time slice is treated implicitly (``_implicit_step``);
    exponential memory factors are evaluated exactly at every lag so
    stiff decay rates cost nothing in stability.  When both
    kernels carry exponential terms, the history sum is carried as one
    decaying recursion per term of M (``_term_march``); otherwise each
    step contracts M's lag values with the whole history.
    """
    Kx = np.asarray(Kx, dtype=float)
    y = np.asarray(y, dtype=float)
    P = y.shape[0]
    h = grid.h
    omega_a = eta * kappa2 / sigma_a2
    omega_w = eta * kappa2 / (sigma_w2 * chi)
    if Phi.terms is not None and dPhi.terms is not None:
        rates = np.concatenate((omega_a + Phi.rates, omega_a + omega_w + dPhi.rates))
        C = eta * np.concatenate((Phi.terms, (sigma_a2 / (2.0 * chi)) * dPhi.terms * Kx))
        return _term_march(rates, C, y, h, grid.steps)
    lags = grid.times - grid.times[0]
    M = eta * (
        np.exp(-omega_a * lags)[:, None, None] * Phi.lag_values
        + (sigma_a2 / (2.0 * chi))
        * np.exp(-(omega_a + omega_w) * lags)[:, None, None]
        * (dPhi.lag_values * Kx[None, :, :])
    )
    A_inv, source = _implicit_step(M[0], y, h)
    f = np.zeros((grid.steps + 1, P))
    gw = np.zeros((grid.steps + 1, P))  # trapezoid-weighted discrepancies
    gw[0] = 0.5 * (f[0] - y)
    for m in range(1, grid.steps + 1):
        known = np.einsum("jab,jb->a", M[m:0:-1], gw[:m])
        f[m] = A_inv @ (-h * known) + source
        gw[m] = f[m] - y
    return f


def _implicit_step(M0: np.ndarray, y: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(A^{-1}, A^{-1} (h/2) M0 y) for the implicit slice A = I + (h/2) M0, one factor per
    march; M0 = M(0) is a Gram matrix plus a Schur product of PSD matrices, so A >= I."""
    P = y.shape[0]
    sol, _ = _solve_psd(_plus_diagonal(0.5 * h * M0, 1.0), np.column_stack([np.eye(P), 0.5 * h * (M0 @ y)]))
    return sol[:, :P], sol[:, P]


def _term_march(rates: np.ndarray, C: np.ndarray, y: np.ndarray, h: float, steps: int) -> np.ndarray:
    """The march of ``msrdj_mean_predictor`` for M(s) = sum_k e^{-rates_k s} C_k.

    Terms whose rates agree to rounding are merged first: in the closed
    forms, term k of Phi and term k of Phi' share one rate.  The history
    sum of step m, sum_{i<m} M((m - i) h) g_i over the trapezoid-weighted
    discrepancies g_i, is sum_k C_k S_k with S_k <- e^{-rates_k h}(S_k + g_{m-1}),
    so a step costs one product with [C_1 ... C_K], O(K n^2).
    """
    order = np.argsort(rates, kind="stable")
    rates, C = rates[order], C[order]
    first = np.concatenate(([True], np.diff(rates) > 64.0 * np.finfo(float).eps * rates[1:]))
    C = np.add.reduceat(C, np.flatnonzero(first), axis=0)
    rates = rates[first]
    P = y.shape[0]
    A_inv, source = _implicit_step(C.sum(axis=0), y, h)
    history = -h * C.transpose(1, 0, 2).reshape(P, -1)  # -h [C_1 ... C_K]
    # high powers of small X0 entries underflow to subnormals, which slow
    # every product with them (a few hundred of 155k entries made a
    # 97-term erf march 2.5x slower); they add nothing above 1e-308
    history[np.abs(history) < np.finfo(float).tiny] = 0.0
    decay = np.exp(-h * rates)[:, None]
    S = np.zeros((rates.size, P))
    f = np.zeros((steps + 1, P))
    g = -0.5 * y  # the trapezoid's half weight on f(0) - y
    for m in range(1, steps + 1):
        S += g
        S *= decay
        f[m] = A_inv @ (history @ S.ravel()) + source
        g = f[m] - y
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
        0 < t <= 0.1 / (eta ||Theta0||), nan when no grid point falls there;
    (b) late time: the GPR mean with kernel ``K_gp`` and ridge kappa2.
    """
    trajectory = np.asarray(trajectory, dtype=float)
    Theta0 = np.asarray(Theta0, dtype=float)
    K_gp = np.asarray(K_gp, dtype=float)
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(Theta0, 2))
    t_window = 0.1 / (eta * norm)
    # at t = 0 both sides are 0 up to rounding, which says nothing
    in_window = (grid.times > 0.0) & (grid.times <= t_window)
    ntk_dev = math.nan
    if in_window.any():
        ntk = ntk_flow(Theta0, y, np.zeros_like(y), eta, grid)[in_window]
        scale = float(np.max(np.abs(ntk))) or 1.0
        ntk_dev = float(np.max(np.abs(trajectory[in_window] - ntk))) / scale

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
