"""Ground-truth oracles: Langevin-trained finite networks and MC averages.

The Langevin sampler targets the Gibbs weight posterior

    p(theta) ∝ exp( -(chi/T) * [ (1/2) sum_mu (f_theta(x_mu) - y_mu)^2 ]
                    - (1/2) |theta|^2 ),

i.e. unnormalised MSE at temperature T/chi plus the unit-normal prior of
the NTK parametrization (equivalently weight decay gamma = T/(2 sigma^2)
in the conventional scaling).  Its infinite-width mean predictor is GPR
with the NNGP kernel and ridge T (chi cancels between kernel and noise).

All randomness comes from ``rng.stream`` (seed, purpose, index) streams:
data points from "data", Langevin chains from "langevin" (one stream per
chain seed), dataset draws from "dataset_mc".  Ensembles reproduce bit
for bit and are invariant to seed ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpr import _plus_diagonal, _solve_psd
from .kernels import ACTIVATIONS, NetworkSpec, _patches, ntk_kernel_2layer, patch_columns
from .rng import stream
from .spectral import DataMeasure


@dataclass(frozen=True)
class TrainingConfig:
    step_size: float
    temperature: float
    steps: int
    burn_in: int
    thin: int = 1
    seeds: tuple = (0,)

    def __post_init__(self) -> None:
        if self.burn_in >= self.steps:
            raise ValueError("burn_in must be < steps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.step_size <= 0 or self.temperature < 0:
            raise ValueError("step_size > 0 and temperature >= 0 required")
        if len(set(self.seeds)) != len(self.seeds):
            # identical chains would make the between-chain spread meaningless
            raise ValueError(f"chain seeds must be distinct, got {self.seeds}")


@dataclass
class EnsembleStats:
    mean: np.ndarray
    variance: np.ndarray
    per_seed_means: np.ndarray  # (n_seeds, n_test)
    loss_trace: np.ndarray  # (n_seeds, n_recorded)
    equilibrated: bool
    split_half_gap: float


def suggest_step_size(spec: NetworkSpec, X: np.ndarray, safety: float = 0.05) -> float:
    """Step size with eta * lambda_max(NTK Gram) below the stability margin."""
    Theta = ntk_kernel_2layer(spec, X).entries
    lam_max = float(np.linalg.eigvalsh(Theta)[-1])
    return safety / max(lam_max, 1e-12)


def langevin_train(
    spec: NetworkSpec,
    X: np.ndarray,
    y: np.ndarray,
    X_test: np.ndarray,
    cfg: TrainingConfig,
) -> EnsembleStats:
    """Euler-Maruyama Langevin sampling of a finite 2-layer network ensemble.

    theta <- theta - eta * grad U + sqrt(2 (T/chi) eta) xi, with
    U = (1/2) sum (f - y)^2 + (T/(2 chi)) |theta|^2; each listed seed
    runs an independent chain initialised from the prior.

    Inputs are laid out once as patch columns (``patch_columns``), so
    that every contraction of a step is a matrix product batched over the
    chain axis (never one product across chains, so a chain's numbers do not
    depend on its place in ``cfg.seeds``).  Chain k draws from its own
    stream, ``stream(seeds[k], "langevin")``: input weights (C, S), then
    readout (N_w, C), then per step C * S + N_w * C normals, input-weight
    noise first; at temperature 0 no noise is drawn.

    ``equilibrated`` compares each chain's second-half mean with its
    first-half mean: the drift averaged over chains must lie within three
    between-chain standard errors (root mean square over test points).
    The chains are independent, so their spread measures that error
    whatever the autocorrelation within a chain; with a single chain
    there is no spread to compare against and the flag is false.
    """
    if spec.depth != 2:
        raise ValueError("Langevin oracle implemented for depth-2 networks")
    if spec.bias_var != 0:
        raise ValueError("Langevin oracle samples bias-free networks; bias_var must be 0")
    X, X_test = (_patches(Z, spec.input_dim, spec.patch_count) for Z in (X, X_test))
    y = np.asarray(y, dtype=float)
    Nw, S, C = spec.patch_count, spec.patch_size, spec.channels
    sigma, dsigma = ACTIVATIONS[spec.activation].sigma, ACTIVATIONS[spec.activation].dsigma
    c_in = math.sqrt(spec.weight_var / spec._input_divisor)
    c_out = math.sqrt(spec.readout_var / (spec.chi * Nw * C))
    T_eff = cfg.temperature / spec.chi
    eta = cfg.step_size
    noise_sd = math.sqrt(2.0 * T_eff * eta)

    Xc, Xc_test = map(patch_columns, (X, X_test))
    XcT = np.ascontiguousarray(Xc.T)
    n_seeds = len(cfg.seeds)

    rngs = [stream(s, "langevin") for s in cfg.seeds]
    W = np.stack([r.standard_normal((C, S)) for r in rngs])  # (k, C, S)
    # readout held channel-major, (k, C, N_w), to match the rows of act below
    a = np.stack([r.standard_normal((Nw, C)).T for r in rngs])
    # one row of normals per chain per step (zeros at temperature 0, where
    # none is drawn); noise_W and noise_a are views of it
    noise = np.zeros((n_seeds, C * S + Nw * C))
    noise_W = noise[:, : C * S].reshape(n_seeds, C, S)
    noise_a = noise[:, C * S :].reshape(n_seeds, Nw, C).transpose(0, 2, 1)

    def forward(Xcols):
        u = c_in * (W @ Xcols)  # (k, C, N_w * n)
        act = sigma(u).reshape(n_seeds, C * Nw, -1)  # row c * N_w + i
        return u, act, c_out * (a.reshape(n_seeds, 1, C * Nw) @ act)[:, 0]

    n_rec = (cfg.steps - cfg.burn_in + cfg.thin - 1) // cfg.thin
    sum_f = np.zeros((n_seeds, X_test.shape[0]))
    sum_f2 = np.zeros_like(sum_f)
    half_marker = np.zeros((2, n_seeds, X_test.shape[0]))
    half_counts = np.zeros(2)
    losses = np.zeros((n_seeds, n_rec))
    recorded = 0

    loss0 = float(np.mean(np.sum((forward(Xc)[2] - y) ** 2, axis=1)))

    for step in range(cfg.steps):
        u, act, f = forward(Xc)
        r = f - y[None, :]
        # gradients of the unnormalised MSE
        grad_a = c_out * (act @ r[:, :, None]).reshape(n_seeds, C, Nw)
        ra = (a.reshape(n_seeds, C * Nw, 1) * r[:, None, :]).reshape(n_seeds, C, -1)
        ra *= dsigma(u)
        grad_W = c_out * c_in * (ra @ XcT)
        if noise_sd > 0.0:
            for rng, z in zip(rngs, noise):
                rng.standard_normal(out=z)
        W += -eta * (grad_W + T_eff * W) + noise_sd * noise_W
        a += -eta * (grad_a + T_eff * a) + noise_sd * noise_a
        sq_err = np.sum(r**2, axis=1)
        loss_now = float(np.mean(sq_err))
        if not np.isfinite(loss_now) or loss_now > 1e6 * max(loss0, 1.0):
            raise RuntimeError(
                f"Langevin divergence at step {step}: loss {loss_now:.3e} "
                f"(initial {loss0:.3e}); reduce the step size"
            )
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            ftest = forward(Xc_test)[2]
            sum_f += ftest
            sum_f2 += ftest**2
            half = 0 if recorded < n_rec // 2 else 1
            half_marker[half] += ftest
            half_counts[half] += 1
            losses[:, recorded] = sq_err
            recorded += 1

    per_seed_means = sum_f / recorded
    # order-independent reduction: average in sorted-seed order
    order = np.argsort(np.asarray(cfg.seeds, dtype=np.uint64), kind="stable")
    mean = per_seed_means[order].mean(axis=0)
    second = (sum_f2 / recorded)[order].mean(axis=0)
    variance = np.clip(second - mean**2, 0.0, None)

    halves = half_marker / np.maximum(half_counts, 1)[:, None, None]
    gap = float(np.max(np.abs(halves[0].mean(axis=0) - halves[1].mean(axis=0))))
    equilibrated = False
    if n_seeds > 1 and half_counts.min() > 0:
        drift = (halves[1] - halves[0])[order]  # (k, n_test)
        rms_drift = np.sqrt(np.mean(drift.mean(axis=0) ** 2))
        rms_se = np.sqrt(np.mean(drift.var(axis=0, ddof=1) / n_seeds))
        equilibrated = bool(rms_drift <= 3.0 * rms_se)
    return EnsembleStats(
        mean=mean,
        variance=variance,
        per_seed_means=per_seed_means,
        loss_trace=losses[:, :recorded],
        equilibrated=equilibrated,
        split_half_gap=gap,
    )


@dataclass
class DatasetAveragedGPR:
    mean_coefficients: np.ndarray  # dataset-averaged mode coefficients
    bias: float  # integrated (mean - y)^2
    type_i_variance: float  # mean within-draw posterior variance
    type_ii_variance: float  # across-draw variance of the mean predictor
    per_draw_loss_mean: float  # <int (f_D - y)^2> = bias + type (ii)
    draws: int

    @property
    def total(self) -> float:
        return self.per_draw_loss_mean + self.type_i_variance


def dataset_averaged_gpr_mc(
    lam,
    y_k,
    P: int,
    kappa2: float,
    draws: int,
    seed: int,
) -> DatasetAveragedGPR:
    """Quenched dataset average of GPR in the Gaussian-feature model.

    Each draw samples P points as i.i.d. standard-normal feature vectors
    over the given spectrum (K = Phi diag(lam) Phi^T), runs exact GPR,
    and records the predictor in mode space where test-measure integrals
    are exact sums.  A draw whose K + kappa2 I needs jitter raises LinAlgError.
    """
    if draws < 2:
        raise ValueError("need at least two dataset draws")
    lam = np.asarray(lam, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    M = lam.size
    rng = stream(seed, "dataset_mc")
    sum_c = np.zeros(M)
    sum_c2 = np.zeros(M)
    loss_sum = 0.0
    post_var_sum = 0.0
    tr_lam = float(lam.sum())
    eyeP = np.eye(P)
    for _ in range(draws):
        Phi = rng.standard_normal((P, M))
        PhiL = Phi * lam
        # one factor of A = Phi Lam Phi^T + kappa2 I for both; the variance is not taken as
        # tr(A^{-1} G), G = (Phi Lam)(Phi Lam)^T, whose rounding A^{-1} amplifies near kappa2
        sol, jitter = _solve_psd(_plus_diagonal(PhiL @ Phi.T, kappa2), np.column_stack([Phi @ y_k, eyeP]))
        if jitter:
            raise np.linalg.LinAlgError("singular dataset draw: kappa2 = 0 needs P <= the number of modes")
        c = PhiL.T @ sol[:, 0]
        sum_c += c
        sum_c2 += c**2
        loss_sum += float(np.sum((c - y_k) ** 2))
        post_var_sum += tr_lam - float(np.vdot(PhiL, sol[:, 1:] @ PhiL))
    mean_c = sum_c / draws
    var_c = sum_c2 / draws - mean_c**2
    return DatasetAveragedGPR(
        mean_coefficients=mean_c,
        bias=float(np.sum((mean_c - y_k) ** 2)),
        type_i_variance=post_var_sum / draws,
        type_ii_variance=float(np.sum(np.clip(var_c, 0.0, None))),
        per_draw_loss_mean=loss_sum / draws,
        draws=draws,
    )


def make_synthetic(kind: str, d: int, n: int, seed: int, scale: float = 1.0) -> DataMeasure:
    """Synthetic input measures with uniform weights.

    gaussian_iid draws N(0, I_d / d) (so |x|^2 ~ 1); hypersphere_uniform
    projects Gaussians onto |x| = 1.  ``scale`` multiplies the points
    (e.g. sqrt(d) recovers unit-variance entries).  Rows are drawn in
    order from ``stream(seed, "data")``, so the n points are the first n
    rows of any larger draw with the same seed.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    Z = stream(seed, "data").standard_normal((n, d))
    if kind == "gaussian_iid":
        X = Z / math.sqrt(d)
    elif kind == "hypersphere_uniform":
        X = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return DataMeasure(scale * X, np.full(n, 1.0 / n))


def make_target(
    kind: str,
    X: np.ndarray,
    w_star: np.ndarray,
    a_star: np.ndarray | None = None,
    patch_count: int = 1,
    cubic_coeff: float = 0.1,
) -> np.ndarray:
    """Teacher functions: single-index linear, per-patch linear, or cubic.

    cubic uses the third Hermite polynomial, y = z + c (z^3 - 3 z) with
    z = w* . x.
    """
    X = np.asarray(X, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if kind == "single_index_linear":
        return X @ w_star
    if kind == "patch_linear":
        n, d = X.shape
        S = d // patch_count
        if a_star is None:
            raise ValueError("patch_linear needs per-patch readout a_star")
        a_star = np.asarray(a_star, dtype=float)
        Xp = X.reshape(n, patch_count, S)
        return np.einsum("i,nis,s->n", a_star, Xp, w_star)
    if kind == "cubic_single_index":
        z = X @ w_star
        return z + cubic_coeff * (z**3 - 3.0 * z)
    raise ValueError(f"unknown target kind {kind!r}")


def learnability(f: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Weighted overlap sum w f y / sum w y^2 — fraction of target captured."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    denom = float(w @ y**2)
    if denom == 0:
        raise ValueError("target is identically zero")
    return float(w @ (f * y)) / denom
