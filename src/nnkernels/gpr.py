"""Exact Gaussian Process Regression and the infinite-time NTK predictor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spectral import PSEUDO_INVERSE_RTOL


@dataclass
class GPRPosterior:
    mean: np.ndarray
    variance: np.ndarray
    train_residuals: np.ndarray
    jitter: float = 0.0  # diagonal jitter that was needed, 0 if none
    rank: int | None = None  # reported when the ridgeless system was singular


@dataclass
class LossDecomposition:
    bias: float
    variance: float

    @property
    def total(self) -> float:
        return self.bias + self.variance


class SingularKernelError(np.linalg.LinAlgError):
    def __init__(self, rank: int, size: int):
        super().__init__(f"ridgeless kernel is rank deficient ({rank}/{size})")
        self.rank = rank


def _plus_diagonal(A: np.ndarray, c: float) -> np.ndarray:
    """A copy of A with c added to its diagonal (A + c I without building I)."""
    A = A.copy()
    A.flat[:: A.shape[0] + 1] += c
    return A


def _solve_psd(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A X = B for symmetric PSD A via Cholesky with jitter escalation:
    the package's one positive-definite solve.  Returns X and the jitter added."""
    scale = max(float(np.trace(A)) / max(A.shape[0], 1), 1e-300)
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            M = A if jitter == 0.0 else _plus_diagonal(A, jitter * scale)
            c, low = scipy.linalg.cho_factor(M, lower=True)
            return scipy.linalg.cho_solve((c, low), B), jitter * scale
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("Cholesky failed even with jitter 1e-8")


def gpr_predict(K_D, k_star, K_star_diag, y, kappa2: float) -> GPRPosterior:
    """Posterior mean/variance of GPR with ridge (noise) ``kappa2``.

    mean = k_* (K_D + kappa2 I)^{-1} y
    var  = K_** - diag[ k_* (K_D + kappa2 I)^{-1} k_*^T ]

    ``kappa2 = 0`` uses a pseudo-inverse when the kernel is rank
    deficient; the posterior then carries the detected rank.
    """
    K_D = np.asarray(K_D, dtype=float)
    y = np.asarray(y, dtype=float)
    P = y.shape[0]
    k_star = np.asarray(k_star, dtype=float).reshape(-1, P) if P else np.zeros((np.size(K_star_diag), 0))
    K_star_diag = np.atleast_1d(np.asarray(K_star_diag, dtype=float))
    if kappa2 < 0:
        raise ValueError("kappa2 must be non-negative")
    if P == 0:
        return GPRPosterior(
            mean=np.zeros_like(K_star_diag),
            variance=K_star_diag.copy(),
            train_residuals=np.zeros(0),
        )

    B = np.concatenate([y[:, None], k_star.T], axis=1)
    rank, jitter = None, 0.0
    if kappa2 == 0.0:
        lam = np.linalg.eigvalsh(K_D)
        tol = PSEUDO_INVERSE_RTOL * max(lam[-1], 0.0)
        rank = int(np.sum(lam > tol))
    if rank is not None and rank < P:
        # project out the null space instead of failing outright
        lam, V = np.linalg.eigh(K_D)
        keep = lam > tol
        sol = V[:, keep] / lam[keep] @ (V[:, keep].T @ B)
    else:
        sol, jitter = _solve_psd(_plus_diagonal(K_D, kappa2), B)
    alpha, beta = sol[:, 0], sol[:, 1:]
    mean = k_star @ alpha
    var = K_star_diag - np.einsum("mp,pm->m", k_star, beta)
    if np.any(var < -1e-10 * max(np.max(np.abs(K_star_diag)), 1.0)):
        raise FloatingPointError("posterior variance significantly negative")
    return GPRPosterior(mean, np.clip(var, 0.0, None), y - K_D @ alpha, jitter=jitter, rank=rank)


def ntk_infinite_time(Theta_D, theta_star, y, f0_train, f0_test):
    """End-of-training predictor of the linearized (NTK) dynamics.

    prediction = theta_* Theta_D^{-1} y + I0,
    I0 = f0_test - theta_* Theta_D^{-1} f0_train.

    Averaged over initialization draws ``f0``, I0 has zero mean.
    """
    Theta_D = np.asarray(Theta_D, dtype=float)
    y = np.asarray(y, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1, y.shape[0])
    f0_train = np.asarray(f0_train, dtype=float)
    f0_test = np.asarray(f0_test, dtype=float)
    lam = np.linalg.eigvalsh(Theta_D)
    if lam[0] <= PSEUDO_INVERSE_RTOL * max(lam[-1], 0.0):
        raise SingularKernelError(int(np.sum(lam > PSEUDO_INVERSE_RTOL * lam[-1])), y.shape[0])
    sol, _ = _solve_psd(Theta_D, np.column_stack([y, f0_train]))
    I0 = f0_test - theta_star @ sol[:, 1]
    return theta_star @ sol[:, 0] + I0, I0


def loss_decompose(per_draw_predictions, y, weights) -> LossDecomposition:
    """Bias/variance split of an ensemble of predictors under a test measure.

    B = int dmu (<f> - y)^2,  V = int dmu (<f^2> - <f>^2).
    """
    F = np.asarray(per_draw_predictions, dtype=float)
    if F.ndim != 2 or F.shape[0] < 2:
        raise ValueError("need at least two dataset draws")
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    mean = F.mean(axis=0)
    bias = float(w @ (mean - y) ** 2)
    var = float(w @ (F.var(axis=0)))
    return LossDecomposition(bias=bias, variance=var)
