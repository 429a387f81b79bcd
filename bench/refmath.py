"""Reference computations the benchmark checks the program against.

Nothing here imports ``nnkernels``: every quantity is recomputed from the
benchmark's own inputs, by formulas written out again or by quadrature,
so a fault in the program cannot cancel out in its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, zeta

_GH_Z, _GH_W = np.polynomial.hermite_e.hermegauss(256)
_GH_W = _GH_W / math.sqrt(2.0 * math.pi)


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def rel_err(got, want, floor: float = 1e-300) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), floor))


# ------------------------------------------------------------ spectra


def powerlaw(alpha: float, lam1: float, m: int) -> np.ndarray:
    """lambda_k = lam1 * k^(-1-alpha), k = 1..m."""
    return lam1 * np.arange(1, m + 1, dtype=float) ** (-1.0 - alpha)


def aligned_target(lam: np.ndarray, norm: float = 1.0) -> np.ndarray:
    y = np.sqrt(lam)
    return norm * y / np.linalg.norm(y)


def powerlaw_tail(alpha: float, lam1: float, first: int, m: int) -> float:
    """sum_{k=first}^{m} lam1 k^(-1-alpha) as a Hurwitz-zeta difference."""
    s = 1.0 + alpha
    return lam1 * float(zeta(s, first) - zeta(s, m + 1))


# ------------------------------------------------- effective-ridge theory


def mode_var(lam: np.ndarray, P: int, k2: float) -> np.ndarray:
    return 1.0 / (P / k2 + 1.0 / lam)


def ridge_residual(lam: np.ndarray, P: int, kappa2: float, k2: float) -> float:
    """Relative residual of k2 = kappa2 + sum_k (P/k2 + 1/lambda_k)^-1."""
    return abs(k2 - kappa2 - float(np.sum(mode_var(lam, P, k2)))) / k2


def solve_ridge(lam: np.ndarray, P: int, kappa2: float) -> float:
    """The effective ridge by bracketed root finding (needs kappa2 > 0)."""
    return brentq(
        lambda x: x - kappa2 - float(np.sum(mode_var(lam, P, x))),
        kappa2,
        kappa2 + float(lam.sum()),
        xtol=1e-300,
        rtol=1e-15,
    )


def fluctuation_amplitude(lam: np.ndarray, y: np.ndarray, P: int, k2: float) -> float:
    """D from (1 - sum v^2 P/k2^2) D = sum ((k2/P)/(lambda + k2/P))^2 y^2."""
    v = mode_var(lam, P, k2)
    kp = k2 / P
    return float(np.sum((kp / (lam + kp)) ** 2 * y**2)) / (1.0 - float(np.sum(v**2)) * P / k2**2)


def learning_curve(lam: np.ndarray, y: np.ndarray, P: int, k2: float, D: float):
    """(bias, variance, type-ii variance) of the effective-ridge theory at ridge k2."""
    v = mode_var(lam, P, k2)
    kp = k2 / P
    bias = float(np.sum((kp / (lam + kp)) ** 2 * y**2))
    cross = float(np.sum(v**2)) * P / k2**2 * D
    return bias, float(np.sum(v)) + cross, cross


def scaling_consistency(lam_s: np.ndarray, y: np.ndarray, P: int, k2: float, D: float) -> float:
    """sum_k [l_k - D-term_k - y-term_k] of the C_MF equation at kernel lam_s."""
    kp = k2 / P
    learn = lam_s / (lam_s + kp)
    term_d = (P / k2**2) * lam_s / (P * lam_s / k2 + 1.0) ** 2 * D
    term_y = y**2 * lam_s / (lam_s + kp) ** 2
    return float(np.sum(learn - term_d - term_y))


# ---------------------------------------------------------------- kernels


def gauss_pair(f, a: float, b: float, c: float) -> float:
    """E[f(u) f(v)] for (u, v) ~ N(0, [[a, c], [c, b]]), Gauss-Hermite quadrature."""
    z1, z2 = _GH_Z[:, None], _GH_Z[None, :]
    u = math.sqrt(a) * z1
    v = (c / math.sqrt(a)) * z1 + math.sqrt(max(b - c * c / a, 0.0)) * z2
    return float(_GH_W @ (f(u) * f(v)) @ _GH_W)


def gauss_mean(f, a: float) -> float:
    """E[f(u)] for u ~ N(0, a)."""
    return float(_GH_W @ f(math.sqrt(a) * _GH_Z))


def erf_prime(z):
    return (2.0 / math.sqrt(math.pi)) * np.exp(-(z**2))


def erf_nngp(H: np.ndarray) -> np.ndarray:
    """Arcsine kernel E[erf(u) erf(v)] for preactivation covariance H."""
    h = 1.0 + 2.0 * np.diag(H)
    return (2.0 / np.pi) * np.arcsin(2.0 * H / np.sqrt(np.outer(h, h)))


def relu_pair(H: np.ndarray) -> np.ndarray:
    """Arc-cosine kernel E[relu(u) relu(v)] for covariance H."""
    norm = np.sqrt(np.outer(np.diag(H), np.diag(H)))
    theta = np.arccos(np.clip(H / norm, -1.0, 1.0))
    return norm / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * np.cos(theta))


def gaussian_product_se(K: np.ndarray, samples: int) -> np.ndarray:
    """Standard error of a sample mean of f(x) f(x') when f ~ GP(0, K)."""
    d = np.diag(K)
    return np.sqrt((np.outer(d, d) + K**2) / samples)


def erf_two_time(Kx: np.ndarray, lags: np.ndarray, omega: float, sigma_w2: float) -> np.ndarray:
    """Stationary OU two-time kernel E[erf(w(t).x/sqrt S) erf(w(t').x'/sqrt S)] by lag."""
    h = 1.0 + 2.0 * sigma_w2 * np.diag(Kx)
    denom = np.sqrt(np.outer(h, h))
    rho = sigma_w2 * np.exp(-omega * lags)[:, None, None] * Kx[None]
    return (2.0 / np.pi) * np.arcsin(2.0 * rho / denom)
