"""Kernel spectra with respect to a data measure.

The kernel operator acts by weighted sums over sample points,

    (T_K phi)(x_mu) = sum_nu w_nu K(x_mu, x_nu) phi(x_nu),

so eigenvalues approximate operator eigenvalues directly and stay
comparable across sample sizes.  Diagonalization goes through the
symmetric matrix W^{1/2} K W^{1/2}; eigenvectors are mapped back to
functions orthonormal under the measure, sum_mu w_mu phi_j phi_k = delta_jk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


#: eigenvalues below this fraction of the top one count as null space
PSEUDO_INVERSE_RTOL = 1e-12


@dataclass(frozen=True)
class DataMeasure:
    """Sample points with non-negative weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must align")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @staticmethod
    def uniform(points: np.ndarray) -> "DataMeasure":
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        return DataMeasure(points, np.full(n, 1.0 / n))


@dataclass
class SpectralDecomposition:
    """Eigenvalues (descending, clipped at 0) and measure-orthonormal modes."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # column k = phi_k sampled on the points
    clipped: float = 0.0  # most negative raw eigenvalue clipped away

    @property
    def m(self) -> int:
        return self.eigenvalues.shape[0]


def _weighted(K, measure: DataMeasure):
    """K as an array, the support mask, sqrt of its weights, and W^{1/2} K W^{1/2} on it."""
    K = np.asarray(K, dtype=float)
    if K.shape[0] != measure.n:
        raise ValueError("kernel and measure point counts differ")
    w = measure.weights
    support = w > 0
    sqw = np.sqrt(w[support])
    return K, support, sqw, K[np.ix_(support, support)] * np.outer(sqw, sqw)


def _clip(lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues clipped at 0, and the most negative one clipped away (0 if none)."""
    return np.clip(lam, 0.0, None), float(min(lam.min(initial=0.0), 0.0))


def eigenvalues(K, measure: DataMeasure) -> tuple[np.ndarray, float]:
    """The eigenvalues of ``eigendecompose`` (descending, clipped at 0) and ``clipped``,
    from an eigenvalue-only solve."""
    _, _, _, A = _weighted(K, measure)
    return _clip(np.linalg.eigvalsh(A)[::-1])


def eigendecompose(K, measure: DataMeasure) -> SpectralDecomposition:
    """Solve sum_nu w_nu K(x_mu, x_nu) phi_k(x_nu) = lambda_k phi_k(x_mu)."""
    K, support, sqw, A = _weighted(K, measure)
    w = measure.weights
    n = K.shape[0]
    lam, V = np.linalg.eigh(A)
    order = np.argsort(lam, kind="stable")[::-1]
    lam, clipped = _clip(lam[order])
    V = V[:, order]

    phi_s = V / sqw[:, None]
    # extend eigenfunctions to zero-weight points through the eigenvalue
    # equation itself (only possible for lambda_k > 0; null modes get 0)
    Phi = np.zeros((n, lam.size))
    Phi[support] = phi_s
    if not np.all(support):
        Kzs = K[np.ix_(~support, support)]
        with np.errstate(divide="ignore", invalid="ignore"):
            ext = (Kzs * w[support]) @ phi_s
            ext = np.where(lam > 0, ext / np.where(lam > 0, lam, 1.0), 0.0)
        Phi[~support] = ext

    # deterministic sign: first component above threshold made positive
    mag = np.abs(Phi)
    big = mag > 1e-8 * np.maximum(mag.max(axis=0, initial=0.0), 1e-300)
    first = Phi[big.argmax(axis=0), np.arange(lam.size)]
    flip = big.any(axis=0) & (first < 0)
    Phi[:, flip] = -Phi[:, flip]
    return SpectralDecomposition(lam, Phi, clipped=clipped)


def target_coefficients(y: np.ndarray, dec: SpectralDecomposition, measure: DataMeasure) -> np.ndarray:
    """Mode coefficients y_k = sum_mu w_mu phi_k(x_mu) y(x_mu)."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] != measure.n or dec.eigenfunctions.shape[0] != measure.n:
        raise ValueError("size mismatch between target, decomposition, measure")
    return dec.eigenfunctions.T @ (measure.weights * y)


def rkhs_norm(g: np.ndarray, K, measure: DataMeasure) -> float:
    """Squared-norm style RKHS functional sum_k g_k^2 / lambda_k.

    Modes with lambda_k < PSEUDO_INVERSE_RTOL * lambda_1 are treated as
    null space; if ``g`` carries more than 1e-6 of its squared norm
    there, it is declared outside the (numerical) RKHS.
    """
    g = np.asarray(g, dtype=float)
    dec = eigendecompose(K, measure)
    gk = target_coefficients(g, dec, measure)
    total = float(gk @ gk)
    if total == 0.0:
        return 0.0
    lam1 = dec.eigenvalues[0] if dec.m else 0.0
    keep = dec.eigenvalues > PSEUDO_INVERSE_RTOL * lam1
    outside = float(gk[~keep] @ gk[~keep])
    if outside > 1e-6 * total:
        raise ValueError(
            f"function lies outside the numerical RKHS "
            f"(null-space mass fraction {outside / total:.3e})"
        )
    return float(np.sum(gk[keep] ** 2 / dec.eigenvalues[keep]))


def powerlaw_spectrum(alpha: float, lam1: float, count: int) -> np.ndarray:
    """lambda_k = lam1 * k^{-1-alpha}, k = 1..count."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k = np.arange(1, count + 1, dtype=float)
    return lam1 * k ** (-1.0 - alpha)


def hypersphere_degeneracy(level: int, d_in: int) -> int:
    """Dimension of the degree-``level`` harmonic space on the (d_in-1)-sphere.

    d_alpha = (2*alpha + d - 2) / (alpha + d - 2) * binomial(alpha + d - 2, alpha),
    with d_0 = 1.
    """
    if d_in < 2:
        raise ValueError("d_in must be >= 2")
    if level < 0:
        raise ValueError("level must be non-negative")
    if level == 0:
        return 1
    a, d = level, d_in
    num = (2 * a + d - 2) * math.comb(a + d - 2, a)
    den = a + d - 2
    if num % den != 0:
        raise ArithmeticError("degeneracy formula did not divide evenly")
    return num // den


def mercer_reconstruction(dec: SpectralDecomposition) -> np.ndarray:
    """sum_k lambda_k phi_k(x) phi_k(x'), the Mercer series on the sample."""
    return (dec.eigenfunctions * dec.eigenvalues) @ dec.eigenfunctions.T


def spectral_budget(dec: SpectralDecomposition) -> float:
    """Total operator trace sum_k lambda_k (= int dmu K(x,x))."""
    return float(np.sum(dec.eigenvalues))
