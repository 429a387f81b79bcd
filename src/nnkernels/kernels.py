"""NNGP / NTK kernel construction for fully connected and patch-CNN networks.

Conventions
-----------
Networks are written in the "NTK parametrization": every trainable weight
is a standard normal at initialization and the layer variances enter as
explicit scale factors in the forward pass,

    f(x) = sqrt(sigma_a^2 / (chi * N_w * C)) * sum_{i,c} a_{ic}
           * act( sqrt(sigma_w^2 / S) * w_c . x_i ),

where ``x_i`` are the ``N_w`` non-overlapping patches of size ``S``
(``N_w = 1`` recovers the fully connected case, ``S = d``).  The factor
``chi`` is the mean-field output down-scaling.

The input-layer Gram matrix is per-patch ``x_i . x'_i / S`` averaged over
patches, so inputs normalised to ``|x|^2 ~ d`` give unit kernel diagonal.
The divisor is configurable (``input_scale``) because both ``1/S`` and
``1/d`` conventions appear in the literature.

Activations
-----------
``ACTIVATIONS`` (rows of type ``Activation``) is the one place where
activation math lives; every kernel, two-time kernel and oracle reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erf

from .rng import stream

_ASIN_CLAMP_TOL = 1e-12


def _arcsine(v1, v2, cov):
    """E[erf(u) erf(v)], the arcsine kernel; raises if asin's argument leaves [-1, 1]."""
    x = 2.0 * cov / np.sqrt((1.0 + 2.0 * v1) * (1.0 + 2.0 * v2))
    bad = np.max(np.abs(x)) - 1.0
    if bad > _ASIN_CLAMP_TOL:
        raise FloatingPointError(f"asin argument out of range by {bad:.3e}")
    return (2.0 / np.pi) * np.arcsin(np.clip(x, -1.0, 1.0))


def _arc_cosine(order: int, v1, v2, cov):
    """Arc-cosine kernel of order 0 (E[step(u) step(v)]) or 1 (E[relu(u) relu(v)])."""
    norm = np.sqrt(v1 * v2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(norm > 0, cov / np.where(norm > 0, norm, 1.0), 0.0)
    theta = np.arccos(np.clip(rho, -1.0, 1.0))
    if order == 0:
        return (np.pi - theta) / (2.0 * np.pi)
    return (norm / (2.0 * np.pi)) * (np.sin(theta) + (np.pi - theta) * np.cos(theta))


class Activation(NamedTuple):
    """An activation's elementwise maps and its Gaussian pair expectations.

    ``pair`` / ``dpair`` map (var u, var v, cov), which broadcast, to
    E[sigma(u) sigma(v)] / E[sigma'(u) sigma'(v)] for zero-mean jointly
    Gaussian (u, v): for erf the arcsine kernel (Williams 1997) and a
    Gaussian integral, for relu the arc-cosine kernels of order 1 and 0
    (Cho & Saul 2009).
    """

    sigma: Callable
    dsigma: Callable
    pair: Callable
    dpair: Callable


ACTIVATIONS = {
    "linear": Activation(
        lambda z: z,
        lambda z: 1.0,  # a scalar: the Langevin step multiplies by it in place
        lambda v1, v2, cov: np.array(cov, dtype=float),
        lambda v1, v2, cov: np.ones(np.broadcast(v1, v2, cov).shape),
    ),
    "erf": Activation(
        erf,
        lambda z: (2.0 / math.sqrt(math.pi)) * np.exp(-(z**2)),
        _arcsine,
        # a 2-d Gaussian integral of exp(-u^2 - v^2): (4/pi) / sqrt(det(I + 2 H_2x2))
        lambda v1, v2, cov: (4.0 / np.pi) / np.sqrt((1.0 + 2.0 * v1) * (1.0 + 2.0 * v2) - 4.0 * cov**2),
    ),
    "relu": Activation(
        lambda z: np.maximum(z, 0.0),
        lambda z: (z > 0).astype(float),
        lambda v1, v2, cov: _arc_cosine(1, v1, v2, cov),
        lambda v1, v2, cov: _arc_cosine(0, v1, v2, cov),
    ),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture plus variance conventions for one network family."""

    depth: int
    input_dim: int
    patch_count: int = 1
    activation: str = "erf"
    weight_var: float = 1.0
    readout_var: float = 1.0
    chi: float = 1.0
    channels: int = 1
    bias_var: float = 0.0
    input_scale: str = "patch"  # "patch": 1/S per patch; "dim": 1/d

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.input_dim < 1 or self.patch_count < 1:
            raise ValueError("input_dim and patch_count must be positive")
        if self.input_dim % self.patch_count != 0:
            raise ValueError("patch_count must divide input_dim")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        if min(self.weight_var, self.readout_var, self.chi) <= 0:
            raise ValueError("variances and chi must be positive")
        if self.channels < 1:
            raise ValueError("channels must be positive")
        if self.input_scale not in ("patch", "dim"):
            raise ValueError("input_scale must be 'patch' or 'dim'")

    @property
    def patch_size(self) -> int:
        return self.input_dim // self.patch_count

    @property
    def _input_divisor(self) -> float:
        return float(self.patch_size if self.input_scale == "patch" else self.input_dim)


@dataclass
class KernelMatrix:
    """Symmetric PSD Gram matrix on a point set."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("kernel matrix must be square")
        scale = np.max(np.abs(A)) or 1.0
        if np.max(np.abs(A - A.T)) > 1e-12 * scale:
            raise ValueError("kernel matrix is not symmetric")
        self.entries = 0.5 * (A + A.T)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _pair_moment(pair: Callable, H: np.ndarray) -> np.ndarray:
    """``pair``, an ``Activation.pair`` or ``.dpair``, on the covariance ``H``
    over points, whose diagonal holds the marginal variances."""
    h = np.diag(H)
    return pair(h[:, None], h[None, :], H)


def _patches(X: np.ndarray, input_dim: int, patch_count: int) -> np.ndarray:
    """Inputs checked (finite, ``input_dim`` columns) and viewed as (n, N_w, S) patches."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs must be finite")
    n, d = X.shape
    if d != input_dim:
        raise ValueError("input dimension mismatch")
    return X.reshape(n, patch_count, d // patch_count)


def patch_columns(Xp: np.ndarray) -> np.ndarray:
    """(n, N_w, S) input patches as one (S, N_w * n) matrix whose column
    ``i * n + m`` is patch i of input m, so that one matrix product applies
    a first-layer weight to every patch of every input."""
    n, Nw, S = Xp.shape
    return Xp.transpose(2, 1, 0).reshape(S, Nw * n)


def _patch_mean(Xp: np.ndarray, Yp: np.ndarray, divisor: float, term: Callable, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the mean over patches i of ``term(G_i)``, where
    G_i = Y_i X_i^T / divisor is patch i's Gram matrix and X_i, Y_i are the
    (n, S) slices of ``Xp``, ``Yp``: ``Yp`` is ``Xp`` for the Euclidean Gram
    and ``Xp @ Sigma`` for the one weighted by a covariance ``Sigma``.
    ``term`` may overwrite G_i, and the array it returns is overwritten."""
    grams = (Yp[:, i] @ Xp[:, i].T / divisor for i in range(Xp.shape[1]))
    K = term(next(grams))
    for G in grams:
        K += term(G)
    K *= scale
    K /= Xp.shape[1]
    return K


def patch_gram(X: np.ndarray, spec: NetworkSpec) -> np.ndarray:
    """Input-layer kernel: per-patch Gram averaged over patches."""
    Xp = _patches(X, spec.input_dim, spec.patch_count)
    return _patch_mean(Xp, Xp, spec._input_divisor, lambda G: G)


def nngp_kernel(spec: NetworkSpec, X: np.ndarray) -> KernelMatrix:
    """NNGP kernel of the infinite-width network via the layer recursion.

    ``K0`` is the input Gram; each hidden layer maps the running kernel
    through the activation's Gaussian pair expectation at preactivation
    covariance ``sigma_w^2 * K``; the readout multiplies by
    ``sigma_a^2 / chi``.  For a CNN the independent readout weights kill
    cross-patch terms, so the recursion acts on each per-patch Gram and
    the result is averaged over patches (Novak et al. 2019; for a linear
    activation this coincides with activating the patch-averaged Gram).
    """
    if spec.patch_count > 1 and spec.depth != 2:
        raise ValueError("CNN NNGP implemented for depth 2 only")
    pair = ACTIVATIONS[spec.activation].pair

    def term(K):
        for _ in range(spec.depth - 1):
            K *= spec.weight_var  # in place: the patch Gram is not used again
            K += spec.bias_var
            K = _pair_moment(pair, K)
        return K

    Xp = _patches(X, spec.input_dim, spec.patch_count)
    return KernelMatrix(_patch_mean(Xp, Xp, spec._input_divisor, term, spec.readout_var / spec.chi))


def ntk_kernel_2layer(spec: NetworkSpec, X: np.ndarray) -> KernelMatrix:
    """Neural Tangent Kernel of a 2-layer network at initialization.

    Theta = Phi + sigma_w^2 * Phi' ∘ Kx where Phi / Phi' are the
    activation and activation-derivative pair expectations at the first
    layer, and Kx is the input Gram; equals the initialization-averaged
    gradient Gram sum over both weight layers.  CNN patches enter
    per patch, averaged at the readout.
    """
    if spec.depth != 2:
        raise ValueError("NTK closed form implemented for depth 2 only")
    act = ACTIVATIONS[spec.activation]

    def term(Kx):
        H = spec.weight_var * Kx + spec.bias_var
        return _pair_moment(act.pair, H) + spec.weight_var * _pair_moment(act.dpair, H) * Kx

    Xp = _patches(X, spec.input_dim, spec.patch_count)
    return KernelMatrix(_patch_mean(Xp, Xp, spec._input_divisor, term, spec.readout_var / spec.chi))


def adapted_kernel_erf(Sigma: np.ndarray, X: np.ndarray, patch_count: int = 1) -> KernelMatrix:
    """Erf kernel with an adapted input-weight covariance ``Sigma``.

    K(x, x') = (2 / (pi * N_w)) * sum_i asin[ 2 x_i' Sigma x'_i /
               sqrt((1 + 2 x_i' Sigma x_i)(1 + 2 x'_i' Sigma x'_i)) ],

    the Erf-Erf Gaussian expectation with preactivation covariance
    x_i' Sigma x'_i; Sigma = sigma_w^2 I / S recovers the lazy NNGP
    kernel.  ``X`` has ``patch_count`` patches of Sigma's size each.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    if np.max(np.abs(Sigma - Sigma.T)) > 1e-10 * (np.max(np.abs(Sigma)) or 1.0):
        raise ValueError("Sigma must be symmetric")
    _check_psd(Sigma)
    Xp = _patches(X, patch_count * Sigma.shape[0], patch_count)
    return KernelMatrix(_patch_mean(Xp, Xp @ Sigma, 1.0, lambda G: _pair_moment(ACTIVATIONS["erf"].pair, G)))


def _check_psd(Sigma: np.ndarray) -> None:
    """Raises unless the symmetric part of ``Sigma`` is positive semi-definite."""
    evals = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.T))
    if evals.size and evals[0] < -1e-10 * max(evals[-1], 1.0):
        raise ValueError("Sigma must be positive semi-definite")


#: Bytes allowed for each per-block array of ``empirical_kernel_mc`` and
#: ``dynamics.phi_kernels_mc`` (one sample's activations times the block's count).
MC_BLOCK_BYTES = 64 << 20


def _mc_blocks(total: int, item_bytes: int):
    """(block index, count) pairs: ``total`` items in blocks of at most ``MC_BLOCK_BYTES``."""
    size = max(1, MC_BLOCK_BYTES // item_bytes)
    for block, start in enumerate(range(0, total, size)):
        yield block, min(size, total - start)


def _forward(spec: NetworkSpec, Xp: np.ndarray, rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """Last hidden layer of ``n_samples`` random networks, transposed.

    ``Xp`` holds the (n, N_w, S) input patches; the result has shape
    (n_samples, C, N_w * n), column ``i * n + m`` being patch i of input m.

    Each layer is drawn from its exact law given the layer below.  For one
    sample's (rows x width_in) activations h and iid N(0, 1) weights W,
    h @ W has the law of F @ Z with Z iid N(0, 1) of shape
    (k, C), k = min(width_in, rows): F is h itself when width_in <= rows,
    else R^T from h^T = QR, because Q^T W is again iid N(0, 1).  Unlike a
    Cholesky factor of h h^T this stays exact when h h^T is singular.
    Every hidden layer is still sampled at width C, with k * C normals per
    layer and sample instead of width_in * C.  A bias, one N(0, sigma_b^2)
    per unit, is drawn after the weights and only when ``bias_var > 0``.
    """
    if spec.depth > 2 and spec.patch_count != 1:
        raise ValueError("depth > 2 Monte Carlo supports fully connected nets only")
    C = spec.channels
    sigma = ACTIVATIONS[spec.activation].sigma
    hT = patch_columns(Xp)  # the first layer's input, shared by every sample
    div = spec._input_divisor
    for _ in range(spec.depth - 1):
        if hT.shape[-2] > hT.shape[-1]:
            hT = np.linalg.qr(hT, mode="r")  # R with R^T R = h h^T
        pre = rng.standard_normal((n_samples, C, hT.shape[-2])) @ hT
        pre *= math.sqrt(spec.weight_var / div)
        if spec.bias_var > 0:
            pre += math.sqrt(spec.bias_var) * rng.standard_normal((n_samples, C, 1))
        hT = sigma(pre)
        div = C
    return hT


def empirical_kernel_mc(spec: NetworkSpec, X: np.ndarray, samples: int, seed: int) -> KernelMatrix:
    """Monte-Carlo estimate of the output covariance over weight draws.

    Hidden layers are sampled at finite width (``_forward``); the
    readout is integrated instead of drawn: given the last layer H, with
    C channels and N_w patches, E[f f^T | H] = sigma_a^2 / (chi N_w C) *
    sum over channels and patches of H H^T.  The estimator has the mean
    of the drawn readout and no larger variance.

    Blocks hold as many samples as keep every per-block array, of
    n * max(N_w * C, d) floats per sample, within ``MC_BLOCK_BYTES``.
    Block b draws from ``stream(seed, "kernel_mc", b)``, so the result is
    independent of how blocks are scheduled.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    Xp = _patches(X, spec.input_dim, spec.patch_count)
    n = Xp.shape[0]
    M = np.zeros((n, n))
    for block, count in _mc_blocks(samples, 8 * n * max(spec.patch_count * spec.channels, spec.input_dim)):
        H = _forward(spec, Xp, stream(seed, "kernel_mc", block), count).reshape(-1, n)
        M += H.T @ H
    return KernelMatrix(M * spec.readout_var / (spec.chi * spec.patch_count * spec.channels * samples))


def wick_moment(mu: np.ndarray, Sigma: np.ndarray, indices) -> float:
    """Gaussian moment E[w_{i1} ... w_{ik}] by the Wick–Isserlis expansion.

    Sums over every split of the index list into singletons (taking the
    mean) and pairs (taking the covariance).  ``indices`` are 0-based
    positions into ``mu`` / ``Sigma``.  Length is capped at 8 because the
    number of terms grows factorially.
    """
    idx = list(indices)
    if len(idx) > 8:
        raise ValueError("moment order capped at 8")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    _check_psd(Sigma)

    def rec(rest: tuple) -> float:
        if not rest:
            return 1.0
        i0, tail = rest[0], rest[1:]
        total = mu[i0] * rec(tail)
        for j in range(len(tail)):
            total += Sigma[i0, tail[j]] * rec(tail[:j] + tail[j + 1 :])
        return total

    return float(rec(tuple(idx)))
