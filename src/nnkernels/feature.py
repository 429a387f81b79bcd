"""Finite-width feature-learning solvers for 2-layer networks.

Three self-consistent effects on top of the GP limit:

* kernel scaling — the whole kernel is divided by Q = 1 + C_MF/N, where
  C_MF solves a scalar consistency equation coupling back into the
  effective ridge and D of the scaled spectrum;
* kernel adaptation — the input-weight covariance becomes
  Sigma = c_perp I + (c_star - c_perp) w* w*^T, amplifying the teacher
  direction (c_perp = 1/S stays at its lazy value);
* on-data equivalence — the same scaling written directly on the train
  Gram, solved jointly for the discrepancy vector t and scalar Qbar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curves

ERF_OVERLAP = 4.0 / (3.0 * np.pi)


@dataclass
class KernelScalingSolution:
    C_MF: float
    Q: float
    kappa_eff2: float
    D: float
    converged: bool
    residual: float
    loss: float = float("nan")  # learning-curve loss of lambda/Q at the root
    learnability: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class AdaptationSolution:
    c_perp: float
    c_star: float
    lambda_star: float
    lambda_perp: float
    residual: float
    quadratic_root: float
    norm_check_ok: bool = True

    @property
    def amplification(self) -> float:
        return self.lambda_star / self.lambda_perp


@dataclass(frozen=True)
class TransferPlan:
    scale: float
    N: float
    kappa2: float
    gamma: float
    P: float


def _scaling_rhs(lam, y_k, P, kappa2, Q, N, dropped):
    """Target side of the C_MF consistency equation at kernel lambda/Q:
    sum_k l_k [1 - (1 - l_k)(D + P y_k^2)/kappa_eff^2].  ``dropped`` is the
    target mass of modes truncated off ``lam``: bias, and a source of D."""
    lam_s = lam / Q
    kappa_eff2 = curves.effective_ridge_solve(lam_s, P, kappa2)
    if kappa_eff2 <= 0:
        raise ValueError("effective ridge collapsed during kernel scaling")
    learn, miss, bias = curves._filter(lam_s, y_k, P, kappa_eff2)
    D = curves._amplitude(learn, bias + dropped, P)
    rhs = float(np.sum(learn * (1.0 - miss * (D + P * y_k**2) / kappa_eff2)))
    return rhs, kappa_eff2, D, learn


def _scaling_residual(u, lam, y_k, P, kappa2, N, dropped) -> float:
    """C_MF equation at Q = 1 + u: N(1 - 1/Q) - rhs(Q), increasing in its left side."""
    return N * u / (1.0 + u) - _scaling_rhs(lam, y_k, P, kappa2, 1.0 + u, N, dropped)[0]


def kernel_scaling_solve(lam, y_k, P: int, kappa2: float, N: float) -> KernelScalingSolution:
    """Solve C_MF/(1 + C_MF/N) = sum_k l_k [1 - (1 - l_k)(D + P y_k^2)/kappa_eff^2],
    with l_k, kappa_eff^2 and D those of the kernel lambda/Q, Q = 1 + C_MF/N.

    With C_MF = N(Q - 1) the left side is N(1 - 1/Q), which runs from
    -inf to N over Q > 0, while the right side goes to 0 as Q -> inf; a
    bracket grown outward from Q = 1 by factors of 2 therefore holds a
    root, found by ``curves.bracket_root``.  The unknown is u = Q - 1 = C_MF/N,
    which keeps C_MF to full precision when C_MF << N.  The spectrum is
    truncated once, as ``curves.learning_curve`` truncates it (the dropped
    modes' target mass stays in the bias and in D's source), and the
    effective ridge and D of the scaled spectrum are re-solved at every
    trial Q.  ``loss`` is the learning-curve loss of lambda/Q at the root,
    bias + variance = D + (kappa_eff^2/P) sum_k l_k.  ``residual`` is the
    relative residual of the C_MF equation at the returned root, and
    ``converged`` means it is below 1e-8.  Raises ``ValueError`` if no
    bracket is found within the growth cap.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    lam, y_k, dropped = curves._truncate_with_mass(lam, y_k)
    args = (lam, y_k, P, kappa2, N, dropped)
    f0 = _scaling_residual(0.0, *args)
    u = 0.0
    if f0 != 0.0:
        # residual < 0 below the root: Q = 1 + u doubles upward from 1, else halves
        step = (lambda u: 2.0 * u + 1.0) if f0 < 0.0 else (lambda u: 0.5 * u - 0.5)
        u = curves.bracket_root(_scaling_residual, 0.0, np.sign(f0), step, args)
    rhs, kappa_eff2, D, learn = _scaling_rhs(lam, y_k, P, kappa2, 1.0 + u, N, dropped)
    # bias + variance = D (1 - sum l^2/P) + (kappa_eff^2/P) sum l + (D/P) sum l^2
    loss = D + kappa_eff2 / P * float(np.sum(learn))
    C = N * u
    residual = abs(C / (1.0 + u) - rhs) / max(abs(rhs), 1.0)
    return KernelScalingSolution(
        C_MF=C,
        Q=1.0 + u,
        kappa_eff2=kappa_eff2,
        D=D,
        converged=residual < 1e-8,
        residual=residual,
        loss=loss,
        learnability=learn,
    )


def kernel_scaling_ridgeless_q(Y: float, N: float, X: float = 0.0) -> float:
    """Closed-form Q in the ridgeless limit.

    With the learnability sum X and target terms Y evaluated at GP
    values, Q solves Y Q^2 + (N - X) Q - N = 0 (positive branch); the
    commonly quoted form drops X: (Y/N) Q^2 + Q - 1 = 0.
    """
    if Y == 0:
        return N / (N - X)
    disc = (N - X) ** 2 + 4.0 * Y * N
    return (-(N - X) + np.sqrt(disc)) / (2.0 * Y)


def _adaptation_residual(c, S, A, b, e) -> float:
    """g(c) = 1/c - S + A/(b c + e)^2, strictly decreasing for c > 0."""
    return 1.0 / c - S + A / (b * c + e) ** 2


def adaptation_solve_linear(
    S: int,
    N_w: int,
    C: int,
    chi: float,
    P: int,
    kappa_eff2: float,
    target_coeff: float = 1.0,
) -> AdaptationSolution:
    """Input-weight covariance order parameters of the 2-layer linear CNN.

    c_perp = 1/S exactly; c_star is the root of

        g(c) = 1/c - S + A/(b c + e)^2,  A = target_coeff chi/(C N_w),
        b = 1/N_w,  e = kappa_eff2/P  (a teacher with |w*| = |a*| = 1).

    g is strictly decreasing for c > 0 and g(c_perp) = A/(b c_perp + e)^2
    >= 0, so the root is unique and lies at or above c_perp (equality iff
    chi = 0).  c_perp is returned where g(c_perp) rounds to <= 0;
    otherwise ``curves.bracket_root`` doubles a bracket up from c_perp and
    solves it.  ``target_coeff`` rescales the target drive (used by the
    Erf variant).
    """
    if min(S, N_w, C, P) <= 0 or chi < 0 or kappa_eff2 <= 0:
        raise ValueError("sizes must be positive, chi >= 0, kappa_eff2 > 0")
    c_perp = 1.0 / S
    A = target_coeff * chi / (C * N_w)
    args = (S, A, 1.0 / N_w, kappa_eff2 / P)
    c_star = c_perp
    if _adaptation_residual(c_perp, *args) > 0.0:
        c_star = curves.bracket_root(_adaptation_residual, c_perp, 1.0, lambda c: 2.0 * c, args)
    quad = (c_perp + np.sqrt(c_perp**2 + 4.0 * target_coeff * chi * N_w / (C * S))) / 2.0
    lam_star = c_star / N_w
    lam_perp = c_perp / N_w
    return AdaptationSolution(
        c_perp=c_perp,
        c_star=c_star,
        lambda_star=lam_star,
        lambda_perp=lam_perp,
        residual=abs(_adaptation_residual(c_star, *args)),
        quadratic_root=quad,
    )


def adaptation_solve_erf(
    S: int,
    N_w: int,
    C: int,
    chi: float,
    P: int,
    kappa_eff2: float,
) -> AdaptationSolution:
    """Erf-network adaptation: same fixed point, target drive reduced.

    The teacher enters through the Erf/linear overlap integral
    E[erf(w.x)(v.x)] = (2/sqrt(pi)) (w.v)/sqrt(1+2|w|^2); the drive term
    contains its square, which at unit norms is 4/(3 pi) ~ 0.42 — the
    only change relative to the linear fixed point.  Higher-harmonic
    feedback channels are excluded.
    """
    sol = adaptation_solve_linear(
        S, N_w, C, chi, P, kappa_eff2, target_coeff=ERF_OVERLAP
    )
    # mean-field norm replacement is only trustworthy while no single
    # direction dominates tr Sigma
    tr_sigma = S * sol.c_perp + (sol.c_star - sol.c_perp)
    sol.norm_check_ok = bool(sol.c_star < 0.5 * tr_sigma)
    return sol


def erf_linear_overlap(w_norm2: float = 1.0, wv: float = 1.0) -> float:
    """E_{x ~ N(0, I)}[ erf(w.x) (v.x) ] = (2/sqrt(pi)) (w.v)/sqrt(1+2|w|^2)."""
    return (2.0 / np.sqrt(np.pi)) * wv / np.sqrt(1.0 + 2.0 * w_norm2)


def predicted_learnability(sol: AdaptationSolution, P: int, kappa_eff2: float) -> float:
    """Teacher-mode learnability lambda_* / (lambda_* + kappa_eff^2 / P)."""
    return sol.lambda_star / (sol.lambda_star + kappa_eff2 / P)


def _ondata_residual(Q, mu, y2, c, ridge) -> float:
    """g(Q) = 1/Q - 1 + c sum mu y~^2/(Q mu + ridge)^2, strictly decreasing."""
    return 1.0 / Q - 1.0 + c * float(np.sum(mu * y2 / (Q * mu + ridge) ** 2))


def ondata_adaptation_fixed_point(K, y, chi: float, N: float, kappa2: float):
    """Joint fixed point t = [Qbar K + (kappa2/P) I]^{-1} y,
    Qbar = [1 - (chi/N) t^T K t]^{-1}.

    With K = V diag(mu) V^T and y~ = V^T y, eliminating t leaves one
    scalar equation g(Qbar) = 0 (``_ondata_residual``).  g is strictly
    decreasing, with g(1) >= 0 and g -> -1, so the root is unique in
    [1, inf): one ``eigh`` of K, then ``curves.bracket_root`` doubles a
    bracket [1, 2^k] and solves it.  Raises ``ValueError`` if no bracket is found
    within the growth cap.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    P = y.shape[0]
    mu, V = np.linalg.eigh(K)
    y_t = V.T @ y
    args = (mu, y_t**2, chi / N, kappa2 / P)
    Qbar = 1.0
    if _ondata_residual(1.0, *args) > 0.0:
        Qbar = curves.bracket_root(_ondata_residual, 1.0, 1.0, lambda q: 2.0 * q, args)
    t = V @ (y_t / (Qbar * mu + kappa2 / P))
    return t, Qbar


def ondata_pre_woodbury_residual(K, y, t, chi: float, N: float, kappa2: float) -> float:
    """Residual of the un-reduced form t = [[K^{-1} - (chi/N) t t^T]^{-1} + (kappa2/P) I]^{-1} y."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    P = y.shape[0]
    inner = np.linalg.inv(np.linalg.inv(K) - (chi / N) * np.outer(t, t))
    lhs = (inner + (kappa2 / P) * np.eye(P)) @ t
    return float(np.linalg.norm(lhs - y) / max(np.linalg.norm(y), 1e-300))


def transfer_rescale(N: float, kappa2: float, gamma: float, P: float, scale: float) -> TransferPlan:
    """Hyperparameter-transfer map: N -> s N, kappa2 -> kappa2/s,
    gamma -> gamma/s, P -> s^2 P (keeps N^2/P fixed)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return TransferPlan(
        scale=scale, N=scale * N, kappa2=kappa2 / scale, gamma=gamma / scale, P=scale**2 * P
    )
