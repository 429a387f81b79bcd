"""Dataset-averaged learning-curve theory.

Given a kernel spectrum ``lambda_k`` and target coefficients ``y_k``, the
mean predictor over random P-point datasets acts as a diagonal spectral
filter (the Equivalent Kernel).  At finite P the bare ridge ``kappa2`` is
replaced by a self-consistent effective ridge, and dataset-to-dataset
fluctuations of the mean predictor are captured by a single amplitude D.

Everything follows from one per-mode filter, the learnability

    l_k = lambda_k / (lambda_k + kappa_eff^2 / P),

with the mean predictor <f_k> = l_k y_k.  Per mode, with
v_k = (kappa_eff^2/P) l_k,

    Cov_same-draw  = v_k + l_k^2 D / P
    Cov_cross-draw =       l_k^2 D / P

and D solves

    (1 - sum_k l_k^2 / P) D = sum_k ((1 - l_k) y_k)^2,

whose source is the bias, the squared *discrepancy* of the averaged
predictor.  (The published display of this equation carries the low-pass
filter l_k in the source; the self-consistency that defines D — and the
Monte-Carlo oracle — require the high-pass discrepancy filter 1 - l_k
used here.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

#: spectra are truncated once the remaining tail is this small vs the trace
TAIL_TRUNCATION_RTOL = 1e-12

#: brentq tolerances of every scalar root solve: the root to a few ulps,
#: however close to 0 it lies
BRENTQ_XTOL = 1e-300
BRENTQ_RTOL = 4.0 * np.finfo(float).eps
#: most steps ``bracket_root`` takes to find a sign change
BRACKET_STEPS = 64


@dataclass
class LearningCurvePrediction:
    P: int
    kappa_eff2: float
    D: float
    learnability: np.ndarray
    mean_mode: np.ndarray
    variance_per_mode: np.ndarray
    bias: float
    variance: float
    type_ii_variance: float = 0.0  # sum_k l_k^2 D / P; 0 for plain EK

    @property
    def total(self) -> float:
        return self.bias + self.variance


@dataclass
class RGFlowResult:
    kappa_rg2: float
    cutoff_index: int  # number of modes kept (indices 0..cutoff-1 survive)
    trajectory: np.ndarray  # (m - cutoff + 1, 2) rows of (modes remaining, ridge), tail inward
    epsilon: float
    absorbed_target: float  # sum of y_k^2 over integrated-out modes


def truncate_spectrum(lam: np.ndarray, y: np.ndarray | None = None):
    """Drop the tail once its sum is < TAIL_TRUNCATION_RTOL * trace."""
    lam = np.asarray(lam, dtype=float)
    tail = np.cumsum(lam[::-1])[::-1]
    keep = tail > TAIL_TRUNCATION_RTOL * tail[0] if lam.size else np.zeros(0, bool)
    m = int(np.sum(keep))
    if y is None:
        return lam[:m]
    return lam[:m], np.asarray(y, dtype=float)[:m]


def _truncate_with_mass(lam, y):
    """``truncate_spectrum`` of (lam, y) and the target mass sum y_k^2 of
    the dropped modes, which are never learned: it is bias, and a source of D."""
    lam_kept, y_kept = truncate_spectrum(lam, y)
    dropped = float(np.sum(np.asarray(y, dtype=float)[lam_kept.size :] ** 2))
    return lam_kept, y_kept, dropped


def ek_predict(lam, y_k, P: int, kappa2: float) -> LearningCurvePrediction:
    """Equivalent-Kernel prediction at ridge ``kappa2`` (no self-consistency).

    f_k = l_k y_k with l_k = lambda_k/(lambda_k + kappa2/P);
    V = sum_k v_k, v_k = (kappa2/P) l_k;
    B = sum_k ((1 - l_k) y_k)^2.
    Null modes get l_k = 0, hence v_k = 0.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    if kappa2 <= 0:
        raise ValueError(
            "EK needs a positive ridge; solve an effective or RG ridge first"
        )
    lam = np.asarray(lam, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    learn, _, bias = _filter(lam, y_k, P, kappa2)
    v = (kappa2 / P) * learn
    return LearningCurvePrediction(
        P=P,
        kappa_eff2=kappa2,
        D=0.0,
        learnability=learn,
        mean_mode=learn * y_k,
        variance_per_mode=v,
        bias=bias,
        variance=float(np.sum(v)),
    )


def effective_ridge_solve(lam, P: int, kappa2: float) -> float:
    """Self-consistent ridge: kappa_eff^2 = kappa2 + sum_k (P/kappa_eff^2 + 1/lambda_k)^{-1}.

    Divided by x = kappa_eff^2 the equation reads h(x) = 0 with

        h(x) = 1 - kappa2/x - sum_k lambda_k/(P lambda_k + x),

    strictly increasing in x and >= 0 at kappa2 + tr lambda, so one
    ``brentq`` finds its only root.  For kappa2 > 0 the bracket is
    [kappa2, kappa2 + tr lambda]; where h(kappa2 + tr lambda) rounds to
    <= 0 (tr lambda << kappa2) the root lies within rounding of that end,
    which is returned.  Ridgeless, h(0+) = 1 - M/P with M the number of
    positive modes: for M <= P every mode is learnable and the ridge
    collapses to 0; otherwise ``bracket_root`` shrinks the lower end
    geometrically from tr lambda until h < 0, and raises ``ValueError``
    if it cannot.  Never returns an unconverged value.
    """
    lam = np.asarray(lam, dtype=float)
    if P <= 0:
        raise ValueError("P must be positive")
    if kappa2 < 0:
        raise ValueError("kappa2 must be non-negative")
    positive = lam > 0
    M = int(np.count_nonzero(positive))
    if M < lam.size:
        lam = lam[positive]
    tr = float(lam.sum())
    if M == 0 or tr == 0.0:
        return kappa2
    if kappa2 == 0.0 and M <= P:
        return 0.0
    args = (lam, P, kappa2, np.empty_like(lam))
    hi = kappa2 + tr
    if _ridge_residual(hi, *args) <= 0.0:
        return hi
    if kappa2 == 0.0:
        return bracket_root(_ridge_residual, hi, 1.0, lambda x: x / 16.0, args)
    return brentq(_ridge_residual, kappa2, hi, args=args, xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL)


def bracket_root(f, x, sign: float, step, args) -> float:
    """Root of a monotone scalar ``f(x, *args)`` whose sign at ``x`` is ``sign``.

    ``x`` moves outward, ``x -> step(x)``, at most ``BRACKET_STEPS`` times
    until f takes the opposite sign; one ``brentq`` then solves on that
    last step.  Raises ``ValueError`` naming the bracket searched if it
    never does.  Arrays reach f through ``args``, not a closure: brentq
    keeps its callable in a reference cycle that outlives the call.
    """
    x0 = x
    for _ in range(BRACKET_STEPS):
        prev, x = x, step(x)
        if sign * f(x, *args) < 0.0:
            lo, hi = sorted((prev, x))
            return brentq(f, lo, hi, args=args, xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL)
    lo, hi = sorted((x0, x))
    raise ValueError(f"{f.__name__}: no bracket, no sign change on [{lo:.3e}, {hi:.3e}]")


def _ridge_residual(x, lam, P, kappa2, buf) -> float:
    """h(x) = 1 - kappa2/x - sum_k lambda_k/(P lambda_k + x), written as
    (1/P) sum_k lambda_k/(lambda_k + x/P) so that no P*lambda array is kept."""
    np.add(lam, x / P, out=buf)
    np.divide(lam, buf, out=buf)
    return 1.0 - kappa2 / x - float(buf.sum()) / P


def _filter(lam: np.ndarray, y_k, P: int, kappa_eff2: float):
    """(l_k, 1 - l_k, bias) at ridge kappa_eff^2.  1 - l_k is computed as
    (kappa_eff^2/P)/(lambda_k + kappa_eff^2/P), to full relative precision
    where l_k is near 1."""
    kp = kappa_eff2 / P
    den = lam + kp
    miss = kp / den
    return lam / den, miss, float(np.sum((miss * y_k) ** 2))


def _amplitude(learn: np.ndarray, bias: float, P: int) -> float:
    """D from (1 - sum_k l_k^2/P) D = bias.  The prefactor must come out
    positive for a consistent spectrum/ridge pairing."""
    prefactor = 1.0 - float(np.sum(learn**2)) / P
    if prefactor <= 0:
        raise ValueError(f"non-positive D prefactor {prefactor:.3e}: invalid spectrum/ridge pairing")
    return bias / prefactor


def solve_D(lam, y_k, P: int, kappa_eff2: float) -> float:
    """Across-dataset variance amplitude of the mean predictor:
    (1 - sum_k l_k^2/P) D = sum_k ((1 - l_k) y_k)^2 at ridge kappa_eff^2."""
    learn, _, bias = _filter(np.asarray(lam, dtype=float), np.asarray(y_k, dtype=float), P, kappa_eff2)
    return _amplitude(learn, bias, P)


def mode_covariance(lam, P: int, kappa_eff2: float, D: float):
    """(same-seed diagonal term v_k, cross-dataset term l_k^2 D/P) per mode."""
    lam = np.asarray(lam, dtype=float)
    learn = lam / (lam + kappa_eff2 / P)
    return (kappa_eff2 / P) * learn, learn**2 * (D / P)


def learning_curve(lam, y_k, P: int, kappa2: float) -> LearningCurvePrediction:
    """Full effective-ridge prediction: EK at kappa_eff^2 plus D fluctuations,
    v_k + l_k^2 D/P per mode.  Modes past the truncation count in the bias
    with all their target mass (their l_k is ~0); the per-mode arrays cover
    the kept modes."""
    lam, y_k, dropped = _truncate_with_mass(lam, y_k)
    kappa_eff2 = effective_ridge_solve(lam, P, kappa2)
    if kappa_eff2 <= 0:
        raise ValueError("effective ridge collapsed to 0; spectrum fully learnable at this P")
    pred = ek_predict(lam, y_k, P, kappa_eff2)
    pred.bias += dropped
    pred.D = _amplitude(pred.learnability, pred.bias, P)
    cross = pred.learnability**2 * (pred.D / P)
    pred.type_ii_variance = float(np.sum(cross))
    pred.variance_per_mode += cross
    pred.variance = float(np.sum(pred.variance_per_mode))
    return pred


def perturbative_ek_correction_deep_linear(delta_star, lam, y_k, P: int, kappa2: float, u1: float, N: float):
    """1/N multiplicative correction to the EK discrepancy of a deep linear net.

    <f - y> = delta_star * [1 + (3 u1 / 6N) sum_k y_k^2 lambda_k /
    (lambda_k + kappa2/P)^2].
    """
    if N <= 0:
        raise ValueError("N must be positive")
    lam = np.asarray(lam, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    kp = kappa2 / P
    factor = 1.0 + (3.0 * u1 / (6.0 * N)) * float(np.sum(y_k**2 * lam / (lam + kp) ** 2))
    return np.asarray(delta_star) * factor


def rg_flow(lam, y_k, P: int, kappa2: float, epsilon: float = 0.01) -> RGFlowResult:
    """Integrate out unlearnable tail modes, each adding lambda to the ridge.

    A mode at index L is unlearnable when P lambda_L / kappa_RG^2(L) <=
    epsilon, where kappa_RG^2(L) = kappa2 plus the spectrum tail from L
    down.  The cutoff is the topmost such crossing; everything below it
    is absorbed into the ridge.  (On a truncated spectrum the ratio
    re-crosses epsilon near the truncation edge because the tail sum is
    incomplete there; those artifacts are ignored.)  Target mass y_L^2 of
    absorbed modes is recorded but, the flow renormalizing only the
    identity coefficient, never fed back into the ridge.
    """
    lam = np.asarray(lam, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    m = lam.size
    # ridge seen by mode idx once everything from idx down is absorbed
    tail = kappa2 + np.cumsum(lam[::-1])[::-1]
    ratio = P * lam / np.where(tail > 0, tail, np.inf)
    # cutoff = topmost learnability crossing: the first mode (scanning from
    # the largest eigenvalue) already unlearnable under the ridge built
    # from itself and everything below it; deeper re-crossings caused by
    # truncating the spectrum are ignored
    unlearnable = np.nonzero(ratio <= epsilon)[0]
    cutoff = int(unlearnable[0]) if unlearnable.size else m
    absorbed = float(np.sum(y_k[cutoff:] ** 2))
    ridge = float(kappa2 + np.sum(lam[cutoff:]))
    # row 0 is (m, kappa2); row i adds lam[m - i] to the ridge, tail inward,
    # in the same order a running sum would
    ridges = np.cumsum(np.concatenate(([kappa2], lam[cutoff:][::-1])))
    trajectory = np.column_stack((np.arange(m, cutoff - 1, -1, dtype=float), ridges))
    # exact identity by construction: ridge = kappa2 + tail sum
    return RGFlowResult(
        kappa_rg2=ridge,
        cutoff_index=cutoff,
        trajectory=trajectory,
        epsilon=epsilon,
        absorbed_target=absorbed,
    )


def scaling_exponent(alpha: float, regime: str) -> float:
    """Predicted learning-curve exponent for lambda_k ~ k^{-1-alpha}."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if regime == "ek":
        return alpha / (1.0 + alpha)
    if regime == "ridgeless":
        return alpha
    raise ValueError("regime must be 'ek' or 'ridgeless'")


def learnability_threshold(q: int, d_in: int, kappa_eff2: float, norm_ratio: float = 1.0) -> float:
    """Sample count where degree-q harmonic targets start being learned.

    P_* = kappa_eff^2 * d_in^q * norm_ratio.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    return kappa_eff2 * float(d_in) ** q * norm_ratio
