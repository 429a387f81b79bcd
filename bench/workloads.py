"""The benchmark's workloads: inputs made from the seed, program calls, checks.

Every workload is a list of operations.  An operation runs one CLI
command (``cli.main``) or one public library call; only that call is
timed.  Its outputs are then read back and checked against a reference
from ``refmath``, which is computed once per run from the same inputs.

Sizes are fixed per workload; the seed picks the inputs, the program's
own seeds and parameter values within narrow ranges, so that every seed
costs about the same work.  Call programs through module attributes
(``empirical.langevin_train``) so that the traced run sees every call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import refmath as ref
from refmath import expect, rel_err

from nnkernels import cli, dynamics, empirical, gpr, kernels

WORKLOADS = ("theory_sweep", "langevin", "mc_oracles", "kernel_pipeline")


@dataclass
class Op:
    name: str
    call: Callable[[str], Any]  # runs the program with a fresh output dir; timed
    read: Callable[[Any, str], dict]  # the arrays the check reads, parsed after the clock stops
    reference: Callable[[], Any]  # computed once, on first use
    check: Callable[[dict, Any], None]  # raises refmath.CheckError
    _ref: Any = field(default=None, repr=False)

    def verify(self, outputs: dict) -> None:
        if self._ref is None:
            self._ref = self.reference()
        self.check(outputs, self._ref)


def build(workload: str, seed: int, work_dir: str, tiny: bool = False) -> list[Op]:
    """The operations of ``workload`` with inputs drawn from ``seed``.

    ``tiny`` shrinks every size for the benchmark's self-test; the
    checks and their tolerances stay the same.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, work_dir, tiny)


# ------------------------------------------------------------- helpers


def _program_seed(rng) -> int:
    return int(rng.integers(2**31))


def _jitter(rng, value: float, rel: float = 0.05) -> float:
    return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _cli_call(command: str, overrides: dict, seed: int):
    argv = [command, "--seed", str(seed)]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]

    def call(out_dir: str):
        code = cli.main(argv + ["--out", out_dir])
        if code != 0:
            raise RuntimeError(f"nnkernels {command} exited with code {code}")

    return call


def _read_rows(path: str) -> list[list[str]]:
    """The rows of a results.csv below its header, as strings."""
    with open(path) as fh:
        return [ln.split(",") for ln in fh.read().splitlines()[1:]]


def _read_table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_kv(path: str) -> dict:
    with open(path) as fh:
        return dict(ln.split(": ", 1) for ln in fh.read().splitlines())


def _p_sweep(p_min: int, p_max: int, count: int) -> np.ndarray:
    return np.unique(np.round(np.geomspace(p_min, p_max, count)).astype(int))


def _powerlaw_overrides(rng, count: int) -> dict:
    """A power-law spectrum; lambda1 rescales it without changing the work."""
    return {
        "spectrum.alpha": _jitter(rng, 1.0),
        "spectrum.lambda1": float(10.0 ** rng.uniform(-0.3, 0.3)),
        "spectrum.count": count,
    }


def _spectrum_of(o: dict):
    lam = ref.powerlaw(o["spectrum.alpha"], o["spectrum.lambda1"], o["spectrum.count"])
    return lam, ref.aligned_target(lam)


def _decreasing(values) -> bool:
    return bool(np.all(np.diff(values) < 0))


# --------------------------------------------------------- theory_sweep


def _scalinglaw_op(rng, tiny):
    """scalinglaw: fitted log-log slopes against alpha and alpha/(1+alpha)."""
    alphas = [_jitter(rng, a) for a in (0.5, 1.0, 2.0)]
    overrides = {
        "scaling.alphas": ",".join(repr(a) for a in alphas),
        "scaling.count": 20_000 if tiny else 100_000,
        "scaling.kappa2_ek": _jitter(rng, 1.0),
        "sweep.p_max": 1024 if tiny else 4096,
    }

    def read(_, out):
        rows = _read_rows(os.path.join(out, "results.csv"))
        cols = list(zip(*rows))
        return {
            "alpha": np.array(cols[0], dtype=float),
            "is_ek": np.array([r == "ek" for r in cols[1]], dtype=int),
            "predicted": np.array(cols[2], dtype=float),
            "fitted": np.array(cols[3], dtype=float),
            "abs_error": np.array(cols[4], dtype=float),
        }

    def reference():
        alpha = np.repeat(alphas, 2)
        is_ek = np.tile([0, 1], len(alphas))
        return alpha, is_ek, np.where(is_ek == 1, alpha / (1.0 + alpha), alpha)

    def check(o, r):
        alpha, is_ek, exponent = r
        expect(o["alpha"].shape == alpha.shape, "one row per alpha and regime")
        expect(np.array_equal(o["alpha"], alpha) and np.array_equal(o["is_ek"], is_ek), "rows in sweep order")
        expect(rel_err(o["predicted"], exponent) < 1e-12, "predicted exponent is alpha or alpha/(1+alpha)")
        tol = np.where(is_ek == 1, 0.05, 0.1)
        expect(np.all(np.abs(o["fitted"] - exponent) < tol), "fitted slope within 0.1 (ridgeless) / 0.05 (EK)")
        expect(np.allclose(o["abs_error"], np.abs(o["fitted"] - o["predicted"]), rtol=0, atol=1e-12), "abs_error column")

    return Op("scalinglaw", _cli_call("scalinglaw", overrides, 0), read, reference, check)


def _curve_op(rng, tiny):
    """curve: effective-ridge equation, D and loss per row; loss falls with P."""
    overrides = _powerlaw_overrides(rng, 20_000 if tiny else 200_000)
    kappa2 = overrides["curve.kappa2"] = overrides["spectrum.lambda1"] * _jitter(rng, 0.1, 0.2)
    overrides["sweep.p_count"] = 5 if tiny else 9

    def read(_, out):
        t = _read_table(os.path.join(out, "results.csv"))
        return dict(zip(("P", "kappa_eff2", "D", "bias", "variance", "loss"), t.T))

    def check(o, r):
        lam, y, ps = r
        expect(np.array_equal(o["P"], ps), "one row per swept P")
        for i, P in enumerate(ps):
            k2, D = o["kappa_eff2"][i], o["D"][i]
            expect(ref.ridge_residual(lam, P, kappa2, k2) < 1e-8, f"effective ridge equation at P={P}")
            expect(rel_err(D, ref.fluctuation_amplitude(lam, y, P, k2)) < 1e-8, f"D equation at P={P}")
            bias, var, _ = ref.learning_curve(lam, y, P, k2, D)
            expect(rel_err([o["bias"][i], o["variance"][i]], [bias, var]) < 1e-8, f"bias/variance at P={P}")
        expect(rel_err(o["loss"], o["bias"] + o["variance"]) < 1e-12, "loss = bias + variance")
        expect(_decreasing(o["loss"]), "loss decreases in P")

    reference = lambda: (*_spectrum_of(overrides), _p_sweep(16, 4096, overrides["sweep.p_count"]))
    return Op("curve", _cli_call("curve", overrides, 0), read, reference, check)


def _featscale_op(rng, tiny):
    """featscale: C_MF consistency and the effective ridge of the scaled kernel."""
    overrides = _powerlaw_overrides(rng, 5_000 if tiny else 20_000)
    kappa2 = overrides["featscale.kappa2"] = overrides["spectrum.lambda1"] * _jitter(rng, 0.1, 0.2)
    N = overrides["featscale.N"] = _jitter(rng, 1000.0, 0.1)
    overrides["sweep.p_count"] = 4 if tiny else 9

    def read(_, out):
        t = _read_table(os.path.join(out, "results.csv"))
        return dict(zip(("P", "C_MF", "Q", "kappa_eff2", "D", "loss"), t.T))

    def check(o, r):
        lam, y, ps = r
        expect(np.array_equal(o["P"], ps), "one row per swept P")
        expect(rel_err(o["Q"], 1.0 + o["C_MF"] / N) < 1e-12, "Q = 1 + C_MF/N")
        for i, P in enumerate(ps):
            lam_s = lam / o["Q"][i]
            k2, D, C = o["kappa_eff2"][i], o["D"][i], o["C_MF"][i]
            expect(ref.ridge_residual(lam_s, P, kappa2, k2) < 1e-7, f"effective ridge of lambda/Q at P={P}")
            expect(rel_err(D, ref.fluctuation_amplitude(lam_s, y, P, k2)) < 1e-7, f"D of lambda/Q at P={P}")
            rhs = ref.scaling_consistency(lam_s, y, P, k2, D)
            expect(rel_err(C / (1.0 + C / N), rhs) < 1e-6, f"C_MF consistency equation at P={P}")
            k2_own = ref.solve_ridge(lam_s, P, kappa2)
            bias, var, _ = ref.learning_curve(lam_s, y, P, k2_own, ref.fluctuation_amplitude(lam_s, y, P, k2_own))
            expect(rel_err(o["loss"][i], bias + var) < 1e-7, f"loss of the scaled kernel at P={P}")
        expect(_decreasing(o["loss"]), "loss decreases in P")

    reference = lambda: (*_spectrum_of(overrides), _p_sweep(16, 4096, overrides["sweep.p_count"]))
    return Op("featscale", _cli_call("featscale", overrides, 0), read, reference, check)


def _theory_sweep(rng, work_dir, tiny):
    return [_scalinglaw_op(rng, tiny), _curve_op(rng, tiny), _featscale_op(rng, tiny)]


# ------------------------------------------------------------- langevin


def _langevin_op(rng, name, d, patches, channels, P, temperature, steps, burn_in, chains, bias_tol):
    """Ensemble of linear 2-layer nets against the closed-form GPR mean.

    For a linear net the NNGP kernel is the patch-averaged input Gram, so
    the posterior mean is a direct solve.  ``bias_tol`` allows for chains
    that have not mixed yet; the rest of the tolerance is four standard
    errors estimated from the spread between chains.
    """
    X = rng.standard_normal((P, d))
    X_test = rng.standard_normal((20, d))
    y = X @ (rng.standard_normal(d) / math.sqrt(d))
    first = _program_seed(rng)
    spec = kernels.NetworkSpec(depth=2, input_dim=d, patch_count=patches, activation="linear", channels=channels)
    safety = 0.3

    def call(_):
        eta = empirical.suggest_step_size(spec, X, safety=safety)
        cfg = empirical.TrainingConfig(
            step_size=eta, temperature=temperature, steps=steps, burn_in=burn_in, thin=5,
            seeds=tuple(range(first, first + chains)),
        )
        return eta, empirical.langevin_train(spec, X, y, X_test, cfg)

    def read(result, _):
        eta, stats = result
        return {"step_size": np.array(eta), "mean": stats.mean, "per_chain": stats.per_seed_means}

    def reference():
        both = np.vstack([X, X_test]).reshape(P + 20, patches, d // patches)
        G = np.einsum("mis,nis->mn", both, both) / d
        mean = G[P:, :P] @ np.linalg.solve(G[:P, :P] + temperature * np.eye(P), y)
        return mean, float(np.linalg.eigvalsh(2.0 * G[:P, :P])[-1])

    def check(o, r):
        mean, ntk_top = r
        expect(rel_err(o["step_size"] * ntk_top, safety) < 1e-10, "step size = safety / top NTK eigenvalue")
        per_chain = o["per_chain"]
        expect(per_chain.shape == (chains, mean.size), "one mean per chain")
        expect(rel_err(o["mean"], per_chain.mean(axis=0)) < 1e-12, "ensemble mean = average of chain means")
        norm2 = float(mean @ mean)
        proj = per_chain @ mean / norm2
        se_proj = float(np.std(proj, ddof=1)) / math.sqrt(chains)
        expect(
            abs(float(o["mean"] @ mean) / norm2 - 1.0) < bias_tol + 4.0 * se_proj,
            f"{name}: ensemble mean along the GPR mean within {bias_tol} + 4 SE of 1",
        )
        se = np.linalg.norm(np.std(per_chain, axis=0, ddof=1)) / math.sqrt(chains)
        dev = float(np.linalg.norm(o["mean"] - mean))
        expect(dev < bias_tol * math.sqrt(norm2) + 4.0 * se, f"{name}: ensemble mean vs GPR mean")

    return Op(name, call, read, reference, check)


def _langevin(rng, work_dir, tiny):
    steps, burn_in, chains = (120, 40, 4) if tiny else (300, 100, 8)
    return [
        # criterion-2 shape: a wide fully connected net mixes within a few hundred steps
        _langevin_op(rng, "langevin_fc", 10, 1, 512, 30, 0.01, steps, burn_in, chains, 0.03),
        # criterion-8 shape: the CNN mixes slowly, so a warmer chain and a wider bias allowance
        _langevin_op(rng, "langevin_cnn", 64, 4, 64, 48, 0.1, steps, burn_in, chains, 0.15),
    ]


# ----------------------------------------------------------- mc_oracles


def _kernel_mc_op(rng, tiny):
    """Deep ReLU kernel by weight sampling against the arc-cosine recursion."""
    Z = rng.standard_normal((8, 5))
    X = math.sqrt(5) * Z / np.linalg.norm(Z, axis=1, keepdims=True)
    samples = 1024 if tiny else 8192
    seed = _program_seed(rng)
    spec = kernels.NetworkSpec(depth=3, input_dim=5, activation="relu", channels=64)

    def reference():
        K = X @ X.T / 5
        for _ in range(spec.depth - 1):
            K = ref.relu_pair(K)
        return K

    def check(o, K):
        expect(o["K"].shape == K.shape, "kernel shape")
        # finite width shifts the kernel by O(1/C); allow 1% of the diagonal on top of 5 SE
        tol = 5.0 * ref.gaussian_product_se(K, samples) + 0.01 * float(np.mean(np.diag(K)))
        expect(np.all(np.abs(o["K"] - K) < tol), "MC kernel within 5 SE of the recursion")

    return Op(
        "empirical_kernel_mc",
        lambda _: kernels.empirical_kernel_mc(spec, X, samples, seed),
        lambda K, _: {"K": K.entries},
        reference,
        check,
    )


def _compare_op(rng, tiny):
    """compare theory-vs-mc: the theory column recomputed, the oracle near it."""
    overrides = _powerlaw_overrides(rng, 500 if tiny else 4000)
    overrides.update(
        {
            "compare.mode": "theory-vs-mc",
            "compare.P": 32,
            "compare.draws": 60 if tiny else 200,
            "compare.kappa2": overrides["spectrum.lambda1"] * _jitter(rng, 0.1, 0.2),
        }
    )

    def read(_, out):
        rows = _read_rows(os.path.join(out, "results.csv"))
        expect([r[0] for r in rows] == ["total_loss", "type_ii_variance"], "compare rows")
        return {
            "theory": np.array([float(r[1]) for r in rows]),
            "oracle": np.array([float(r[2]) for r in rows]),
            "passed": np.array([r[5] == "true" for r in rows]),
        }

    def reference():
        lam, y = _spectrum_of(overrides)
        P, kappa2 = overrides["compare.P"], overrides["compare.kappa2"]
        k2 = ref.solve_ridge(lam, P, kappa2)
        bias, var, cross = ref.learning_curve(lam, y, P, k2, ref.fluctuation_amplitude(lam, y, P, k2))
        return np.array([bias + var, cross])

    def check(o, theory):
        expect(rel_err(o["theory"], theory) < 1e-8, "theory column = effective-ridge theory")
        dev = np.abs(o["oracle"] - theory) / theory
        expect(dev[0] < 0.1 and dev[1] < 0.3, "dataset-MC oracle within 10% (loss) / 30% (type ii) of theory")
        expect(bool(np.all(o["passed"])), "compare reports every check passed")

    return Op("compare_theory_vs_mc", _cli_call("compare", overrides, _program_seed(rng)), read, reference, check)


def _phi_kernels_op(rng, tiny):
    """Two-time Erf kernels of the OU weight process: MC paths and closed form."""
    X = rng.standard_normal((6, 5))
    spec = kernels.NetworkSpec(depth=2, input_dim=5, activation="erf")
    grid = dynamics.TimeGrid.uniform(2.0, 4 if tiny else 8)
    eta, kappa2, chi, sigma_w2 = 1.0, _jitter(rng, 0.5, 0.2), 5.0, 1.0
    paths = 20_000 if tiny else 100_000
    seed = _program_seed(rng)

    def call(_):
        mc = dynamics.phi_kernels_mc(spec, X, grid, eta, kappa2, chi, sigma_w2, paths, seed)
        closed, _ = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, 1.0, sigma_w2)
        return {"mc": mc.lag_values, "closed": closed.lag_values}

    def reference():
        return ref.erf_two_time(X @ X.T / 5, grid.times, eta * kappa2 / (sigma_w2 * chi), sigma_w2)

    def check(o, Phi):
        expect(o["closed"].shape == Phi.shape and o["mc"].shape == Phi.shape, "one kernel per lag")
        expect(rel_err(o["closed"], Phi) < 1e-12, "phi_kernels = arcsine two-time kernel")
        # |erf| <= 1 bounds Var[erf(u) erf(v)] by sqrt(Phi_uu Phi_vv)
        d = np.diag(Phi[0])
        se = np.sqrt(np.sqrt(np.outer(d, d)) / paths)
        expect(np.all(np.abs(o["mc"] - Phi) < 5.0 * se), "phi_kernels_mc within 5 SE of the closed form")

    return Op("phi_kernels_mc", call, lambda r, _: r, reference, check)


def _mc_oracles(rng, work_dir, tiny):
    return [_kernel_mc_op(rng, tiny), _compare_op(rng, tiny), _phi_kernels_op(rng, tiny)]


# ------------------------------------------------------ kernel_pipeline

_D = 10  # input dimension of the dense-path inputs


def _data_file(rng, work_dir, name, n):
    """Gaussian inputs, written to a CSV the CLI reads through data.file."""
    X = rng.standard_normal((n, _D))
    path = os.path.join(work_dir, f"{name}-points.csv")
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    return X, {"data.file": path, "data.d": _D, "data.n": n, "net.activation": "erf"}


def _kernel_op(rng, work_dir, tiny):
    """kernel: sampled entries and the diagonal against Gauss-Hermite quadrature."""
    n = 60 if tiny else 600
    X, overrides = _data_file(rng, work_dir, "kernel", n)
    sw2 = overrides["net.weight_var"] = _jitter(rng, 1.0, 0.2)
    pairs = rng.integers(0, n, size=(150, 2))

    def read(_, out):
        return {
            "K": _read_table(os.path.join(out, "results.csv")),
            "trace": np.array(float(_read_kv(os.path.join(out, "summary.kv"))["trace"])),
        }

    def reference():
        H = sw2 * X @ X.T / _D
        quad = np.array([ref.gauss_pair(ref.erf, H[i, i], H[j, j], H[i, j]) for i, j in pairs])
        diag = np.array([ref.gauss_mean(lambda u: ref.erf(u) ** 2, h) for h in np.diag(H)])
        return quad, diag

    def check(o, r):
        quad, diag = r
        K = o["K"]
        expect(K.shape == (n, n), "n x n kernel")
        expect(np.array_equal(K, K.T), "kernel symmetric")
        expect(np.all(np.abs(K[pairs[:, 0], pairs[:, 1]] - quad) < 1e-9), "entries = quadrature of E[erf(u) erf(v)]")
        expect(np.all(np.abs(np.diag(K) - diag) < 1e-9), "diagonal = quadrature of E[erf(u)^2]")
        expect(rel_err(o["trace"], diag.sum()) < 1e-9, "summary trace")

    return Op("kernel", _cli_call("kernel", overrides, 0), read, reference, check)


def _spectrum_op(rng, work_dir, tiny):
    """spectrum of the NTK: eigenvalue sum = measure-weighted trace."""
    n = 80 if tiny else 1200
    X, overrides = _data_file(rng, work_dir, "spectrum", n)
    overrides["kernel.type"] = "ntk"

    def read(_, out):
        return {
            "lambda": _read_table(os.path.join(out, "results.csv"))[:, 1],
            "trace": np.array(float(_read_kv(os.path.join(out, "summary.kv"))["trace"])),
        }

    def reference():
        # Theta(x, x) = E[erf(u)^2] + |x|^2/d E[erf'(u)^2], u ~ N(0, |x|^2/d)
        h = np.sum(X * X, axis=1) / _D
        phi = [ref.gauss_mean(lambda u: ref.erf(u) ** 2, a) for a in h]
        dphi = [ref.gauss_mean(lambda u: ref.erf_prime(u) ** 2, a) for a in h]
        return float(np.mean(np.array(phi) + h * np.array(dphi)))

    def check(o, trace):
        lam = o["lambda"]
        expect(lam.shape == (n,), "one eigenvalue per point")
        expect(bool(np.all(np.diff(lam) <= 0) and lam[-1] >= 0), "eigenvalues descending and non-negative")
        expect(rel_err(lam.sum(), trace) < 1e-9, "eigenvalue sum = weighted NTK trace")
        expect(rel_err(o["trace"], trace) < 1e-9, "summary trace")

    return Op("spectrum", _cli_call("spectrum", overrides, 0), read, reference, check)


def _gpr_op(rng, tiny):
    """gpr: the program's Cholesky solve against an eigendecomposition solve."""
    n, n_test = (80, 20) if tiny else (1200, 100)
    X = rng.standard_normal((n + n_test, _D))
    y = np.sin(X[:n] @ rng.standard_normal(_D) / math.sqrt(_D))
    kappa2 = _jitter(rng, 0.1, 0.2)
    spec = kernels.NetworkSpec(depth=2, input_dim=_D, activation="erf")

    def call(_):
        K = kernels.nngp_kernel(spec, X).entries
        return gpr.gpr_predict(K[:n, :n], K[n:, :n], np.diag(K)[n:], y, kappa2)

    def reference():
        K = ref.erf_nngp(X @ X.T / _D)
        lam, V = np.linalg.eigh(K[:n, :n])
        B = K[n:, :n] @ V
        mean = B @ ((V.T @ y) / (lam + kappa2))
        return mean, np.diag(K)[n:] - np.sum(B**2 / (lam + kappa2), axis=1)

    def check(o, r):
        mean, var = r
        expect(rel_err(o["mean"], mean) < 1e-8, "posterior mean = eigendecomposition solve")
        expect(rel_err(o["variance"], var, floor=1.0) < 1e-8, "posterior variance = eigendecomposition solve")

    return Op("gpr", call, lambda post, _: {"mean": post.mean, "variance": post.variance}, reference, check)


def _dynamics_op(rng, tiny):
    """dynamics: the Volterra march of a linear net ends at the GPR mean."""
    P, steps = (8, 300) if tiny else (40, 600)
    X = rng.standard_normal((P, 5))
    y = np.sin(X @ rng.standard_normal(5))
    spec = kernels.NetworkSpec(depth=2, input_dim=5, activation="linear")
    eta, kappa2, chi, s2 = 0.2, _jitter(rng, 0.5, 0.2), 2000.0, 1.0
    grid = dynamics.TimeGrid.uniform(50.0 * s2 / (eta * kappa2), steps)

    def call(_):
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, s2, s2)
        Kx = kernels.patch_gram(X, spec)
        return dynamics.msrdj_mean_predictor(Phi, dPhi, Kx, y, grid, eta, kappa2, chi, s2, s2)

    def reference():
        K = s2 * s2 * X @ X.T / 5
        return K @ np.linalg.solve(K + kappa2 * np.eye(P), y)

    def check(o, mean):
        f = o["f"]
        expect(f.shape == (steps + 1, P), "one row per time step")
        expect(not np.any(f[0]), "f(0) = 0")
        expect(rel_err(f[-1], mean) < 1e-3, "late-time predictor = GPR mean")

    return Op("dynamics", call, lambda f, _: {"f": f}, reference, check)


def _rg_op(rng, tiny):
    """rg: the ridge trajectory against Hurwitz-zeta tail sums."""
    overrides = _powerlaw_overrides(rng, 20_000 if tiny else 200_000)
    overrides["rg.P"] = int(rng.integers(48, 81))
    overrides["rg.kappa2"] = overrides["spectrum.lambda1"] * _jitter(rng, 1e-4, 0.5)
    a, l1, m = overrides["spectrum.alpha"], overrides["spectrum.lambda1"], overrides["spectrum.count"]
    P, kappa2 = overrides["rg.P"], overrides["rg.kappa2"]

    def read(_, out):
        t = _read_table(os.path.join(out, "results.csv"))
        s = _read_kv(os.path.join(out, "summary.kv"))
        return {
            "modes": t[:, 0],
            "ridge": t[:, 1],
            "kappa_rg2": np.array(float(s["kappa_rg2"])),
            "cutoff": np.array(int(s["cutoff_index"])),
            "absorbed": np.array(float(s["absorbed_target"])),
        }

    def reference():
        # mode index i (0-based) is unlearnable once P lambda_i <= 0.01 (kappa2 + sum_{j >= i} lambda_j)
        unlearnable = lambda i: P * l1 * (i + 1.0) ** (-1.0 - a) <= 0.01 * (kappa2 + ref.powerlaw_tail(a, l1, i + 1, m))
        cutoff = next(i for i in range(m) if unlearnable(i))
        idx = np.arange(m - 1, cutoff - 1, -1)
        ridge = kappa2 + l1 * (ref.zeta(1.0 + a, idx + 1.0) - ref.zeta(1.0 + a, m + 1.0))
        absorbed = ref.powerlaw_tail(a, l1, cutoff + 1, m) / ref.powerlaw_tail(a, l1, 1, m)
        return cutoff, np.concatenate([[m], idx]).astype(float), np.concatenate([[kappa2], ridge]), absorbed

    def check(o, r):
        cutoff, modes, ridge, absorbed = r
        expect(int(o["cutoff"]) == cutoff, "cutoff = first mode with P lambda / ridge <= epsilon")
        expect(o["modes"].shape == (m - cutoff + 1,), "trajectory has m - cutoff + 1 rows")
        expect(np.array_equal(o["modes"], modes), "modes_remaining counts down to the cutoff")
        expect(rel_err(o["ridge"], ridge) < 1e-9, "ridge = kappa2 + zeta tail sum")
        expect(rel_err(o["kappa_rg2"], ridge[-1]) < 1e-9, "kappa_rg2 = kappa2 + tail below the cutoff")
        expect(rel_err(o["absorbed"], absorbed) < 1e-9, "absorbed target mass")

    return Op("rg", _cli_call("rg", overrides, 0), read, reference, check)


def _kernel_pipeline(rng, work_dir, tiny):
    return [
        _kernel_op(rng, work_dir, tiny),
        _spectrum_op(rng, work_dir, tiny),
        _gpr_op(rng, tiny),
        _dynamics_op(rng, tiny),
        _rg_op(rng, tiny),
    ]


_BUILDERS = {
    "theory_sweep": _theory_sweep,
    "langevin": _langevin,
    "mc_oracles": _mc_oracles,
    "kernel_pipeline": _kernel_pipeline,
}
