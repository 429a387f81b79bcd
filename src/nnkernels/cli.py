"""Command-line front end.

    nnkernels COMMAND --config cfg.kv --out DIR [--seed N] [--override key=value ...]

Configs are flat ``key = value`` text with dotted prefixes.  Every run
writes ``results.csv`` (comma, '.' decimal, LF), ``summary.kv``, and
``manifest.kv`` (the resolved config) into the output directory; reruns
with identical config and seed are byte-identical.

``--seed`` is any integer in [0, 2^64).  Every draw comes from an
``rng.stream(seed, purpose, index)``: synthetic points ("data", one draw
of data.n + test.n points split into training and test points), the unit
teacher ("teacher"), the Langevin chain seeds ("chains") and the
dataset-averaging oracle ("dataset_mc").

Exit codes: 0 success (and, for ``compare``, all checks passed),
1 a comparison check failed, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, curves, dynamics, empirical, feature, gpr, kernels, rng, spectral, textio


class ConfigError(Exception):
    pass


REQUIRED = object()

_KERNELS = {"nngp": kernels.nngp_kernel, "ntk": kernels.ntk_kernel_2layer}
#: steps of the march over the NTK window alone that ``dynamics`` checks
#: its short-time limit on (its value stays put from 20 to 200 steps)
NTK_WINDOW_STEPS = 100
# target.kind names a target in mode space for the spectral commands and a
# teacher on the data for the data commands; compare takes either, because
# its two modes need one each (see _cmd_compare)
_SPECTRAL_TARGETS = ("aligned", "uniform", "power")
_TEACHER_TARGETS = ("single_index_linear", "cubic_single_index")

# every key: (type, default, allowed values or None)
_NET_KEYS = {
    "net.depth": (int, 2, None),
    "net.activation": (str, "erf", tuple(kernels.ACTIVATIONS)),
    "net.patch_count": (int, 1, None),
    "net.weight_var": (float, 1.0, None),
    "net.readout_var": (float, 1.0, None),
    "net.chi": (float, 1.0, None),
    "net.channels": (int, 1, None),
}
_DATA_KEYS = {
    "data.kind": (str, "gaussian_iid", ("gaussian_iid", "hypersphere_uniform")),
    "data.d": (int, REQUIRED, None),
    "data.n": (int, REQUIRED, None),
    "data.scale": (float, 1.0, None),
    "data.file": (str, "", None),
    "data.label_column": (str, "", None),
}
_KERNEL_TYPE = {"kernel.type": (str, "nngp", tuple(_KERNELS))}
_TEACHER_KIND = {"target.kind": (str, "single_index_linear", _TEACHER_TARGETS)}
_SPECTRUM_KEYS = {
    "spectrum.alpha": (float, 1.0, None),
    "spectrum.lambda1": (float, 1.0, None),
    "spectrum.count": (int, 20000, None),
}
_TARGET_KEYS = {
    "target.kind": (str, "aligned", _SPECTRAL_TARGETS),
    "target.exponent": (float, 1.0, None),
    "target.norm": (float, 1.0, None),
}
_SWEEP_KEYS = {
    "sweep.p_min": (int, 16, None),
    "sweep.p_max": (int, 4096, None),
    "sweep.p_count": (int, 9, None),
}
_TEST_N = {"test.n": (int, 64, None)}
_TRAIN_KEYS = {
    **_TEST_N,
    "train.step_size": (float, 0.0, None),  # 0 -> auto from NTK spectrum
    "train.steps": (int, 2000, None),
    "train.burn_in": (int, 1000, None),
    "train.thin": (int, 10, None),
    "train.n_seeds": (int, 8, None),
}

SCHEMAS = {
    "kernel": {**_NET_KEYS, **_DATA_KEYS, **_KERNEL_TYPE},
    "spectrum": {**_NET_KEYS, **_DATA_KEYS, **_KERNEL_TYPE},
    "gpr": {
        **_NET_KEYS,
        **_DATA_KEYS,
        **_KERNEL_TYPE,
        "gpr.kappa2": (float, REQUIRED, None),
        **_TEST_N,
        **_TEACHER_KIND,
        "target.cubic_coeff": (float, 0.1, None),
    },
    "curve": {
        **_SPECTRUM_KEYS,
        **_TARGET_KEYS,
        **_SWEEP_KEYS,
        "curve.kappa2": (float, 0.0, None),
        "curve.ridge_mode": (str, "effective", ("effective", "rg")),
        "rg.epsilon": (float, 0.01, None),
    },
    "rg": {
        **_SPECTRUM_KEYS,
        **_TARGET_KEYS,
        "rg.P": (int, REQUIRED, None),
        "rg.kappa2": (float, 0.0, None),
        "rg.epsilon": (float, 0.01, None),
    },
    "scalinglaw": {
        "scaling.alphas": (str, "0.5,1,2", None),
        "scaling.count": (int, 2_000_000, None),
        "scaling.kappa2_ek": (float, 1.0, None),
        **_SWEEP_KEYS,
    },
    "featscale": {
        **_SPECTRUM_KEYS,
        **_TARGET_KEYS,
        **_SWEEP_KEYS,
        "featscale.kappa2": (float, REQUIRED, None),
        "featscale.N": (float, REQUIRED, None),
    },
    "adapt": {
        "adapt.S": (int, REQUIRED, None),
        "adapt.N_w": (int, REQUIRED, None),
        "adapt.C": (int, REQUIRED, None),
        "adapt.chi": (float, REQUIRED, None),
        "adapt.kappa2": (float, 0.01, None),
        "adapt.activation": (str, "linear", ("linear", "erf")),
        **_SWEEP_KEYS,
    },
    "dynamics": {
        **_DATA_KEYS,
        "net.activation": (str, "linear", tuple(kernels.ACTIVATIONS)),
        "net.patch_count": (int, 1, None),
        "dyn.eta": (float, 1.0, None),
        "dyn.kappa2": (float, REQUIRED, None),
        "dyn.chi": (float, 1.0, None),
        "dyn.sigma_a2": (float, 1.0, None),
        "dyn.sigma_w2": (float, 1.0, None),
        "dyn.steps": (int, 400, None),
        "dyn.t_end": (float, 0.0, None),  # 0 -> default horizon
        **_TEACHER_KIND,
    },
    "train": {
        **_NET_KEYS,
        **_DATA_KEYS,
        **_TEACHER_KIND,
        "train.temperature": (float, REQUIRED, None),
        **_TRAIN_KEYS,
    },
    "compare": {
        **_NET_KEYS,
        **_DATA_KEYS,
        "data.d": (int, 10, None),
        "data.n": (int, 64, None),
        **_SPECTRUM_KEYS,
        **_TARGET_KEYS,
        "target.kind": (str, "single_index_linear", _SPECTRAL_TARGETS + _TEACHER_TARGETS),
        "compare.mode": (str, "gpr-vs-train", ("gpr-vs-train", "theory-vs-mc")),
        "compare.tolerance": (float, 0.1, None),
        "compare.kappa2": (float, 0.01, None),
        "compare.P": (int, 32, None),
        "compare.draws": (int, 500, None),
        **_TRAIN_KEYS,
    },
}


def _resolve(command: str, raw: dict) -> dict:
    schema = SCHEMAS[command]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {}
    for key, (typ, default, choices) in schema.items():
        if key in raw:
            try:
                cfg[key] = typ(raw[key])
            except ValueError as e:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({e})") from None
            if choices and cfg[key] not in choices:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} (not one of {choices})")
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key {key}")
        else:
            cfg[key] = default
    return cfg


def _net_spec(cfg: dict, d: int, **fixed) -> kernels.NetworkSpec:
    """The network on d inputs: each net.<field> key sets that field, ``fixed`` the rest."""
    net = {key[len("net.") :]: value for key, value in cfg.items() if key.startswith("net.")}
    return kernels.NetworkSpec(input_dim=d, **net, **fixed)


def _load_data(cfg: dict, seed: int, test_n: int = 0):
    """Measure, optional file-based labels (label column by header name), test points.

    The ``test_n`` test points are rows data.n onward of one synthetic
    draw of data.n + test_n points.  For synthetic data its first data.n
    rows are the training points, so no test point repeats one.
    """
    n = cfg["data.n"]
    if cfg["data.file"]:
        try:
            names, body = textio.read_table(cfg["data.file"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"data file {cfg['data.file']!r}: {e}") from None
        if body.ndim != 2 or body.size == 0:
            raise ConfigError(f"data file {cfg['data.file']!r} has no data rows")
        if names is None:
            names = [f"c{i}" for i in range(body.shape[1])]
        elif len(names) != body.shape[1]:
            raise ConfigError(f"data file header has {len(names)} names for {body.shape[1]} columns")
        y = None
        if cfg["data.label_column"]:
            col = cfg["data.label_column"]
            if col not in names:
                raise ConfigError(f"label column {col!r} not in data header")
            j = names.index(col)
            y = body[:, j]
            body = np.delete(body, j, axis=1)
        meas = spectral.DataMeasure.uniform(body)
        test = _synthetic(cfg, body.shape[1], n + test_n, seed)[n:] if test_n else body[:0]
        return meas, y, test
    points = _synthetic(cfg, cfg["data.d"], n + test_n, seed)
    return spectral.DataMeasure.uniform(points[:n]), None, points[n:]


def _synthetic(cfg: dict, d: int, n: int, seed: int) -> np.ndarray:
    return empirical.make_synthetic(cfg["data.kind"], d, n, seed, scale=cfg["data.scale"]).points


def _problem(cfg: dict, seed: int, test_n: int = 0):
    """Training inputs and labels, test points and test labels.

    The labels are the data file's label column when it names one, and
    the test labels are then None.  Otherwise both come from the
    ``target.kind`` teacher on a unit direction drawn from the seed's
    "teacher" stream.
    """
    meas, y, test = _load_data(cfg, seed, test_n)
    X = meas.points
    if y is not None:
        return X, y, test, None
    w = rng.stream(seed, "teacher").standard_normal(X.shape[1])
    w /= np.linalg.norm(w)
    coeff = {"cubic_coeff": cfg["target.cubic_coeff"]} if "target.cubic_coeff" in cfg else {}
    teacher = lambda Z: empirical.make_target(cfg["target.kind"], Z, w, **coeff)
    return X, teacher(X), test, teacher(test)


def _posterior(kernel, spec, X, y, test, kappa2: float) -> gpr.GPRPosterior:
    """GPR at the test points, the kernel taken once on the training and test points together."""
    K = kernel(spec, np.vstack([X, test])).entries
    P = X.shape[0]
    return gpr.gpr_predict(K[:P, :P], K[P:, :P], np.diag(K)[P:], y, kappa2)


def _mode_target(lam: np.ndarray, kind: str, exponent: float | None = None) -> np.ndarray:
    """Unit-norm target coefficients on the modes of ``lam``: ``aligned``
    traces the spectrum (y_k ~ sqrt(lambda_k)), ``uniform`` is flat,
    ``power`` falls as k^-exponent."""
    if kind == "uniform":
        return np.full(lam.size, 1.0 / np.sqrt(lam.size))
    y = np.sqrt(lam) if kind == "aligned" else np.arange(1, lam.size + 1, dtype=float) ** (-exponent)
    y /= np.linalg.norm(y)
    return y


def _spectrum_and_target(cfg: dict, kind: str):
    lam = spectral.powerlaw_spectrum(
        cfg["spectrum.alpha"], cfg["spectrum.lambda1"], cfg["spectrum.count"]
    )
    return lam, cfg["target.norm"] * _mode_target(lam, kind, cfg["target.exponent"])


def _p_sweep(cfg: dict) -> np.ndarray:
    ps = np.unique(
        np.round(
            np.geomspace(cfg["sweep.p_min"], cfg["sweep.p_max"], cfg["sweep.p_count"])
        ).astype(int)
    )
    return ps[ps > 0]


def _columns(rows: list, width: int) -> list[np.ndarray]:
    """The columns of a short table built a row at a time; numpy picks each column's dtype."""
    return [np.array(col) for col in zip(*rows)] if rows else [np.array([])] * width


def _loglog_slope(P: np.ndarray, L: np.ndarray) -> float:
    return float(np.polyfit(np.log(P), np.log(L), 1)[0])


# ---------------------------------------------------------------- commands


def _cmd_kernel(cfg, seed):
    meas, _, _ = _load_data(cfg, seed)
    spec = _net_spec(cfg, meas.points.shape[1])
    K = _KERNELS[cfg["kernel.type"]](spec, meas.points)
    header = [f"k{j}" for j in range(K.n)]
    return header, K.entries.T, {"n": K.n, "trace": float(np.trace(K.entries))}


def _cmd_spectrum(cfg, seed):
    meas, _, _ = _load_data(cfg, seed)
    spec = _net_spec(cfg, meas.points.shape[1])
    K = _KERNELS[cfg["kernel.type"]](spec, meas.points)
    lam, clipped = spectral.eigenvalues(K, meas)
    return ["k", "lambda"], [np.arange(1, lam.size + 1), lam], {
        "trace": float(np.sum(lam)),
        "clipped": clipped,
        "lambda_top": float(lam[0]),
    }


def _cmd_gpr(cfg, seed):
    X, y, test, y_test = _problem(cfg, seed, cfg["test.n"])
    spec = _net_spec(cfg, X.shape[1])
    post = _posterior(_KERNELS[cfg["kernel.type"]], spec, X, y, test, cfg["gpr.kappa2"])
    summary = {
        "train_rmse": float(np.sqrt(np.mean(post.train_residuals**2))),
        "jitter": post.jitter,
    }
    if y_test is not None:
        summary["test_mse"] = float(np.mean((post.mean - y_test) ** 2))
    columns = [np.arange(post.mean.size), post.mean, post.variance]
    return ["point_index", "mean", "variance"], columns, summary


def _cmd_curve(cfg, seed):
    lam, y_k = _spectrum_and_target(cfg, cfg["target.kind"])
    rows = []
    for P in _p_sweep(cfg):
        if cfg["curve.ridge_mode"] == "rg":
            flow = curves.rg_flow(lam, y_k, int(P), cfg["curve.kappa2"], cfg["rg.epsilon"])
            # the absorbed modes live on only in the ridge; at eigenvalue 0 the
            # truncation counts their target mass in the bias and in D's source
            lam_rg = lam.copy()
            lam_rg[flow.cutoff_index :] = 0.0
            pred = curves.learning_curve(lam_rg, y_k, int(P), flow.kappa_rg2)
            rows.append([int(P), flow.kappa_rg2, pred.D, pred.bias, pred.variance, pred.total])
        else:
            pred = curves.learning_curve(lam, y_k, int(P), cfg["curve.kappa2"])
            rows.append([int(P), pred.kappa_eff2, pred.D, pred.bias, pred.variance, pred.total])
    header = ["P", "kappa_eff2", "D", "bias", "variance", "loss"]
    columns = _columns(rows, len(header))
    return header, columns, {"loglog_slope": _loglog_slope(columns[0], columns[5])}


def _cmd_rg(cfg, seed):
    lam, y_k = _spectrum_and_target(cfg, cfg["target.kind"])
    flow = curves.rg_flow(lam, y_k, cfg["rg.P"], cfg["rg.kappa2"], cfg["rg.epsilon"])
    modes, ridge = flow.trajectory.T
    return ["modes_remaining", "ridge"], [modes.astype(np.int64), ridge], {
        "kappa_rg2": flow.kappa_rg2,
        "cutoff_index": flow.cutoff_index,
        "absorbed_target": flow.absorbed_target,
        "epsilon": flow.epsilon,
    }


def _cmd_scalinglaw(cfg, seed):
    alphas = [float(a) for a in cfg["scaling.alphas"].split(",") if a.strip()]
    ps = _p_sweep(cfg)
    rows = []
    for alpha in alphas:
        lam = spectral.powerlaw_spectrum(alpha, 1.0, cfg["scaling.count"])
        # aligned target: ridgeless loss ~ P^-alpha, fixed-ridge EK loss ~ P^(-alpha/(1+alpha))
        y_k = _mode_target(lam, "aligned")
        for regime in ("ridgeless", "ek"):
            losses = []
            for P in ps:
                if regime == "ridgeless":
                    pred = curves.learning_curve(lam, y_k, int(P), 0.0)
                    losses.append(pred.bias)
                else:
                    pred = curves.ek_predict(lam, y_k, int(P), cfg["scaling.kappa2_ek"])
                    losses.append(pred.bias)
            fitted = -_loglog_slope(ps, np.array(losses))
            predicted = curves.scaling_exponent(alpha, regime)
            rows.append([alpha, regime, predicted, fitted, abs(fitted - predicted)])
    header = ["alpha", "regime", "predicted_exponent", "fitted_slope", "abs_error"]
    return header, _columns(rows, len(header)), {}


def _cmd_featscale(cfg, seed):
    lam, y_k = _spectrum_and_target(cfg, cfg["target.kind"])
    rows = []
    for P in _p_sweep(cfg):
        sol = feature.kernel_scaling_solve(
            lam, y_k, int(P), cfg["featscale.kappa2"], cfg["featscale.N"]
        )
        if not sol.converged:
            raise RuntimeError(
                f"kernel scaling did not converge at P={int(P)}: residual {sol.residual:.3e}"
            )
        rows.append([int(P), sol.C_MF, sol.Q, sol.kappa_eff2, sol.D, sol.loss])
    header = ["P", "C_MF", "Q", "kappa_eff2", "D", "loss"]
    return header, _columns(rows, len(header)), {}


def _cmd_adapt(cfg, seed):
    S, Nw, C, chi = cfg["adapt.S"], cfg["adapt.N_w"], cfg["adapt.C"], cfg["adapt.chi"]
    d = S * Nw
    lam_perp = np.full(d, 1.0 / (S * Nw))
    solver = {"linear": feature.adaptation_solve_linear, "erf": feature.adaptation_solve_erf}[
        cfg["adapt.activation"]
    ]
    rows = []
    for P in _p_sweep(cfg):
        kappa_eff2 = curves.effective_ridge_solve(lam_perp, int(P), cfg["adapt.kappa2"])
        if kappa_eff2 <= 0.0:  # ridgeless with P >= S * N_w modes
            raise RuntimeError(f"effective ridge collapses to 0 at P={int(P)}")
        sol = solver(S, Nw, C, chi, int(P), kappa_eff2)
        learn = feature.predicted_learnability(sol, int(P), kappa_eff2)
        rows.append([int(P), sol.c_star, sol.c_perp, sol.lambda_star, learn, sol.residual])
    header = ["P", "c_star", "c_perp", "lambda_star", "learnability", "residual"]
    return header, _columns(rows, len(header)), {}


def _cmd_dynamics(cfg, seed):
    X, y, _, _ = _problem(cfg, seed)
    spec = _net_spec(cfg, X.shape[1], depth=2)
    if not dynamics.closed_form_covers(spec):
        raise ConfigError(
            f"dynamics covers linear nets and fully connected erf nets, not "
            f"net.activation={spec.activation} with net.patch_count={spec.patch_count}"
        )
    eta, kappa2, chi = cfg["dyn.eta"], cfg["dyn.kappa2"], cfg["dyn.chi"]
    sa2, sw2 = cfg["dyn.sigma_a2"], cfg["dyn.sigma_w2"]
    if cfg["dyn.t_end"] > 0:
        grid = dynamics.TimeGrid.uniform(cfg["dyn.t_end"], cfg["dyn.steps"])
    else:
        grid = dynamics.TimeGrid.default(eta, kappa2, chi, sa2, sw2, cfg["dyn.steps"])
    Kx = kernels.patch_gram(X, spec)

    def march(grid):
        Phi, dPhi = dynamics.phi_kernels(spec, X, grid, eta, kappa2, chi, sa2, sw2)
        return Phi, dPhi, dynamics.msrdj_mean_predictor(Phi, dPhi, Kx, y, grid, eta, kappa2, chi, sa2, sw2)

    Phi, dPhi, traj = march(grid)
    Theta0 = dynamics.msrdj_theta0(Phi, dPhi, Kx, sa2, chi)
    K_gp = sa2 * Phi.lag_values[0]
    report = dynamics.limit_checks(traj, grid, Theta0, K_gp, y, kappa2, eta)
    # the run's grid seldom has a step inside the NTK window, so the
    # short-time limit is checked on a march over the window alone
    window = dynamics.TimeGrid.uniform(report.ntk_window_end, NTK_WINDOW_STEPS)
    short = dynamics.limit_checks(march(window)[2], window, Theta0, K_gp, y, kappa2, eta)
    header = ["t"] + [f"f_{i + 1}" for i in range(y.size)]
    return header, [grid.times, *traj.T], {
        "ntk_window_end": report.ntk_window_end,
        "ntk_max_rel_dev": short.ntk_max_rel_dev,
        # the memory's decay over the window, omega_a t_window; the
        # deviation from the NTK flow tracks half of it
        "ntk_window_decay": eta * kappa2 / sa2 * report.ntk_window_end,
        "gpr_final_rel_dev": report.gpr_final_rel_dev,
    }


def _ensemble(cfg, seed, spec, X, y, test, temperature: float):
    """Langevin ensemble statistics at the test points and the step size used."""
    step = cfg["train.step_size"] or empirical.suggest_step_size(spec, X)
    chain_seeds = rng.stream(seed, "chains").bit_generator.random_raw(cfg["train.n_seeds"])
    tc = empirical.TrainingConfig(
        step_size=step,
        temperature=temperature,
        steps=cfg["train.steps"],
        burn_in=cfg["train.burn_in"],
        thin=cfg["train.thin"],
        seeds=tuple(chain_seeds.tolist()),
    )
    return empirical.langevin_train(spec, X, y, test, tc), step


def _cmd_train(cfg, seed):
    X, y, test, y_test = _problem(cfg, seed, cfg["test.n"])
    spec = _net_spec(cfg, X.shape[1])
    stats, step = _ensemble(cfg, seed, spec, X, y, test, cfg["train.temperature"])
    summary = {
        "equilibrated": stats.equilibrated,
        "split_half_gap": stats.split_half_gap,
        "step_size": step,
    }
    if y_test is not None:
        summary["test_mse"] = float(np.mean((stats.mean - y_test) ** 2))
    columns = [np.arange(stats.mean.size), stats.mean, stats.variance]
    return ["point_index", "mean", "variance"], columns, summary


def _cmd_compare(cfg, seed):
    mode = cfg["compare.mode"]
    tol = cfg["compare.tolerance"]
    kappa2 = cfg["compare.kappa2"]
    rows = []
    if mode == "gpr-vs-train":
        if cfg["target.kind"] not in _TEACHER_TARGETS:
            raise ConfigError(f"gpr-vs-train needs a teacher target.kind, one of {_TEACHER_TARGETS}")
        X, y, test, _ = _problem(cfg, seed, cfg["test.n"])
        spec = _net_spec(cfg, X.shape[1])
        stats, _ = _ensemble(cfg, seed, spec, X, y, test, kappa2)
        post = _posterior(kernels.nngp_kernel, spec, X, y, test, kappa2)
        rmse = float(np.sqrt(np.mean((stats.mean - post.mean) ** 2)))
        scale = float(np.sqrt(np.mean(post.mean**2)))
        dev = rmse / max(scale, 1e-300)
        rows.append(["ensemble_mean_vs_gpr_rel_rmse", dev, 0.0, dev, tol, dev < tol])
    else:  # theory-vs-mc; a teacher target.kind, the default, means aligned
        kind = cfg["target.kind"] if cfg["target.kind"] in _SPECTRAL_TARGETS else "aligned"
        lam, y_k = _spectrum_and_target(cfg, kind)
        P = cfg["compare.P"]
        pred = curves.learning_curve(lam, y_k, P, kappa2)
        mc = empirical.dataset_averaged_gpr_mc(lam, y_k, P, kappa2, cfg["compare.draws"], seed)
        dev_loss = abs(pred.total - mc.total) / mc.total
        rows.append(["total_loss", pred.total, mc.total, dev_loss, tol, dev_loss < tol])
        th_ii = pred.type_ii_variance
        dev_ii = abs(th_ii - mc.type_ii_variance) / mc.type_ii_variance
        rows.append(
            ["type_ii_variance", th_ii, mc.type_ii_variance, dev_ii, 1.5 * tol, dev_ii < 1.5 * tol]
        )
    header = ["quantity", "theory", "oracle", "deviation", "tolerance", "pass"]
    columns = _columns(rows, len(header))
    return header, columns, {"all_passed": bool(columns[-1].all())}


_HANDLERS = {
    "kernel": _cmd_kernel,
    "spectrum": _cmd_spectrum,
    "gpr": _cmd_gpr,
    "curve": _cmd_curve,
    "rg": _cmd_rg,
    "scalinglaw": _cmd_scalinglaw,
    "featscale": _cmd_featscale,
    "adapt": _cmd_adapt,
    "dynamics": _cmd_dynamics,
    "train": _cmd_train,
    "compare": _cmd_compare,
}


def run(command: str, cfg: dict, out_dir: str, seed: int) -> int:
    header, columns, summary = _HANDLERS[command](cfg, seed)
    os.makedirs(out_dir, exist_ok=True)
    textio.write_csv(os.path.join(out_dir, "results.csv"), header, columns)
    textio.write_kv(os.path.join(out_dir, "summary.kv"), summary)
    manifest = {"command": command, "seed": seed, "version": __version__}
    manifest.update({k: cfg[k] for k in sorted(cfg)})
    textio.write_kv(os.path.join(out_dir, "manifest.kv"), manifest)
    if command == "compare" and not summary.get("all_passed", True):
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="nnkernels", description=__doc__)
    ap.add_argument("command", choices=sorted(_HANDLERS))
    ap.add_argument("--config", default=None, help="flat key = value config file")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="any integer in [0, 2^64)")
    ap.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    args = ap.parse_args(argv)

    try:
        raw = textio.read_config(args.config) if args.config else {}
        for item in args.override:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            k, _, v = item.partition("=")
            raw[k.strip()] = v.strip()
        cfg = _resolve(args.command, raw)
        rng.check_seed(args.seed)
    except (ConfigError, OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        return run(args.command, cfg, args.out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError, ValueError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
