import os

import numpy as np
import pytest

from nnkernels import cli, empirical, feature, gpr, kernels, rng, textio


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    return cli.main([*args, "--out", str(out)]), out


def read_all(out):
    files = {}
    for name in ("results.csv", "summary.kv", "manifest.kv"):
        with open(out / name, "rb") as fh:
            files[name] = fh.read()
    return files


class TestConfigHandling:
    def test_unknown_key_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "curve", "--override", "bogus.key=1")
        assert code == 2

    def test_missing_required_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "rg")  # rg.P is required
        assert code == 2

    def test_bad_override_format_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "curve", "--override", "no-equals-sign")
        assert code == 2

    def test_bad_value_type_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "curve", "--override", "sweep.p_min=abc")
        assert code == 2

    def test_config_file_and_override_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("rg.P = 64\nspectrum.alpha = 1.0\n")
        code, out = run_cli(
            tmp_path, "rg", "--config", str(cfgfile), "--override", "rg.P=128"
        )
        assert code == 0
        manifest = textio.read_kv(out / "manifest.kv")
        assert manifest["rg.P"] == "128"
        assert manifest["spectrum.alpha"] == "1.0"

    def test_numerical_failure_exit_3(self, tmp_path):
        # epsilon outside (0,1) is a runtime (not schema) ValueError
        code, _ = run_cli(tmp_path, "rg", "--override", "rg.P=64", "--override", "rg.epsilon=2.0")
        assert code == 3

    def test_unknown_kernel_type_exit_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "kernel", "--override", "data.d=4", "--override", "data.n=3",
            "--override", "kernel.type=banana",
        )
        assert code == 2

    def test_unknown_net_activation_exit_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "kernel", "--override", "data.d=4", "--override", "data.n=3",
            "--override", "net.activation=tanh",
        )
        assert code == 2

    def test_unsupported_adapt_activation_exit_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "adapt", "--override", "adapt.S=16", "--override", "adapt.N_w=4",
            "--override", "adapt.C=64", "--override", "adapt.chi=100",
            "--override", "adapt.activation=relu",
        )
        assert code == 2

    def test_unknown_curve_ridge_mode_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "curve", "--override", "curve.ridge_mode=banana")
        assert code == 2

    def test_unknown_data_kind_exit_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "kernel", "--override", "data.d=4", "--override", "data.n=3",
            "--override", "data.kind=banana",
        )
        assert code == 2

    def test_gpr_unknown_target_kind_exit_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "gpr", "--override", "data.d=4", "--override", "data.n=3",
            "--override", "gpr.kappa2=0.1", "--override", "target.kind=banana",
        )
        assert code == 2

    def test_compare_theory_vs_mc_unknown_target_kind_exit_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "compare", "--override", "compare.mode=theory-vs-mc",
            "--override", "spectrum.count=200", "--override", "compare.draws=10",
            "--override", "target.kind=banana",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, schema in cli.SCHEMAS.items() for k, (_, _, choices) in schema.items() if choices],
    )
    def test_value_outside_allowed_set_exit_2(self, tmp_path, command, key):
        required = [f"{k}=1" for k, (_, default, _) in cli.SCHEMAS[command].items() if default is cli.REQUIRED]
        overrides = [arg for kv in [*required, f"{key}=banana"] for arg in ("--override", kv)]
        code, out = run_cli(tmp_path, command, *overrides)
        assert code == 2
        assert not out.exists()

    def test_compare_gpr_vs_train_spectral_target_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "compare", "--override", "target.kind=aligned")
        assert code == 2

    def test_unknown_compare_mode_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "compare", "--override", "compare.mode=banana")
        assert code == 2

    @pytest.mark.parametrize(
        "activation, patch_count", [("relu", 1), ("erf", 2)], ids=["relu", "erf_cnn"]
    )
    def test_dynamics_unsupported_net_exit_2(self, tmp_path, activation, patch_count):
        code, out = run_cli(
            tmp_path, "dynamics", "--override", "data.d=4", "--override", "data.n=3",
            "--override", "dyn.kappa2=0.1", "--override", "dyn.steps=10",
            "--override", f"net.activation={activation}",
            "--override", f"net.patch_count={patch_count}",
        )
        assert code == 2
        assert not out.exists()

    def test_adapt_collapsed_ridge_exit_3(self, tmp_path):
        # ridgeless, the effective ridge is 0 once P >= S * N_w = 64 modes
        code, out = run_cli(
            tmp_path, "adapt", "--override", "adapt.kappa2=0", "--override", "adapt.S=16",
            "--override", "adapt.N_w=4", "--override", "adapt.C=64", "--override", "adapt.chi=100",
        )
        assert code == 3
        assert not out.exists()

    def test_featscale_unconverged_exit_3(self, tmp_path, monkeypatch):
        def unconverged(lam, y_k, P, kappa2, N):
            return feature.KernelScalingSolution(
                C_MF=0.0, Q=1.0, kappa_eff2=kappa2, D=0.0, converged=False, residual=1.0
            )

        monkeypatch.setattr(feature, "kernel_scaling_solve", unconverged)
        code, _ = run_cli(
            tmp_path, "featscale", "--override", "featscale.kappa2=0.1", "--override", "featscale.N=50"
        )
        assert code == 3


SMALL_TRAIN = [
    "--override", "data.d=5",
    "--override", "data.n=8",
    "--override", "net.activation=linear",
    "--override", "net.channels=8",
    "--override", "train.steps=120",
    "--override", "train.burn_in=40",
    "--override", "train.n_seeds=2",
    "--override", "test.n=6",
]


class TestSeeds:
    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    @pytest.mark.parametrize(
        "args",
        [
            ["kernel", "--override", "data.d=4", "--override", "data.n=3"],
            ["train", *SMALL_TRAIN, "--override", "train.temperature=0.05"],
            # a loose tolerance: this checks that every u64 seed runs, not the oracle's accuracy
            ["compare", *SMALL_TRAIN, "--override", "compare.tolerance=10"],
        ],
        ids=["kernel", "train", "compare"],
    )
    def test_u64_seed_runs(self, tmp_path, args, seed):
        code, out = run_cli(tmp_path, *args, "--seed", seed)
        assert code == 0
        assert textio.read_kv(out / "manifest.kv")["seed"] == seed

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "args", [["curve"], ["kernel", "--override", "data.d=4", "--override", "data.n=3"]]
    )
    def test_seed_out_of_range_exit_2(self, tmp_path, args, seed):
        code, out = run_cli(tmp_path, *args, f"--seed={seed}")
        assert code == 2
        assert not out.exists()

    def test_threads_option_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(tmp_path, "curve", "--threads", "2")

    def test_test_points_follow_training_points(self):
        raw = {"data.d": "3", "data.n": "5", "test.n": "4", "train.temperature": "0.1"}
        cfg = cli._resolve("train", raw)
        meas, _, test = cli._load_data(cfg, 6, cfg["test.n"])
        both = empirical.make_synthetic("gaussian_iid", 3, 9, 6).points
        assert np.array_equal(meas.points, both[:5]) and np.array_equal(test, both[5:])
        # the next seed's training points are not this seed's test points
        nxt, _, _ = cli._load_data(cfg, 7)
        assert not np.any(np.isin(test, nxt.points))

    def test_train_streams_never_share_a_key(self, tmp_path, monkeypatch):
        # chain 0 once drew its initial weights from the training data's key
        keys = []
        make_stream = rng.stream

        def recording(seed, purpose, index=0):
            gen = make_stream(seed, purpose, index)
            keys.append(tuple(gen.bit_generator.state["state"]["key"].tolist()))
            return gen

        for module in (rng, empirical):
            monkeypatch.setattr(module, "stream", recording)
        code, _ = run_cli(tmp_path, "train", *SMALL_TRAIN, "--override", "train.temperature=0.05")
        assert code == 0
        assert len(set(keys)) == len(keys) == 5  # data, teacher, chain seeds, two chains


class TestOutputs:
    def test_curve_outputs_and_slope(self, tmp_path):
        code, out = run_cli(tmp_path, "curve")
        assert code == 0
        summary = textio.read_kv(out / "summary.kv")
        # aligned target on an alpha=1 spectrum: ridgeless slope -1
        assert abs(float(summary["loglog_slope"]) + 1.0) < 0.1

    def test_byte_identical_reruns(self, tmp_path):
        args = ["curve", "--seed", "5", "--override", "sweep.p_count=5"]
        _, out1 = run_cli(tmp_path / "a", *args)
        _, out2 = run_cli(tmp_path / "b", *args)
        assert read_all(out1) == read_all(out2)

    def test_byte_identical_train_rerun(self, tmp_path):
        args = [
            "train",
            "--seed",
            "3",
            "--override", "data.d=5",
            "--override", "data.n=8",
            "--override", "net.activation=linear",
            "--override", "net.channels=8",
            "--override", "train.temperature=0.05",
            "--override", "train.steps=120",
            "--override", "train.burn_in=40",
            "--override", "train.n_seeds=2",
            "--override", "test.n=6",
        ]
        _, out1 = run_cli(tmp_path / "a", *args)
        _, out2 = run_cli(tmp_path / "b", *args)
        assert read_all(out1) == read_all(out2)

    def test_rg_mode_counts_absorbed_mass_in_D(self, tmp_path):
        # at P = 16 and 32 the flow absorbs tail modes; their target mass is
        # unlearned, so it is a source of D as on the effective-ridge path
        sweep = ["--override", "target.kind=uniform", "--override", "sweep.p_min=16",
                 "--override", "sweep.p_max=32", "--override", "sweep.p_count=2"]
        tables = {}
        for mode in ("effective", "rg"):
            code, out = run_cli(tmp_path / mode, "curve", *sweep, "--override", f"curve.ridge_mode={mode}")
            assert code == 0
            tables[mode] = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
        D_eff, D_rg = tables["effective"][:, 2], tables["rg"][:, 2]
        assert np.all(np.abs(D_rg - D_eff) < 1e-3 * D_eff)

    def test_rg_summary_identity(self, tmp_path):
        # a deep spectrum is needed for the learnability crossing to exist
        code, out = run_cli(
            tmp_path, "rg", "--override", "rg.P=64", "--override", "spectrum.count=200000"
        )
        assert code == 0
        summary = textio.read_kv(out / "summary.kv")
        assert float(summary["kappa_rg2"]) > 0.0
        assert int(summary["cutoff_index"]) > 0

    def test_scalinglaw_exponents(self, tmp_path):
        code, out = run_cli(tmp_path, "scalinglaw")
        assert code == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        err_col = header.index("abs_error")
        regime_col = header.index("regime")
        for row in rows[1:]:
            vals = row.split(",")
            tol = 0.1 if vals[regime_col] == "ridgeless" else 0.05
            assert float(vals[err_col]) < tol

    def test_adapt_outputs(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "adapt",
            "--override", "adapt.S=16",
            "--override", "adapt.N_w=4",
            "--override", "adapt.C=64",
            "--override", "adapt.chi=100",
        )
        assert code == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        lcol = header.index("learnability")
        learns = [float(r.split(",")[lcol]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(learns, learns[1:]))

    @pytest.mark.parametrize("activation", ["linear", "erf"])
    def test_dynamics_checks_ntk_window_on_default_grid(self, tmp_path, activation):
        # the default grid's first step (2.5) falls after the NTK window
        # (about 0.15); the check is made on a march over the window alone,
        # and the deviation tracks the memory decay over it, omega_a t / 2
        code, out = run_cli(
            tmp_path, "dynamics", "--override", "data.d=5", "--override", "data.n=10",
            "--override", "dyn.kappa2=0.5", "--override", "dyn.chi=50",
            "--override", f"net.activation={activation}",
        )
        assert code == 0
        summary = textio.read_kv(out / "summary.kv")
        times = [float(r.split(",")[0]) for r in (out / "results.csv").read_text().splitlines()[1:3]]
        assert times[1] > float(summary["ntk_window_end"])
        decay = float(summary["ntk_window_decay"])
        assert decay == pytest.approx(0.5 * float(summary["ntk_window_end"]), rel=1e-15)
        assert abs(float(summary["ntk_max_rel_dev"]) - decay / 2) < 0.2 * decay / 2

    def test_manifest_records_run(self, tmp_path):
        _, out = run_cli(tmp_path, "curve", "--seed", "9")
        manifest = textio.read_kv(out / "manifest.kv")
        assert manifest["command"] == "curve"
        assert manifest["seed"] == "9"

    def test_output_modes_follow_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            _, out = run_cli(tmp_path, "curve", "--override", "sweep.p_count=5")
        finally:
            os.umask(old)
        for name in ("results.csv", "summary.kv", "manifest.kv"):
            assert os.stat(out / name).st_mode & 0o777 == 0o644, name


class TestCompare:
    def test_theory_vs_mc_passes(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "compare",
            "--override", "compare.mode=theory-vs-mc",
            "--override", "compare.P=32",
            "--override", "compare.draws=400",
            "--override", "compare.kappa2=0.1",
            "--override", "spectrum.count=2000",
        )
        assert code == 0
        summary = textio.read_kv(out / "summary.kv")
        assert summary["all_passed"] == "true"

    def test_failed_comparison_exit_1(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "compare",
            "--override", "compare.mode=theory-vs-mc",
            "--override", "compare.P=32",
            "--override", "compare.draws=400",
            "--override", "compare.kappa2=0.1",
            "--override", "spectrum.count=2000",
            "--override", "compare.tolerance=1e-8",
        )
        assert code == 1
        summary = textio.read_kv(out / "summary.kv")
        assert summary["all_passed"] == "false"


class TestDataFile:
    def write_points(self, path, header=None):
        X = np.random.default_rng(21).standard_normal((12, 3))
        lines = [] if header is None else [header]
        lines += [",".join(repr(float(v)) for v in row) for row in X]
        path.write_text("\n".join(lines) + "\n")
        return X

    def test_kernel_on_file_with_header(self, tmp_path):
        X = self.write_points(tmp_path / "labelled.csv", header="a,b,y")
        plain = tmp_path / "plain.csv"
        plain.write_text("".join(f"{a!r},{b!r}\n" for a, b in X[:, :2].tolist()))
        common = ["--override", "data.d=2", "--override", "data.n=12"]
        code, out = run_cli(
            tmp_path / "h", "kernel", *common,
            "--override", f"data.file={tmp_path / 'labelled.csv'}", "--override", "data.label_column=y",
        )
        assert code == 0
        code_plain, out_plain = run_cli(tmp_path / "p", "kernel", *common, "--override", f"data.file={plain}")
        assert code_plain == 0
        for name in ("results.csv", "summary.kv"):
            assert (out / name).read_bytes() == (out_plain / name).read_bytes()

    def test_gpr_reads_label_column(self, tmp_path):
        path = tmp_path / "labelled.csv"
        X = self.write_points(path, header="a,y,b")
        code, out = run_cli(
            tmp_path, "gpr", "--override", f"data.file={path}", "--override", "data.label_column=y",
            "--override", "data.d=2", "--override", "data.n=12", "--override", "gpr.kappa2=0.1",
            "--override", "test.n=4",
        )
        assert code == 0
        summary = textio.read_kv(out / "summary.kv")
        assert "test_mse" not in summary  # the labels came from the file, not a teacher
        Xtr, y = X[:, [0, 2]], X[:, 1]
        test = cli._synthetic(cli._resolve("gpr", {"data.d": "2", "data.n": "12", "gpr.kappa2": "0.1"}), 2, 16, 0)[12:]
        spec = kernels.NetworkSpec(depth=2, input_dim=2, activation="erf")
        K = kernels.nngp_kernel(spec, np.vstack([Xtr, test])).entries
        post = gpr.gpr_predict(K[:12, :12], K[12:, :12], np.diag(K)[12:], y, 0.1)
        table = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 1], post.mean)
        assert np.array_equal(table[:, 2], post.variance)

    @pytest.mark.parametrize(
        "args",
        [  # SMALL_TRAIN[4:] drops its data.d and data.n; the test sets both for the file
            ["train", *SMALL_TRAIN[4:], "--override", "train.temperature=0.05"],
            ["dynamics", "--override", "dyn.kappa2=0.5", "--override", "dyn.steps=20"],
            ["compare", *SMALL_TRAIN[4:], "--override", "compare.tolerance=10"],
        ],
        ids=["train", "dynamics", "compare"],
    )
    def test_commands_follow_file_labels(self, tmp_path, args):
        X = self.write_points(tmp_path / "a.csv", header="a,b,y")
        b = tmp_path / "b.csv"
        b.write_text("a,b,y\n" + "".join(f"{u!r},{v!r},{100.0 + k!r}\n" for k, (u, v) in enumerate(X[:, :2].tolist())))
        tables = []
        for name in ("a.csv", "b.csv"):
            code, out = run_cli(
                tmp_path / name.replace(".", "_"), *args, "--override", f"data.file={tmp_path / name}",
                "--override", "data.label_column=y", "--override", "data.d=2", "--override", "data.n=12",
            )
            assert code in (0, 1)
            assert "test_mse" not in textio.read_kv(out / "summary.kv")
            tables.append((out / "results.csv").read_bytes())
        assert tables[0] != tables[1]

    @pytest.mark.parametrize("text", [None, "", "a,b,y\n", "1,2\n3\n", "1,2\n3,x\n", "a,b\n1,2,3\n"])
    def test_unreadable_file_exit_2(self, tmp_path, text):
        path = tmp_path / "points.csv"
        if text is not None:
            path.write_text(text)
        code, _ = run_cli(
            tmp_path, "kernel", "--override", f"data.file={path}", "--override", "data.d=2",
            "--override", "data.n=2",
        )
        assert code == 2

    def test_missing_label_column_exit_2(self, tmp_path):
        path = tmp_path / "labelled.csv"
        self.write_points(path, header="a,b,y")
        code, _ = run_cli(
            tmp_path, "kernel", "--override", f"data.file={path}", "--override", "data.label_column=z",
            "--override", "data.d=2", "--override", "data.n=12",
        )
        assert code == 2


def fmt_reference(v) -> str:
    """The per-value rule results.csv has always used."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _symmetric_with_specials():
    """A bitwise-symmetric square with NaN, ±inf and -0.0."""
    A = np.random.default_rng(3).standard_normal((5, 5))
    A[0, 3] = A[3, 0] = np.nan
    A[1, 4] = A[4, 1] = np.inf
    A[2, 4] = A[4, 2] = -np.inf
    A[2, 2] = -0.0
    A = A + A.T
    assert np.array_equal(A.view(np.uint64), A.T.view(np.uint64))
    return A


def _signed_zero_pair():
    """Symmetric in value, not in bits: 0.0 at (0, 2), -0.0 at (2, 0)."""
    A = np.ones((3, 3))
    A[0, 2], A[2, 0] = 0.0, -0.0
    return A


class TestWriteCSV:
    def test_bytes_match_per_value_rule(self, tmp_path):
        floats = np.array([-0.0, 5e-324, 1e22, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, -2.5e-300])
        n = floats.size
        columns = [
            np.arange(-4, n - 4, dtype=np.int64),
            floats,
            np.array([True, False] * 4 + [True]),
            np.array(["ek", "ridgeless", "a b", "x", "y", "z", "", "long_name", "q"]),
            np.linspace(0.0, 1.0, n, dtype=np.float32),
            np.arange(n, dtype=np.uint32),
        ]
        header = ["i", "f", "b", "s", "f32", "u"]
        path = tmp_path / "r.csv"
        textio.write_csv(path, header, columns)
        rows = [",".join(fmt_reference(v) for v in row) for row in zip(*columns)]
        assert path.read_bytes() == ("\n".join([",".join(header), *rows]) + "\n").encode()

    def test_no_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        textio.write_csv(path, ["a", "b"], [np.zeros(0), np.zeros(0, dtype=int)])
        assert path.read_bytes() == b"a,b\n"

    def test_rejects_header_column_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            textio.write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3)])
        assert not (tmp_path / "r.csv").exists()

    def test_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            textio.write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
        assert not (tmp_path / "r.csv").exists()

    @staticmethod
    def expected_csv(header, columns) -> bytes:
        rows = [",".join(fmt_reference(v) for v in row) for row in zip(*columns)]
        return ("\n".join([",".join(header), *rows]) + "\n").encode()

    def test_blocks_of_mixed_columns(self, tmp_path):
        n = 2 * textio.BLOCK_ROWS + 1
        rng = np.random.default_rng(2)
        columns = [
            np.arange(n, dtype=np.int64) - 5,
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            rng.random(n) < 0.5,
            np.array([f"s{i % 7}" for i in range(n)]),
        ]
        header = ["i", "f", "b", "s"]
        path = tmp_path / "r.csv"
        textio.write_csv(path, header, columns)
        assert path.read_bytes() == self.expected_csv(header, columns)

    @pytest.mark.parametrize(
        "columns",
        [
            list(_symmetric_with_specials()),
            list(_signed_zero_pair()),
            [np.array([0.1])],
            [np.arange(1, 4), np.array([2.0, 0.5, 0.5]), np.array([3.0, 0.5, 0.5])],
            list(np.array([[0.1, 0.2, 0.3], [0.2, 0.1, 0.4], [0.3, 0.4, 0.1]], dtype=np.float32)),
        ],
        ids=["symmetric-nan-inf", "signed-zero", "1x1", "int-column", "float32"],
    )
    def test_square_tables_match_per_value_rule(self, tmp_path, columns):
        header = [f"k{j}" for j in range(len(columns))]
        path = tmp_path / "r.csv"
        textio.write_csv(path, header, columns)
        assert path.read_bytes() == self.expected_csv(header, columns)

    def test_failed_write_leaves_nothing(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        n = 2 * textio.BLOCK_ROWS
        bad = np.array(["x"] * (textio.BLOCK_ROWS + 1) + [Unprintable()] * (n - textio.BLOCK_ROWS - 1), dtype=object)
        with pytest.raises(RuntimeError):
            textio.write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(n), bad])
        with pytest.raises(ValueError):
            textio.write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
        assert list(tmp_path.iterdir()) == []

    def test_matrix_bytes_match_per_value_rule(self, tmp_path):
        M = np.random.default_rng(1).standard_normal((4, 3))
        M[0, 0] = -0.0
        path = tmp_path / "m.txt"
        textio.write_matrix(path, M)
        expected = "".join(",".join(fmt_reference(v) for v in row) + "\n" for row in M)
        assert path.read_text() == expected


class TestTextIO:
    def test_kv_roundtrip(self, tmp_path):
        path = tmp_path / "x.kv"
        textio.write_kv(path, {"a": 1, "b": 2.5, "c": True, "d": "text"})
        back = textio.read_kv(path)
        assert back == {"a": "1", "b": "2.5", "c": "true", "d": "text"}

    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.txt"
        M = np.random.default_rng(0).standard_normal((3, 4))
        textio.write_matrix(path, M)
        back = textio.read_matrix(path)
        assert np.allclose(back, M, atol=1e-15)

    def test_config_rejects_duplicates(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(Exception):
            textio.read_config(path)

    def test_config_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nkey = value\n")
        assert textio.read_config(path) == {"key": "value"}

    def test_atomic_write_lf(self, tmp_path):
        path = tmp_path / "f.txt"
        textio.atomic_write_text(path, "x\ny\n")
        assert path.read_bytes() == b"x\ny\n"
