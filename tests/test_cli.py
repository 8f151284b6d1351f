import os

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mblchain import cli, experiments, oracle, xxz
from mblchain.disorder import DisorderSpec, SeedPlan, sample_field
from mblchain.errors import ConfigurationError


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 9\nanisotropy = 2.5\n"
                    "distances = 1,2,4\nwindow_kind = I\n")
    values = cli.load_config_file(str(path))
    assert values == {"seed": 9, "anisotropy": 2.5,
                      "distances": (1, 2, 4), "window_kind": "I"}


def test_load_config_file_diagnostics(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 9\nnot a pair\n")
    with pytest.raises(ConfigurationError, match="bad.cfg:2"):
        cli.load_config_file(str(path))
    path.write_text("mystery = 1\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        cli.load_config_file(str(path))
    path.write_text("seed = banana\n")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        cli.load_config_file(str(path))


def test_unknown_subcommand_exits_config():
    assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG


def test_config_error_exit(tmp_path):
    code = cli.main(["xxz-bands", "--anisotropy", "0.5",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("args", [
    ["lr-lightcone", "--model", "xy", "--chain-length", "6",
     "--distances", "2,-1"],
    ["lr-lightcone", "--model", "xy", "--chain-length", "6",
     "--distances", "2,9"],
    ["xy-ecorr", "--chain-length", "10", "--distances", "1,20"],
])
def test_probed_site_outside_chain_exits_config(tmp_path, capsys, args):
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "outside the chain" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (["xy-entropy", "--chain-length", "10", "--block-sizes", "20"],
     "block sizes [20] outside"),
    (["xy-quench", "--chain-length", "10", "--block-sizes", "0,4"],
     "block sizes [0] outside"),
    (["quasi-locality", "--half-length", "3", "--probe-site", "9"],
     "outside the chain"),
    (["xxz-cluster", "--half-length", "2", "--n-particles", "2",
      "--anisotropy", "6.0", "--distances", "1,-3"],
     "distances [-3] outside"),
    (["xxz-droploc", "--half-length", "2", "--anisotropy", "6.0",
      "--distances", "1,9"],
     "distances [9] outside"),
    (["xy-quench", "--chain-length", "10"],
     "quench_entropy needs a nonempty block_sizes list"),
    (["xy-ecorr", "--chain-length", "10"],
     "eigencorrelator needs a nonempty distances list"),
    (["xxz-droploc", "--half-length", "2", "--anisotropy", "6.0"],
     "droplet_localization needs a nonempty distances list"),
    (["quasi-locality", "--half-length", "2", "--anisotropy", "6.0"],
     "quasi_locality needs a nonempty block_sizes list"),
    (["xy-kernel", "--chain-length", "10", "--distances", "1,2",
      "--time-grid", ","],
     "dynamical_kernel needs a nonempty time_grid"),
    (["quasi-locality", "--half-length", "2", "--anisotropy", "6.0",
      "--block-sizes", "0,1", "--time-grid", ","],
     "quasi_locality needs a nonempty time_grid"),
    (["xy-quench", "--chain-length", "10", "--block-sizes", "2,4",
      "--time-grid", ","],
     "quench_entropy needs a nonempty time_grid"),
    (["lr-lightcone", "--model", "xy", "--chain-length", "6",
      "--distances", "2", "--time-grid", ","],
     "xy_commutator needs a nonempty time_grid"),
    (["lr-lightcone", "--model", "foo", "--chain-length", "6",
      "--distances", "2,4"],
     "unknown lr-lightcone model 'foo'"),
    (["xxz-profile", "--half-length", "3", "--n-particles", "2",
      "--anisotropy", "3.0", "--distances=-1,0,1,2"],
     "droplet distances [-1] below 0"),
    (["xy-entropy", "--chain-length", "10", "--block-sizes", "2",
      "--sup-samples", "-5"],
     "entropy_sup needs sup_samples >= 1"),
    (["xy-entropy", "--chain-length", "10", "--block-sizes", "2",
      "--sup-samples", "0"],
     "entropy_sup needs sup_samples >= 1"),
    (["xxz-bands", "--n-max", "0"], "n_max >= 1 required"),
])
def test_range_errors_exit_config(tmp_path, capsys, args, message):
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not list(tmp_path.iterdir())


def test_removed_settings_exit_config(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["xy-ecorr", "--chain-length", "10", "--distances", "1",
            "--out-dir", str(out)]
    assert cli.main(args + ["--coupling", "4"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unrecognized arguments: --coupling 4" in err[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field_value = 1\n")
    assert cli.main(args + ["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "unknown key 'field_value'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--gamma", "0.5"], ["--n-particles", "7"],
                                   ["--model", "xxz", "--window-kind", "I"]])
def test_unread_flag_exits_config(tmp_path, capsys, extra):
    args = ["xy-ecorr", "--chain-length", "10", "--distances", "1,2"]
    assert cli.main(args + extra + ["--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"unrecognized arguments: {' '.join(extra)}" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["xy-ecorr", "--chain-length"], "expected one argument"),
])
def test_parse_errors_print_one_line(capsys, args, message):
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("args, unread", [
    (["--model", "xy", "--chain-length", "6", "--distances", "2,4",
      "--half-length", "3", "--window-kind", "I"],
     "lr-lightcone --model xy does not read 'half_length', 'window_kind'"),
    (["--model", "xxz", "--half-length", "2", "--anisotropy", "6.0",
      "--distances", "1,2", "--chain-length", "6"],
     "lr-lightcone --model xxz does not read 'chain_length'"),
    (["--chain-length", "6", "--distances", "2,4", "--anisotropy", "3.0"],
     "lr-lightcone --model xy does not read 'anisotropy'"),
])
def test_lightcone_reads_only_the_chosen_model(tmp_path, capsys, args, unread):
    code = cli.main(["lr-lightcone", *args, "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and unread in err[0]
    assert not list(tmp_path.iterdir())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = xy\nchain_length = 6\ndistances = 2\n"
                   "window_kind = I\n")
    code = cli.main(["lr-lightcone", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "run.cfg: lr-lightcone --model xy does not read" \
        " 'window_kind'" in err[0]
    assert not (tmp_path / "out").exists()


def test_unread_config_key_exits_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chain_length = 10\ndistances = 1,2\ngamma = 0.5\n")
    code = cli.main(["xy-ecorr", "--config", str(cfg), "--out-dir", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "xy-ecorr does not read 'gamma'" in err[0]
    assert not out.exists()


def test_dense_cap_exits_config(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(xxz, "DENSE_DIAG_CAP", 20)
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
    w = sample_field(DisorderSpec(), 7, SeedPlan(1), 0)
    # sectors of dims 7, 21, 35, ...: the cap falls before the first eigh
    with pytest.raises(ConfigurationError, match="dim 35 is above"):
        xxz.ChainSpectrum(3, 6.0, 0.5, w)
    assert not calls
    code = cli.main(["xxz-droploc", "--half-length", "3", "--anisotropy", "6.0",
                     "--distances", "1,2", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "DENSE_DIAG_CAP = 20" in err[0]
    assert not list(tmp_path.iterdir()) and not calls


def test_oracle_cap_exits_config_before_allocating(tmp_path, capsys, monkeypatch):
    cap = oracle.DEFAULT_CAP
    # the longest chain whose 2^n matrix meets the dense memory rule
    assert 2 ** cap <= xxz.DENSE_DIAG_CAP < 2 ** (cap + 1)
    zeros, eye = np.zeros, np.eye

    def small(shape, *args, **kwargs):
        assert np.prod(shape) <= 4 ** cap, f"allocated {shape}"
        return zeros(shape, *args, **kwargs)

    def small_eye(n, *args, **kwargs):
        assert n <= 2 ** cap, f"allocated eye({n})"
        return eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small)
    monkeypatch.setattr(np, "eye", small_eye)
    # an interior probe runs the oracle on the whole chain
    code = cli.main(["lr-lightcone", "--model", "xy", "--chain-length",
                     str(cap + 1), "--probe-site", "3", "--distances", "1,2",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"exceeds dense cap {cap}" in err[0]
    assert not list(tmp_path.iterdir())
    with pytest.raises(ConfigurationError, match="dense cap"):
        oracle.jordan_wigner_modes(cap + 1)


def test_solver_failure_exits_numerical(tmp_path, monkeypatch):
    def stalls(config, index):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((3, 0)))

    monkeypatch.setitem(experiments.METRICS, "eigencorrelator", stalls)
    code = cli.main(["xy-ecorr", "--chain-length", "10", "--distances", "1,2",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL


def test_ct_solver_failure_exits_numerical(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg as spla

    def stalls(op, rhs, **kwargs):
        return np.zeros_like(rhs), 500

    monkeypatch.setattr(spla, "cg", stalls)
    code = cli.main(["xxz-ct", "--half-length", "3", "--n-particles", "2",
                     "--realizations", "2", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "realization 0" in err[0] and "did not converge" in err[0]
    assert not list(tmp_path.iterdir())


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all validation checks passed" in out


def test_describe_lists_commands(capsys):
    assert cli.main(["describe"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for name in ("xy-entropy", "xxz-droploc", "lr-lightcone"):
        assert name in out


# every ensemble subcommand at tiny size: (name, table row, arguments)
_ENSEMBLE_CASES = [
    ("xy-ecorr", ("eigencorrelator", "distance", "decay", "mean"),
     ["--chain-length", "12", "--distances", "1,2,4", "--probe-site", "2"]),
    ("xy-kernel", ("dynamical_kernel", "distance", "decay", "mean"),
     ["--chain-length", "12", "--distances", "1,2,4", "--probe-site", "2",
      "--time-grid", "0.5,2.0"]),
    ("xy-entropy", ("entropy_sup", "block_size", "log_slope", "mean"),
     ["--chain-length", "12", "--block-sizes", "2,4,6", "--sup-samples", "10"]),
    ("xy-quench", ("quench_entropy", "block_size", "log_slope", "mean"),
     ["--chain-length", "12", "--block-sizes", "2,4,6", "--time-grid",
      "0.5,2.0"]),
    ("xxz-profile", ("droplet_profile", "droplet_distance", "decay",
                     "max_value"),
     ["--half-length", "3", "--n-particles", "2", "--anisotropy", "3.0",
      "--distances", "0,1,2,3", "--disorder-coupling", "0.1"]),
    ("xxz-droploc", ("droplet_localization", "distance", "decay", "mean"),
     ["--half-length", "2", "--anisotropy", "6.0", "--distances", "1,2,3"]),
    ("xxz-cluster", ("sector_correlator", "distance", "decay", "mean"),
     ["--half-length", "2", "--n-particles", "2", "--anisotropy", "6.0",
      "--distances", "0,1,2", "--disorder-coupling", "0.1"]),
    ("quasi-locality", ("quasi_locality", "truncation_radius", "decay", "mean"),
     ["--half-length", "3", "--anisotropy", "6.0", "--block-sizes", "0,1,2",
      "--time-grid", "0.5,5.0"]),
    ("lr-lightcone", ("xy_commutator", "distance", "decay", "mean"),
     ["--model", "xy", "--chain-length", "6", "--distances", "1,2,4",
      "--disorder-coupling", "4.0"]),
    ("lr-lightcone", ("xxz_commutator", "distance", "decay", "mean"),
     ["--model", "xxz", "--half-length", "2", "--anisotropy", "6.0",
      "--distances", "1,2,3", "--probe-site", "-2", "--window-kind",
      "I_0_delta"]),
]

_FITS = {"decay": experiments.fit_exponential_decay,
         "log_slope": experiments.fit_log_slope}


@pytest.mark.parametrize("name, row, args", _ENSEMBLE_CASES,
                         ids=[f"{n}-{r[0]}" for n, r, _ in _ENSEMBLE_CASES])
def test_ensemble_subcommand_layout(tmp_path, name, row, args):
    args = [name, *args, "--realizations", "3", "--seed", "4"]
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == cli.EXIT_OK
    kind, label, fit_name, statistic = row
    settings = cli.merge_settings(cli.build_parser().parse_args(args))
    summary = experiments.run_ensemble(cli.build_experiment_config(kind, settings))
    fit = _FITS[fit_name](summary.keys, getattr(summary, statistic))
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    meta = _preamble(tmp_path, name, kind)
    assert data[0] == f"{label},mean,stderr,max"
    assert data[1:] == [",".join(repr(v) for v in r) for r in summary.as_rows()]
    assert fit.available
    fit_meta = cli._fit_meta(fit_name, fit)
    for key, value in fit_meta.items():
        assert meta[key] == cli._format_value(value), key
    assert meta["substituted_realizations"] == "0"
    not_settings = {"artifact_version", "substituted_realizations",
                    "approximant", *fit_meta}
    assert set(meta) - not_settings == _echoed(name, kind)


def _echoed(name, kind=None) -> frozenset:
    # lr-lightcone reads the settings of the chosen model's kind alone
    if name == "lr-lightcone":
        return experiments.READS[kind] | cli._ENSEMBLE | {"model"}
    return cli.SETTINGS[name]


def _preamble(out_dir, name, kind=None) -> dict:
    """The '# key = value' lines of a CSV preamble, each key once; the
    manifest echoes exactly the settings read."""
    lines = (out_dir / f"{name}.csv").read_text().splitlines()
    pairs = [line[2:].split(" = ", 1) for line in lines
             if line.startswith("# ") and " = " in line]
    assert len({key for key, _ in pairs}) == len(pairs)
    manifest = (out_dir / f"{name}.manifest").read_text().splitlines()
    assert {line.split(" = ")[0][len("config."):] for line in manifest
            if line.startswith("config.")} == _echoed(name, kind)
    return dict(pairs)


@pytest.mark.parametrize("args", [
    ["xy-aniso", "--chain-length", "8", "--gamma", "0.5"],
    ["xxz-bands", "--anisotropy", "3.0", "--n-max", "4"],
    ["ising", "--block-sizes", "2,4,8"],
])
def test_other_subcommands_echo_each_setting_once(tmp_path, args):
    name = args[0]
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == cli.EXIT_OK
    meta = _preamble(tmp_path, name)
    assert cli.SETTINGS[name] <= set(meta)
    if name == "ising":  # the chain length used, not the unset default
        assert meta["chain_length"] == "10"


def test_ising_echoes_the_block_sizes_it_computes(tmp_path):
    assert cli.main(["ising", "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    meta = _preamble(tmp_path, "ising")
    sizes = tuple(range(2, 65))
    assert meta["block_sizes"] == str(sizes)
    manifest = (tmp_path / "ising.manifest").read_text().splitlines()
    assert f"config.block_sizes = {sizes}" in manifest
    data = (tmp_path / "ising.dat").read_text().splitlines()[1:]
    assert [int(line.split()[0]) for line in data] == list(sizes)


def test_command_registry_is_described():
    assert set(cli.COMMANDS) == set(cli.DESCRIPTIONS) == set(cli.SETTINGS)
    # the layout test above covers every table row
    assert set(cli.ENSEMBLES) == {name for name, _, _ in _ENSEMBLE_CASES
                                  if name != "lr-lightcone"}


def test_bands_outputs_and_reproducibility(tmp_path):
    args = ["xxz-bands", "--anisotropy", "2.0", "--n-max", "6",
            "--out-dir", str(tmp_path)]
    assert cli.main(args) == cli.EXIT_OK
    csv = tmp_path / "xxz-bands.csv"
    dat = tmp_path / "xxz-bands.dat"
    manifest = tmp_path / "xxz-bands.manifest"
    assert csv.exists() and dat.exists() and manifest.exists()
    text = csv.read_text()
    assert "n_particles,lower,upper" in text
    assert "# units" in text
    # manifest checksums match the emitted files
    sums = {}
    for line in manifest.read_text().splitlines():
        if line.startswith("sha256 "):
            _, name, _, value = line.split()
            sums[name] = value
    assert sums["xxz-bands.csv"] == cli._sha256(str(csv))
    assert sums["xxz-bands.dat"] == cli._sha256(str(dat))
    # re-running reproduces the data files byte for byte
    first = csv.read_bytes(), dat.read_bytes()
    assert cli.main(args) == cli.EXIT_OK
    assert (csv.read_bytes(), dat.read_bytes()) == first


def test_bands_values(tmp_path):
    cli.main(["xxz-bands", "--anisotropy", "2.0", "--n-max", "2",
              "--out-dir", str(tmp_path)])
    rows = [line.split() for line in
            (tmp_path / "xxz-bands.dat").read_text().splitlines()
            if not line.startswith("#")]
    assert float(rows[0][1]) == pytest.approx(0.5)
    assert float(rows[0][2]) == pytest.approx(1.5)
    assert float(rows[1][1]) == pytest.approx(0.75)
    assert float(rows[1][2]) == pytest.approx(1.0)


def test_ct_subcommand_all_pass(tmp_path):
    code = cli.main(["xxz-ct", "--half-length", "5", "--n-particles", "2",
                     "--anisotropy", "2.0", "--safety", "0.5",
                     "--realizations", "6", "--seed", "3",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in
            (tmp_path / "xxz-ct.csv").read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert rows
    for d, measured, bound, ok in rows:
        assert float(measured) <= float(bound)
        assert ok == "1"


def test_ecorr_subcommand_with_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chain_length = 24\nrealizations = 2\n"
                   "distances = 1,3,6\nprobe_site = 4\nseed = 8\n"
                   "disorder_coupling = 4.0\n")
    code = cli.main(["xy-ecorr", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    text = (tmp_path / "xy-ecorr.csv").read_text()
    assert "distance,mean,stderr,max" in text
    assert "# decay_rate" in text or "# decay_available" in text


def test_ising_subcommand(tmp_path):
    code = cli.main(["ising", "--chain-length", "8", "--seed", "2",
                     "--block-sizes", "2,4,8,16", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    text = (tmp_path / "ising.csv").read_text()
    assert "spectrum_max_deviation" in text
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]
    entropies = {int(r[0]): float(r[1]) for r in rows}
    assert entropies[4] == pytest.approx(np.log(4))
