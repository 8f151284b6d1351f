import os

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mblchain import cli, experiments
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
])
def test_range_errors_exit_config(tmp_path, capsys, args, message):
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not list(tmp_path.iterdir())


def test_solver_failure_exits_numerical(tmp_path, monkeypatch):
    def stalls(config, index):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((3, 0)))

    monkeypatch.setitem(experiments.METRICS, "eigencorrelator", stalls)
    code = cli.main(["xy-ecorr", "--chain-length", "10", "--distances", "1,2",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all validation checks passed" in out


def test_describe_lists_commands(capsys):
    assert cli.main(["describe"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for name in ("xy-entropy", "xxz-droploc", "lr-lightcone"):
        assert name in out


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
