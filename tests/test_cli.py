import ctypes
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy
import scipy.sparse.linalg as spla

from mblchain import cli, experiments, oracle, xxz, xy
from mblchain.errors import ConfigurationError
from mblchain.lapack import bind


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
    *[(["xxz-ct", "--half-length", "3", "--safety", value],
       f"ct_pass needs safety in (0, 2], got {float(value)}")
      for value in ("0", "2.5", "-0.5")],
    (["xxz-ct", "--half-length", "3", "--n-particles", "0"],
     "ct_pass needs n_particles >= 1"),
    (["xxz-profile", "--half-length", "3", "--n-particles", "0",
      "--distances", "0,1"],
     "droplet_profile needs n_particles >= 1"),
    (["xxz-cluster", "--half-length", "3", "--n-particles", "0",
      "--distances", "0,1"],
     "sector_correlator needs n_particles >= 1"),
    (["xy-ecorr", "--chain-length", "10", "--distances", "1",
      "--disorder-kind", "table"],
     "unknown disorder kind 'table'"),
    (["quasi-locality", "--half-length", "3", "--anisotropy", "6.0",
      "--block-sizes=-2,-1,0,1,2", "--time-grid", "0.5,5", "--realizations", "2"],
     "block sizes [-2, -1] outside 0..inf"),
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
    (["xy-ecorr", "--disorder-max", "inf"], "'disorder_max': 'inf' is not finite"),
    (["xy-ecorr", "--disorder-coupling", "nan"],
     "'disorder_coupling': 'nan' is not finite"),
    (["xxz-ct", "--safety", "nan"], "'safety': 'nan' is not finite"),
    (["xxz-droploc", "--anisotropy", "nan"], "'anisotropy': 'nan' is not finite"),
    (["xxz-bands", "--anisotropy", "NaN"], "'anisotropy': 'NaN' is not finite"),
    (["xy-kernel", "--time-grid", "0.5,nan"], "'time_grid': '0.5,nan' is not finite"),
    # `none` is a value only of settings whose default is None
    (["xxz-bands", "--anisotropy", "none"], "'anisotropy': cannot parse 'none'"),
    (["xxz-ct", "--disorder-coupling", "none"],
     "'disorder_coupling': cannot parse 'none'"),
    (["xy-aniso", "--disorder-min", "None"], "'disorder_min': cannot parse 'None'"),
    (["xxz-ct", "--safety", "none"], "'safety': cannot parse 'none'"),
    (["xy-aniso", "--gamma", "none"], "'gamma': cannot parse 'none'"),
    (["xy-ecorr", "--chain-length", "10", "--distances", "1,2", "--seed", "-1"],
     "seed -1 is negative"),
    # a field past the range of a double
    *[([*command, "--disorder-coupling", "1e308", "--disorder-max", "1e308"],
       "disorder support [0.0, 1e+308] times 1e+308 overflows")
      for command in (["xy-entropy", "--chain-length", "20", "--block-sizes", "5"],
                      ["xy-aniso", "--chain-length", "10"],
                      ["xxz-ct", "--half-length", "3", "--n-particles", "2"])],
    (["xy-ecorr", "--chain-length", "10", "--distances", "1",
      "--disorder-min=-1e308", "--disorder-max", "1e308"],
     "disorder support [-1e+308, 1e+308] times 1.0 overflows"),
])
def test_parse_errors_print_one_line(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)      # nothing may be written, even on failure
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not list(tmp_path.iterdir())


def test_boundary_weight_none_is_the_default(tmp_path):
    args = ["xxz-ct", "--half-length", "3", "--n-particles", "2"]
    for out, extra in (("none", ["--boundary-weight", "none"]), ("default", [])):
        assert cli.main([*args, *extra, "--out-dir", str(tmp_path / out)]) == cli.EXIT_OK
    assert ((tmp_path / "none" / "xxz-ct.csv").read_bytes()
            == (tmp_path / "default" / "xxz-ct.csv").read_bytes())


def test_non_finite_config_value_exits_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("time_grid = 1.0, inf\n")
    out = tmp_path / "out"
    args = ["xy-kernel", "--config", str(cfg), "--out-dir", str(out)]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'time_grid': '1.0, inf' is not finite" in err[0]
    assert not out.exists()


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


def test_dense_cap_exits_config(tmp_path, capsys, monkeypatch, memory_budget):
    # the dense rule binds full spectra and window kind I, not the droplet
    # windows: a budget that admits dense solves up to dim 30
    memory_budget(5 * 8 * 30 ** 2)
    calls = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    # sectors of dims 1, 7, 21, 35, ...
    code = cli.main(["xxz-droploc", "--half-length", "3", "--anisotropy", "6.0",
                     "--distances", "1,2", "--out-dir", str(tmp_path / "ok")])
    assert code == cli.EXIT_OK
    assert all(n <= 30 for n, _ in calls)
    capsys.readouterr()
    calls.clear()
    # full spectra: refused before any sector is solved
    code = cli.main(["quasi-locality", "--half-length", "3", "--anisotropy",
                     "6.0", "--block-sizes", "1,2",
                     "--out-dir", str(tmp_path / "full")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "quasi-locality probe of the 7-site chain needs" in err[0]
    assert not calls and not (tmp_path / "full").exists()
    code = cli.main(["xxz-profile", "--half-length", "3", "--n-particles", "3",
                     "--window-kind", "I", "--distances", "1,2",
                     "--out-dir", str(tmp_path / "kind_i")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "dense diagonalization at dim 35 needs" in err[0]
    assert not calls and not (tmp_path / "kind_i").exists()


def test_quasi_locality_counts_every_sector(tmp_path, capsys, monkeypatch,
                                            memory_budget):
    # at L = 3 the largest dense solve (dim 35) takes 29 400 B in place (49 000 B
    # under the dense rule), its evolution 5 * 35 * C(6, 4) doubles, 21 000 B
    # more, and the kept sectors' eigenvectors more again: a budget between the
    # dense rule and the sum is refused before any sector is solved
    memory_budget(50_000)
    calls, solve = [], xxz._dense_eigh

    def recorded(h):
        calls.append(h.dim)
        return solve(h)

    monkeypatch.setattr(xxz, "_dense_eigh", recorded)
    code = cli.main(["quasi-locality", "--half-length", "3", "--anisotropy", "6.0",
                     "--block-sizes", "0,1", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "quasi-locality probe of the 7-site chain needs" in err[0]
    assert not calls and not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, ok, over", [
    (["xy-ecorr", "--distances", "1,2"], 30, 40),
    (["xy-aniso", "--gamma", "0.3"], 15, 20),   # the block matrix is 2L x 2L
])
def test_xy_cap_exits_config(tmp_path, capsys, memory_budget, command, ok, over):
    memory_budget(5 * 8 * 30 ** 2)  # dense solves up to dim 30
    code = cli.main([*command, "--chain-length", str(over),
                     "--out-dir", str(tmp_path / "over")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "dense diagonalization at dim 40 needs" in err[0]
    assert not (tmp_path / "over").exists()
    code = cli.main([*command, "--chain-length", str(ok),
                     "--out-dir", str(tmp_path / "ok")])
    assert code == cli.EXIT_OK


def test_entropy_sup_cap_exits_config(tmp_path, capsys, monkeypatch, memory_budget):
    # at L = 400 the dense solve takes 6.4 MB; at coupling 1 a cut every 10
    # sites keeps about 13 000 modes, 350 at most, and the stacked grams
    # 8 * 13 000 * 350 B = 37 MB: a budget of 16 MB refuses the sup, not the solve
    memory_budget(2 ** 24)
    calls, stacked = [], xy._stacked_entropies
    monkeypatch.setattr(xy, "_stacked_entropies",
                        lambda jobs: calls.append(len(jobs)) or stacked(jobs))
    args = ["xy-entropy", "--chain-length", "400", "--realizations", "1", "--seed", "3"]
    code = cli.main([*args, "--disorder-coupling", "1.0",
                     "--block-sizes", ",".join(map(str, range(10, 400, 10))),
                     "--out-dir", str(tmp_path / "over")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "the entropy sup over 39 cuts needs" in err[0]
    assert not calls and not (tmp_path / "over").exists()
    # c05's four cuts at coupling 4 keep a few hundred modes
    code = cli.main([*args, "--disorder-coupling", "4.0", "--block-sizes", "25,50,100,200",
                     "--out-dir", str(tmp_path / "ok")])
    assert code == cli.EXIT_OK and calls


def test_skeleton_cap_exits_config(tmp_path, capsys):
    # C(81, 20) ~ 4.7e18 configurations, refused before any is enumerated
    code = cli.main(["xxz-ct", "--half-length", "40", "--n-particles", "20",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "above half the physical memory" in err[0]
    assert not list(tmp_path.iterdir())


def test_oracle_cap_exits_config_before_allocating(tmp_path, capsys, monkeypatch,
                                                   memory_budget):
    # a budget whose longest oracle chain (2^n dense matrix) has 5 sites
    cap = 5
    memory_budget(5 * 8 * 4 ** cap)
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
    args = ["lr-lightcone", "--model", "xy", "--probe-site", "3", "--distances", "1"]
    code = cli.main([*args, "--chain-length", str(cap + 1),
                     "--out-dir", str(tmp_path / "over")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"the dense {cap + 1}-site chain needs" in err[0]
    assert not (tmp_path / "over").exists()
    with pytest.raises(ConfigurationError, match=f"dense {cap + 1}-site chain"):
        oracle.jordan_wigner_modes(cap + 1)
    code = cli.main([*args, "--chain-length", str(cap), "--out-dir", str(tmp_path / "ok")])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("args, ok, message", [
    # ising checks its subset spectrum against the oracle up to 12 sites
    # only, so at 28 sites it builds none (it would take at least 14 GB)
    (["ising", "--chain-length", "28"], ["ising", "--chain-length", "8"], None),
    (["xxz-bands", "--n-max", "100000000"], ["xxz-bands", "--n-max", "1000"],
     "xxz-bands --n-max 100000000 needs"),
])
def test_ising_and_bands_refused_before_allocating(tmp_path, capsys, memory_budget,
                                                   args, ok, message):
    memory_budget(2 ** 32)  # half of an 8 GiB machine
    started = time.perf_counter()
    code = cli.main([*args, "--out-dir", str(tmp_path / "over")])
    assert time.perf_counter() - started < 1.0
    if message is None:
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (tmp_path / "over").exists()
    assert cli.main([*ok, "--out-dir", str(tmp_path / "ok")]) == cli.EXIT_OK


def test_ising_peak_memory():
    # the occupation table and the run count are built a column at a time:
    # at 22 sites the whole process stays below 400 MB, where a (2^n, n)
    # int64 shift table alone would take 738 MB
    probe = ("import resource\n"
             "import numpy as np\n"
             "from mblchain import oracle\n"
             "assert oracle.ising_exact(np.zeros(22)).size == 2 ** 22\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env, timeout=120).stdout
    peak_kib = int(out.splitlines()[-1])
    assert peak_kib < 400 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"


def test_solver_failure_exits_numerical(tmp_path, capsys, monkeypatch):
    # any ARPACK failure of the windowed Lanczos, not only no-convergence:
    # a weak field keeps droplet states in the window of the dim-21 sector
    calls = []

    def fails(*args, **kwargs):
        calls.append(args)
        raise spla.ArpackError(-9999)

    # the window solver imports eigsh at call time from the patched module
    monkeypatch.setattr(spla, "eigsh", fails)
    code = cli.main(["xxz-profile", "--half-length", "3", "--n-particles", "2",
                     "--anisotropy", "3.0", "--disorder-coupling", "0.05",
                     "--distances", "1,2", "--realizations", "1",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL and calls
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "realization 0" in err[0] and "ARPACK error" in err[0]


def test_ct_solver_failure_exits_numerical(tmp_path, capsys, monkeypatch):
    def stalls(op, rhs):
        return np.zeros_like(rhs), len(rhs)

    monkeypatch.setattr(xxz, "_cg", stalls)
    code = cli.main(["xxz-ct", "--half-length", "3", "--n-particles", "2",
                     "--realizations", "2", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "realization 0" in err[0] and "did not converge" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    # a NaN residual fails the eigenpair certificate
    (["xy-aniso", "--chain-length", "10", "--gamma", "1e308"],
     "diagonalization out of tolerance: resid=nan"),
    # a NaN value is not read as a missing key
    (["xy-kernel", "--chain-length", "10", "--distances", "1,2,3",
      "--time-grid", "1e308"], "realization 0: key 1 has value nan"),
])
def test_non_finite_results_exit_numerical(tmp_path, capsys, args, message):
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("solver, command, names", [
    # validate's reduced-state entropies
    ("svd", ["validate"], "svd did not converge"),
    ("eigh", ["xy-aniso", "--chain-length", "6", "--gamma", "0.3"],
     "eigh did not converge"),
    # xxz's dense sector solves, inside the ensemble: dsyevd reports that it
    # did not converge (info = 5), a NumericalError
    ("dsyevd", ["quasi-locality", "--half-length", "3", "--anisotropy", "6.0",
                "--block-sizes", "0,1", "--time-grid", "0.5", "--realizations", "1"],
     "realization 0: dense eigensolver dsyevd: |info|=5.00e+00"),
])
def test_lapack_failure_exits_numerical(tmp_path, capsys, monkeypatch, solver,
                                        command, names):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    def no_convergence(*args):
        args[10].value = 5  # info

    if solver == "dsyevd":
        monkeypatch.setattr(xxz, "_DSYEVD", no_convergence)
    else:
        monkeypatch.setattr(np.linalg, solver, fails)
    assert cli.main([*command, "--out-dir", str(tmp_path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and names in err[0]
    assert not list(tmp_path.iterdir())


def _bad_paths(tmp_path):
    """(flags, environment, the path the message names) of configs that
    cannot be read and output directories that cannot be made."""
    plain, text, folder = tmp_path / "plain", tmp_path / "latin1.cfg", tmp_path / "folder"
    plain.write_text("")
    folder.mkdir()
    text.write_bytes("n_max = 2\n# caf\u00e9\n".encode("latin-1"))
    out = ["--out-dir", str(tmp_path / "out")]
    return [
        (["--config", str(tmp_path / "missing.cfg"), *out], {}, tmp_path / "missing.cfg"),
        (["--config", str(folder), *out], {}, folder),
        (["--config", str(text), *out], {}, text),
        (["--out-dir", str(plain)], {}, plain),
        (["--out-dir", str(plain / "sub")], {}, plain / "sub"),
        (["--out-dir", str(tmp_path / ("x" * 300))], {}, tmp_path / ("x" * 300)),
        ([], {"MBLCHAIN_OUT": str(plain)}, plain),
    ]


def test_bad_paths_exit_config(tmp_path, capsys, monkeypatch):
    for flags, env, named in _bad_paths(tmp_path):
        with monkeypatch.context() as patch:
            for key, value in env.items():
                patch.setenv(key, value)
            code = cli.main(["xxz-bands", "--n-max", "2", *flags])
        assert code == cli.EXIT_CONFIG, flags
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(named) in err[0], (flags, err)
        assert err[0].startswith("configuration error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "latin1.cfg", "plain"]
        assert (tmp_path / "plain").read_text() == "" and not list((tmp_path / "folder").iterdir())


_FAILING_SVD = """\
import sys
import numpy as np
from mblchain import cli

def fails(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")

np.linalg.svd = fails
sys.argv[1:] = ["validate"]
cli.entry_point()
"""


def test_process_exit_status(tmp_path):
    # the status the shell sees, which no in-process test can: an exception
    # escaping main would end the process with status 1 and a traceback
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [([sys.executable, "-m", "mblchain.cli", "xxz-bands", "--config",
              str(tmp_path / "missing.cfg"), "--out-dir", str(tmp_path)],
             cli.EXIT_CONFIG, "missing.cfg"),
            ([sys.executable, "-c", _FAILING_SVD], cli.EXIT_NUMERICAL,
             "SVD did not converge")]
    for argv, status, message in runs:
        done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == status, done.stderr
        assert "Traceback" not in done.stderr
        err = done.stderr.strip().splitlines()
        assert len(err) == 1 and message in err[0]
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


def test_manifest_names_the_solver_and_numpy_stack(tmp_path, monkeypatch):
    # which tridiagonal and dense paths ran, numpy with the LAPACK it was built
    # with (named from numpy's own build record: nothing imports scipy to name
    # it), the threads its OpenBLAS reports, the platform, and scipy's version
    # only where scipy is loaded
    args = ["xy-entropy", "--chain-length", "40", "--block-sizes", "5",
            "--sup-samples", "4", "--realizations", "1", "--out-dir", str(tmp_path)]
    assert cli.main(args) == cli.EXIT_OK
    lines = (tmp_path / "xy-entropy.manifest").read_text().splitlines()
    entries = dict(line.split(" = ", 1) for line in lines if " = " in line)
    assert entries["tridiagonal_solver"] == xy.TRIDIAGONAL_SOLVER
    assert xy.TRIDIAGONAL_SOLVER in ("numpy eigh (dense fallback)",
                                     f"dstevd via {getattr(xy._DSTEVD, '__name__', None)}")
    assert entries["dense_solver"] == xxz.DENSE_SOLVER
    assert xxz.DENSE_SOLVER in ("numpy eigh (fallback)",
                                f"dsyevd via {getattr(xxz._DSYEVD, '__name__', None)}")
    assert entries["numpy_version"] == np.__version__
    lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack")
    if lapack:
        assert entries["numpy_lapack"] == f"{lapack['name']} {lapack['version']}"
    else:
        assert "numpy_lapack" not in entries
    threads = bind(("scipy_openblas_get_num_threads64_",), [], ctypes.c_int)
    if threads is not None:
        assert entries["blas_threads"] == str(threads()) and threads() >= 1
    else:
        assert "blas_threads" not in entries
    assert entries["platform"] == platform.platform()
    assert entries["scipy_version"] == scipy.__version__  # this session loaded it
    monkeypatch.delitem(sys.modules, "scipy")
    assert cli.main(args) == cli.EXIT_OK
    lines = (tmp_path / "xy-entropy.manifest").read_text().splitlines()
    assert not [line for line in lines if line.startswith("scipy_version")]


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


# a fresh interpreter per command, since the test session imports scipy:
# the command runs with every realization wrapped, as the bench's tracer
# does, and reports the wrapped calls, the modules first imported inside one
# and the scipy modules loaded by the end
_IMPORT_PROBE = """\
import json, sys
from mblchain import cli, experiments

inside, calls = [], []

def watched(fn):
    def realization(*args, **kwargs):
        calls.append(fn.__name__)
        before = set(sys.modules)
        try:
            return fn(*args, **kwargs)
        finally:
            inside.extend(sorted(set(sys.modules) - before))
    return realization

for kind, fn in list(experiments.METRICS.items()):
    experiments.METRICS[kind] = watched(fn)
experiments.ct_sample = watched(experiments.ct_sample)
assert cli.main(json.loads(sys.argv[1])) == cli.EXIT_OK
print(json.dumps({"inside": inside, "calls": len(calls),
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_bench_commands_never_import_scipy_special(tmp_path):
    # each bench command loads only the scipy subpackage its realizations
    # call, in setup: an import inside a realization would be timed with it.
    # scipy.special (about 4 MB and 50-70 ms of import) stays out of every run.
    # No XY chain loads scipy at all, whatever its length, whether through
    # xy.diagonalize's dstevd (bound from numpy's LAPACK), the closed form
    # (probe site 0), the oracle (an interior probe) or validate's 6-site
    # checks.  Each ensemble command makes one wrapped call per realization,
    # so the check is not passed by unwrapped calls
    ensemble = ["--realizations", "2"]
    runs = {
        "xy-entropy": (["xy-entropy", "--chain-length", "40", "--block-sizes",
                        "5,10", "--sup-samples", "20", *ensemble], "scipy"),
        "xy-quench": (["xy-quench", "--chain-length", "40", "--block-sizes",
                       "5,10", "--time-grid", "1.0,10.0", *ensemble], "scipy"),
        "xxz-ct": (["xxz-ct", "--half-length", "5", "--n-particles", "2",
                    *ensemble], "scipy.linalg"),
        "quasi-locality": (["quasi-locality", "--half-length", "3",
                            "--anisotropy", "6.0", "--block-sizes", "0,1,2",
                            "--time-grid", "0.5,5.0", *ensemble], "scipy"),
        "xy-lightcone": (["lr-lightcone", "--model", "xy", "--chain-length",
                          "6", "--distances", "2,4", "--probe-site", "0",
                          *ensemble], "scipy"),
        "xy-lightcone-interior": (["lr-lightcone", "--model", "xy",
                                   "--chain-length", "6", "--distances", "2,4",
                                   "--probe-site", "1", *ensemble], "scipy"),
        "validate": (["validate"], "scipy"),
    }
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, (args, banned) in runs.items():
        argv = [*args, "--out-dir", str(tmp_path / name)]
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                               json.dumps(argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["calls"] == (0 if name == "validate" else 2), name
        assert report["inside"] == [], name
        loaded = report["scipy"]
        assert "scipy.special" not in loaded, name
        assert not [m for m in loaded
                    if m == banned or m.startswith(banned + ".")], name
