"""Command-line front end: config parsing, experiment dispatch, outputs.

Configs are flat key=value text files; any key can be overridden on the
command line.  Each subcommand accepts only the settings it reads
(SETTINGS; lr-lightcone those of the chosen --model), as flags and as
config keys.  Every run writes a
comma-separated table with a '#' metadata preamble, a whitespace-separated
.dat twin for plotting tools, and a manifest with the echoed settings, the
tridiagonal solver and numpy/LAPACK that ran, and sha256 checksums of the
data files.  Data files are byte-identical under
a fixed seed.

Exit codes, set in main alone with one stderr line: 0 success, 2 configuration
error (parse errors, or an OSError naming a config or output path), 3 numerical
failure (a failed certificate, or numpy's LinAlgError: no engine wraps LAPACK's
errors), 4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from functools import partial

import numpy as np

from . import experiments, oracle, xxz, xy
from .disorder import DisorderSpec, SeedPlan, sample_field
from .errors import ConfigurationError, DegeneracyError, NumericalError, require_memory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

ARTIFACT_VERSION = "0.1.0"

# typed schema of the flat config; comma-separated lists for sequences
_SCHEMA = {
    "seed": (int, 1),
    "realizations": (int, 1),
    "chain_length": (int, 0),
    "half_length": (int, 0),
    "probe_site": (int, 0),
    "n_particles": (int, 1),
    "n_max": (int, 10),
    "sup_samples": (int, 200),
    "anisotropy": (float, 2.0),
    "gamma": (float, 0.0),
    "boundary_weight": (float, None),
    "safety": (float, 0.5),
    "window_kind": (str, "I_delta"),
    "model": (str, "xy"),
    "disorder_kind": (str, "uniform"),
    "disorder_min": (float, 0.0),
    "disorder_max": (float, 1.0),
    "disorder_coupling": (float, 1.0),
    "distances": ("int_list", ()),
    "block_sizes": ("int_list", ()),
    "time_grid": ("float_list", (0.5, 2.0, 10.0, 50.0)),
    "out_dir": (str, None),
}


def _convert(key: str, raw: str):
    kind, default = _SCHEMA[key]
    try:
        if kind == "int_list":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if kind == "float_list":
            value = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        elif kind is float and default is None and raw.lower() == "none":
            return None
        else:
            value = kind(raw)
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: cannot parse {raw!r}")
    if kind in (float, "float_list") and not np.isfinite(value).all():
        raise ConfigurationError(f"config key {key!r}: {raw!r} is not finite")
    return value


def load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw.strip())
    return values


def merge_settings(args: argparse.Namespace) -> dict:
    config = load_config_file(args.config) if getattr(args, "config", None) else {}
    given = dict(config)
    for key in (*SETTINGS[args.command], "out_dir"):
        override = getattr(args, key, None)
        if override is not None:  # flags parse like config values
            given[key] = _convert(key, override)
    reads, reader = SETTINGS[args.command], args.command
    if args.command == "lr-lightcone":  # only the chosen model's settings
        model = given.get("model", _SCHEMA["model"][1])
        reads = _lightcone_reads(_lightcone_kind(model))
        reader = f"lr-lightcone --model {model}"
    unread = sorted(key for key in given if key not in reads | {"out_dir"})
    if unread:
        where = f"{args.config}: " if set(unread) & set(config) else ""
        raise ConfigurationError(
            f"{where}{reader} does not read {', '.join(map(repr, unread))}")
    return {**{key: _SCHEMA[key][1] for key in (*reads, "out_dir")}, **given}


def _disorder(settings: dict) -> DisorderSpec:
    kind = settings["disorder_kind"]
    lo, hi = settings["disorder_min"], settings["disorder_max"]
    if kind == "constant":
        hi = lo
    return DisorderSpec(kind=kind, support_min=lo, support_max=hi,
                        coupling=settings["disorder_coupling"])


def build_experiment_config(kind: str, settings: dict) -> experiments.ExperimentConfig:
    # every field the kind reads comes from the setting of the same name
    named = {key: settings[key] for key in experiments.READS[kind]}
    return experiments.ExperimentConfig(
        kind=kind, disorder=_disorder(settings), seeds=SeedPlan(settings["seed"]),
        realizations=settings["realizations"], **named)


# ---------------------------------------------------------------------------
# output plumbing

def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_outputs(out_dir: str, name: str, columns, rows, meta: dict,
                  settings: dict) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    preamble = ["# units: natural (coupling 1); entropies in nats unless noted",
                f"# artifact_version = {ARTIFACT_VERSION}"]
    # the settings read; out_dir is not echoed: where files land must not
    # change their bytes
    echoed = sorted(key for key in settings if key != "out_dir")
    for key in echoed:
        preamble.append(f"# {key} = {_format_value(settings[key])}")
    for key in sorted(meta):
        preamble.append(f"# {key} = {_format_value(meta[key])}")

    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(preamble) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")

    dat_path = os.path.join(out_dir, f"{name}.dat")
    with open(dat_path, "w") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            fh.write(" ".join(_format_value(v) for v in row) + "\n")

    manifest_path = os.path.join(out_dir, f"{name}.manifest")
    with open(manifest_path, "w") as fh:
        fh.write(f"artifact_version = {ARTIFACT_VERSION}\n")
        fh.write(f"command = {name}\n")
        fh.write(f"written = {started}\n")
        fh.write(f"tridiagonal_solver = {xy.TRIDIAGONAL_SOLVER}\n")
        fh.write(f"numpy_version = {np.__version__}\n")
        lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack")
        if lapack:  # numpy >= 1.26 names the LAPACK it was built with
            fh.write(f"numpy_lapack = {lapack.get('name')} {lapack.get('version')}\n")
        for key in echoed:
            fh.write(f"config.{key} = {_format_value(settings[key])}\n")
        for path in (csv_path, dat_path):
            fh.write(f"sha256 {os.path.basename(path)} = {_sha256(path)}\n")
    return [csv_path, dat_path, manifest_path]


def _fit_meta(prefix: str, fit: experiments.DecayFit) -> dict:
    if not fit.available:
        return {f"{prefix}_available": False}
    values = {"available": True, "rate": fit.rate, "intercept": fit.intercept,
              "r_squared": fit.r_squared, "ci_halfwidth": fit.rate_confidence_halfwidth,
              "points": fit.points_used}
    return {f"{prefix}_{key}": value for key, value in values.items()}


# ---------------------------------------------------------------------------
# subcommands

_FITS = {"decay": experiments.fit_exponential_decay,
         "log_slope": experiments.fit_log_slope}

# ensemble subcommands: experiment kind, key column label, fit (its name is
# also the prefix of its meta keys) and the summary statistic it is fitted to
ENSEMBLES = {
    "xy-ecorr": ("eigencorrelator", "distance", "decay", "mean"),
    "xy-kernel": ("dynamical_kernel", "distance", "decay", "mean"),
    "xy-entropy": ("entropy_sup", "block_size", "log_slope", "mean"),
    "xy-quench": ("quench_entropy", "block_size", "log_slope", "mean"),
    "xxz-profile": ("droplet_profile", "droplet_distance", "decay", "max_value"),
    "xxz-droploc": ("droplet_localization", "distance", "decay", "mean"),
    "xxz-cluster": ("sector_correlator", "distance", "decay", "mean"),
    "quasi-locality": ("quasi_locality", "truncation_radius", "decay", "mean"),
}


def _run_ensemble_command(row, settings) -> tuple[list, list, dict]:
    kind, key_label, fit_name, statistic = row
    summary = experiments.run_ensemble(build_experiment_config(kind, settings))
    fit = _FITS[fit_name](summary.keys, getattr(summary, statistic))
    meta = _fit_meta(fit_name, fit)
    meta["substituted_realizations"] = len(summary.substituted)
    return [key_label, "mean", "stderr", "max"], summary.as_rows(), meta


def cmd_xy_aniso(settings):
    n = settings["chain_length"]
    if n < 2:
        raise ConfigurationError("chain_length >= 2 required")
    w = sample_field(_disorder(settings), n, SeedPlan(settings["seed"]), 0)
    block = xy.block_m(w, settings["gamma"])
    vals, vecs = np.linalg.eigh(block)
    xy.check_eigenpairs(vecs, np.abs(block - (vecs * vals) @ vecs.T).max(),
                        max(np.abs(block).max(), 1.0))
    symmetry = float(np.abs(np.sort(vals) + np.sort(-vals)[::-1]).max())
    meta = {"spectrum_symmetry_defect": symmetry}
    rows = [(i, float(v)) for i, v in enumerate(vals)]
    return (["index", "eigenvalue"], rows, meta)


def cmd_xxz_bands(settings):
    n_max, delta = settings["n_max"], settings["anisotropy"]
    if n_max < 1:
        raise ConfigurationError("n_max >= 1 required")
    # 168 bytes a row (a listed tuple of an int and two floats), measured at 2e6 rows
    require_memory(168 * n_max, f"xxz-bands --n-max {n_max}")
    bands = ((n, xxz.droplet_band(n, delta)) for n in range(1, n_max + 1))
    rows = [(n, band.lower, band.upper) for n, band in bands]
    # 1 - 1/Delta^2 is 1.0 in double from Delta = 1e9 on, long before Delta^2 overflows
    limit = float(np.sqrt(1.0 - 1.0 / min(delta, 1e9) ** 2))
    return (["n_particles", "lower", "upper"], rows, {"band_limit": limit})


def cmd_xxz_ct(settings):
    config = build_experiment_config("ct_pass", settings)
    rows = []
    for index in range(config.realizations):
        with experiments.realization_failures(index):
            d, measured, bound = experiments.ct_sample(config, index)
        rows.append((d, measured, bound, int(measured <= bound)))
    rows.sort(key=lambda r: r[0])
    meta = {"pass_fraction": sum(r[3] for r in rows) / config.realizations,
            "samples": config.realizations}
    return (["distance", "measured", "bound", "pass"], rows, meta)


def _lightcone_kind(model: str) -> str:
    kind = {"xy": "xy_commutator", "xxz": "xxz_commutator"}.get(model)
    if kind is None:
        raise ConfigurationError(
            f"unknown lr-lightcone model {model!r} (xy or xxz)")
    return kind


def cmd_lr_lightcone(settings):
    kind = _lightcone_kind(settings["model"])
    columns, rows, meta = _run_ensemble_command(
        (kind, "distance", "decay", "mean"), settings)
    if kind == "xy_commutator" and settings["disorder_kind"] == "constant":
        config = build_experiment_config(kind, settings)
        for d, t in sorted(experiments.xy_commutator_arrival(config).items()):
            meta[f"arrival_time_d{d}"] = t
    return columns, rows, meta


def cmd_quasi_locality(settings):
    columns, rows, meta = _run_ensemble_command(ENSEMBLES["quasi-locality"],
                                                settings)
    meta["approximant"] = "conditional expectation of the evolved observable"
    return columns, rows, meta


def cmd_ising(settings):
    # the length and block sizes used are the ones echoed
    n = settings["chain_length"] = settings["chain_length"] or 10
    w = sample_field(_disorder(settings), n, SeedPlan(settings["seed"]), 0)
    meta = {}
    if n <= 12:
        formula = oracle.ising_exact(w)
        energies = oracle.full_energies(oracle.build_full("ising", w))
        meta["spectrum_max_deviation"] = float(
            np.abs(np.sort(formula) - energies).max())
    ells = settings["block_sizes"] = settings["block_sizes"] or tuple(range(2, 65))
    rows = [(ell, oracle.droplet_superposition_entropy(ell, 2 * ell, "closed"))
            for ell in ells]
    fit = experiments.fit_log_slope([r[0] for r in rows], [r[1] for r in rows])
    meta.update(_fit_meta("log_slope", fit))
    return (["block_size", "entropy"], rows, meta)


DESCRIPTIONS = {
    "xy-ecorr": "Eigenvector correlator of the one-particle matrix M against"
                " distance: its exponential decay is single-particle"
                " localization in the strong (uniform-over-functions) sense.",
    "xy-kernel": "Disorder average of the time-sup propagator kernel"
                 " |exp(-itM)_jk|: dynamical localization of the chain.",
    "xy-entropy": "Sampled sup over eigenstates of bipartite entanglement"
                  " entropy against block size: the disordered chain obeys an"
                  " area law, the clean critical chain a log law with"
                  " coefficient 1/3 in base 2.",
    "xy-quench": "Entanglement growth after coupling two chains prepared in"
                 " an eigenstate product: bounded in time for the disordered"
                 " chain.",
    "xy-aniso": "Spectrum of the doubled one-particle block matrix of the"
                " anisotropic chain; symmetric about zero.",
    "xxz-bands": "Closed-form low-energy bands of the free N-particle"
                 " droplet spectrum; nested and converging to"
                 " sqrt(1 - 1/Delta^2).",
    "xxz-profile": "Mass of window eigenvectors against distance from the"
                   " droplet configurations: exponential confinement to"
                   " droplets.",
    "xxz-ct": "Resolvent kernel decay between configuration sets at"
              " below-band energies, against the explicit exponential bound"
              " in the l1 configuration distance.",
    "xxz-droploc": "Disorder average of sum over droplet-window eigenstates"
                   " of ||N_j psi|| ||N_k psi|| against |j-k|: droplet"
                   " localization.",
    "xxz-cluster": "Single-sector window correlator Q_N(j,k) against"
                   " distance: the N-particle contribution to exponential"
                   " clustering.",
    "lr-lightcone": "Commutator norms of evolved local observables: ballistic"
                    " light cone for the clean chain (arrival times per"
                    " distance), distance-decaying plateau (zero velocity)"
                    " under disorder; for the XXZ model restricted to the"
                    " energy window chosen by --window-kind.",
    "quasi-locality": "Error of a finite-radius conditional-expectation"
                      " approximant of the evolved number operator, within"
                      " the droplet window: decays in the radius.",
    "ising": "Exactly solvable chain: subset-labeled spectrum, and the"
             " log-growing entanglement of a uniform droplet superposition.",
    "validate": "Cross-engine equivalence suite: free-fermion identities,"
                " sector-block extraction, and closed forms, all checked"
                " against brute-force dense computations.",
    "describe": "What each subcommand measures.",
}


def cmd_describe(settings):
    del settings
    for name in sorted(DESCRIPTIONS):
        print(f"{name}:")
        print(f"  {DESCRIPTIONS[name]}")
    return None


# ---------------------------------------------------------------------------
# validation suite

def _validate_checks():
    plan = SeedPlan(977)

    def xy_spectrum():
        n = 6
        w = sample_field(DisorderSpec(), n, plan, 0)
        es = xy.diagonalize(w)
        free = sorted(
            xy.eigenstate_energy(es, ((c >> np.arange(n)) & 1) == 1, -w.sum())
            for c in range(2 ** n))
        full = oracle.full_energies(oracle.build_full("xy", w))
        return float(np.abs(np.array(free) - full).max()), 1e-9

    def car():
        modes = oracle.jordan_wigner_modes(5)
        return oracle.car_defect(modes), 1e-12

    def entropy_identity():
        n = 6
        w = sample_field(DisorderSpec(), n, plan, 1)
        es = xy.diagonalize(w)
        full = oracle.diagonalize_full(oracle.build_full("xy", w))
        occupied = ((19 >> np.arange(n)) & 1) == 1
        gamma = xy.eigenstate_correlation_matrix(es, occupied)
        s_free = xy.entanglement_entropy(gamma[:3, :3])
        energy = xy.eigenstate_energy(es, occupied, -w.sum())
        col = int(np.argmin(np.abs(full.energies - energy)))
        s_full = oracle.reduced_entropy(full.vectors[:, col], 3)
        return abs(s_free - s_full), 1e-8

    def xxz_block():
        L, n_part, delta = 3, 2, 3.0
        w = sample_field(DisorderSpec(), 2 * L + 1, plan, 2)
        h = xxz.build_h_sector(n_part, L, delta, 0.5, w)
        full = oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=0.5)
        es = oracle.diagonalize_full(full)
        numbers = oracle.eigenstate_particle_numbers(es, 2 * L + 1)
        sector_vals = np.sort(np.linalg.eigvalsh(h.basis.dense(h.data)))
        full_vals = np.sort(es.energies[numbers == n_part])
        return float(np.abs(sector_vals - full_vals).max()), 1e-10

    def ising_formula():
        n = 8
        w = sample_field(DisorderSpec(), n, plan, 3)
        formula = oracle.ising_exact(w)
        energies = oracle.full_energies(oracle.build_full("ising", w))
        return float(np.abs(np.sort(formula) - energies).max()), 1e-10

    def droplet_entropy_paths():
        worst = 0.0
        for ell in (2, 3, 4):
            a = oracle.droplet_superposition_entropy(ell, 2 * ell, "closed")
            b = oracle.droplet_superposition_entropy(ell, 2 * ell, "matrix")
            worst = max(worst, abs(a - b))
        return worst, 1e-10

    return [("xy spectrum identity", xy_spectrum),
            ("canonical anticommutation relations", car),
            ("entropy formula identity", entropy_identity),
            ("xxz sector block extraction", xxz_block),
            ("ising formula spectrum", ising_formula),
            ("droplet superposition entropy paths", droplet_entropy_paths)]


def cmd_validate(settings):
    del settings
    failed = 0
    for name, check in _validate_checks():
        deviation, tolerance = check()
        ok = deviation < tolerance
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}: deviation {deviation:.3e} (tol {tolerance:.0e})")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} validation check(s) failed")
        raise _ValidationFailure()
    print("all validation checks passed")
    return None


class _ValidationFailure(Exception):
    pass


COMMANDS = {
    **{name: partial(_run_ensemble_command, row)
       for name, row in ENSEMBLES.items()},
    "quasi-locality": cmd_quasi_locality,  # its table row plus the approximant
    "lr-lightcone": cmd_lr_lightcone,
    "xy-aniso": cmd_xy_aniso,
    "xxz-bands": cmd_xxz_bands,
    "xxz-ct": cmd_xxz_ct,
    "ising": cmd_ising,
    "validate": cmd_validate,
    "describe": cmd_describe,
}


# the settings each subcommand reads: its flags, its admissible config keys
# and its config echo (out_dir is always admissible and never echoed)
_FIELD = frozenset({"seed", "disorder_kind", "disorder_min", "disorder_max",
                    "disorder_coupling"})
_ENSEMBLE = _FIELD | {"realizations"}
_READS = experiments.READS


def _lightcone_reads(kind: str) -> frozenset:
    return _READS[kind] | _ENSEMBLE | {"model"}


SETTINGS = {
    **{name: _READS[row[0]] | _ENSEMBLE for name, row in ENSEMBLES.items()},
    "xxz-ct": _READS["ct_pass"] | _ENSEMBLE,
    # the flags of both models; a run reads those of the chosen one
    "lr-lightcone": (_lightcone_reads("xy_commutator")
                     | _lightcone_reads("xxz_commutator")),
    "xy-aniso": _FIELD | {"chain_length", "gamma"},
    "xxz-bands": frozenset({"anisotropy", "n_max"}),
    "ising": _FIELD | {"chain_length", "block_sizes"},
    "validate": frozenset(),
    "describe": frozenset(),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, not the usage block argparse prints first
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mblchain",
        description="Numerical experiments on localization in disordered"
                    " spin chains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=DESCRIPTIONS[name])
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out-dir", dest="out_dir",
                       help="output directory (default: env MBLCHAIN_OUT or .)")
        for key in sorted(SETTINGS[name]):
            p.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = merge_settings(args)
        out_dir = settings.get("out_dir") or os.environ.get("MBLCHAIN_OUT", ".")
        with np.errstate(all="ignore"):  # NaN and inf fail the certificates
            result = COMMANDS[args.command](settings)
        if result is not None:
            columns, rows, meta = result
            paths = write_outputs(out_dir, args.command, columns, rows, meta,
                                  settings)
            for path in paths:
                print(f"wrote {path}")
        return EXIT_OK
    except SystemExit as exc:  # --help
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ConfigurationError, OSError) as exc:  # an OSError names its path
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _ValidationFailure:
        return EXIT_VALIDATION
    except (NumericalError, DegeneracyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
