"""Command-line front end: config parsing, experiment dispatch, outputs.

Configs are flat key=value text files; any key can be overridden on the
command line.  Every run writes a comma-separated table with a '#'
metadata preamble, a whitespace-separated .dat twin for plotting tools,
and a manifest with the echoed config and sha256 checksums of the data
files.  Data files are byte-identical under a fixed seed.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

from . import experiments, oracle, xxz, xy
from .disorder import DisorderSpec, SeedPlan, sample_field
from .errors import ConfigurationError, DegeneracyError, NumericalError

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
    "coupling": (float, 1.0),
    "boundary_weight": (float, None),
    "safety": (float, 0.5),
    "field_value": (float, 0.0),
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
    kind, _ = _SCHEMA[key]
    try:
        if kind == "int_list":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if kind == "float_list":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if kind is float and raw.lower() == "none":
            return None
        return kind(raw)
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: cannot parse {raw!r}")


def load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    settings = {key: default for key, (_, default) in _SCHEMA.items()}
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key in _SCHEMA:
        override = getattr(args, key, None)
        if override is not None:
            settings[key] = (_convert(key, override)
                             if isinstance(override, str) and
                             _SCHEMA[key][0] in ("int_list", "float_list")
                             else override)
    return settings


def _disorder(settings: dict) -> DisorderSpec:
    kind = settings["disorder_kind"]
    lo, hi = settings["disorder_min"], settings["disorder_max"]
    if kind == "constant":
        hi = lo
    return DisorderSpec(kind=kind, support_min=lo, support_max=hi,
                        coupling=settings["disorder_coupling"])


def build_experiment_config(kind: str, settings: dict) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        kind=kind,
        chain_length=settings["chain_length"],
        half_length=settings["half_length"],
        disorder=_disorder(settings),
        seeds=SeedPlan(settings["seed"]),
        realizations=settings["realizations"],
        distances=tuple(settings["distances"]),
        block_sizes=tuple(settings["block_sizes"]),
        time_grid=tuple(settings["time_grid"]),
        probe_site=settings["probe_site"],
        anisotropy=settings["anisotropy"],
        gamma=settings["gamma"],
        coupling=settings["coupling"],
        boundary_weight=settings["boundary_weight"],
        window_kind=settings["window_kind"],
        safety=settings["safety"],
        n_particles=settings["n_particles"],
        sup_samples=settings["sup_samples"],
    )


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
    for key in sorted(settings):
        if key == "out_dir":  # where files land must not change their bytes
            continue
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
        for key in sorted(settings):
            if key == "out_dir":
                continue
            fh.write(f"config.{key} = {_format_value(settings[key])}\n")
        for path in (csv_path, dat_path):
            fh.write(f"sha256 {os.path.basename(path)} = {_sha256(path)}\n")
    return [csv_path, dat_path, manifest_path]


def _fit_meta(prefix: str, fit: experiments.DecayFit) -> dict:
    if not fit.available:
        return {f"{prefix}_available": False}
    return {
        f"{prefix}_available": True,
        f"{prefix}_rate": fit.rate,
        f"{prefix}_intercept": fit.intercept,
        f"{prefix}_r_squared": fit.r_squared,
        f"{prefix}_ci_halfwidth": fit.rate_confidence_halfwidth,
        f"{prefix}_points": fit.points_used,
    }


def _summary_rows(summary: experiments.EnsembleSummary):
    return [(k, m, s, x) for k, m, s, x in summary.as_rows()]


# ---------------------------------------------------------------------------
# subcommands

def _run_decay_command(kind: str, name: str, settings: dict,
                       key_label: str) -> tuple[list, list, dict]:
    config = build_experiment_config(kind, settings)
    summary = experiments.run_ensemble(config)
    fit = experiments.fit_exponential_decay(summary.keys, summary.mean)
    meta = _fit_meta("decay", fit)
    meta["substituted_realizations"] = len(summary.substituted)
    return ([key_label, "mean", "stderr", "max"], _summary_rows(summary), meta)


def cmd_xy_ecorr(settings):
    return _run_decay_command("eigencorrelator", "xy-ecorr", settings, "distance")


def cmd_xy_kernel(settings):
    return _run_decay_command("dynamical_kernel", "xy-kernel", settings, "distance")


def cmd_xy_entropy(settings):
    config = build_experiment_config("entropy_sup", settings)
    summary, fit = experiments.scan_area_law(config)
    meta = _fit_meta("log_slope", fit)
    meta["substituted_realizations"] = len(summary.substituted)
    return (["block_size", "mean", "stderr", "max"], _summary_rows(summary), meta)


def cmd_xy_quench(settings):
    config = build_experiment_config("quench_entropy", settings)
    summary = experiments.run_ensemble(config)
    fit = experiments.fit_log_slope(summary.keys, summary.mean)
    meta = _fit_meta("log_slope", fit)
    meta["substituted_realizations"] = len(summary.substituted)
    return (["block_size", "mean", "stderr", "max"], _summary_rows(summary), meta)


def cmd_xy_aniso(settings):
    n = settings["chain_length"]
    if n < 2:
        raise ConfigurationError("chain_length >= 2 required")
    spec = _disorder(settings)
    w = sample_field(spec, n, SeedPlan(settings["seed"]), 0)
    block = xy.build_block_m(w, settings["gamma"])
    es = xy.diagonalize(block.dense())
    vals = es.eigenvalues
    symmetry = float(np.abs(np.sort(vals) + np.sort(-vals)[::-1]).max())
    meta = {"spectrum_symmetry_defect": symmetry, "gamma": settings["gamma"]}
    rows = [(i, float(v)) for i, v in enumerate(vals)]
    return (["index", "eigenvalue"], rows, meta)


def cmd_xxz_bands(settings):
    delta = settings["anisotropy"]
    rows = []
    for n in range(1, settings["n_max"] + 1):
        band = xxz.droplet_band(n, delta)
        rows.append((n, band.lower, band.upper))
    limit = float(np.sqrt(1.0 - 1.0 / delta ** 2))
    return (["n_particles", "lower", "upper"], rows,
            {"band_limit": limit, "anisotropy": delta})


def cmd_xxz_profile(settings):
    config = build_experiment_config("droplet_profile", settings)
    summary = experiments.run_ensemble(config)
    fit = experiments.fit_exponential_decay(summary.keys, summary.max_value)
    meta = _fit_meta("decay", fit)
    meta["substituted_realizations"] = len(summary.substituted)
    return (["droplet_distance", "mean", "stderr", "max"],
            _summary_rows(summary), meta)


def cmd_xxz_ct(settings):
    config = build_experiment_config("ct_pass", settings)
    rows = []
    passes = 0
    for index in range(config.realizations):
        d, measured, bound = experiments.ct_sample(config, index)
        ok = measured <= bound
        passes += int(ok)
        rows.append((d, measured, bound, int(ok)))
    rows.sort(key=lambda r: r[0])
    meta = {"pass_fraction": passes / config.realizations,
            "samples": config.realizations}
    return (["distance", "measured", "bound", "pass"], rows, meta)


def cmd_xxz_droploc(settings):
    return _run_decay_command("droplet_localization", "xxz-droploc", settings,
                              "distance")


def cmd_xxz_cluster(settings):
    return _run_decay_command("sector_correlator", "xxz-cluster", settings,
                              "distance")


def cmd_lr_lightcone(settings):
    if settings["model"] == "xxz":
        return _run_decay_command("xxz_commutator", "lr-lightcone", settings,
                                  "distance")
    config = build_experiment_config("xy_commutator", settings)
    summary = experiments.run_ensemble(config)
    fit = experiments.fit_exponential_decay(summary.keys, summary.mean)
    meta = _fit_meta("decay", fit)
    if config.disorder.kind == "constant":
        arrivals = experiments.xy_commutator_arrival(config)
        for d, t in sorted(arrivals.items()):
            meta[f"arrival_time_d{d}"] = t
    return (["distance", "mean", "stderr", "max"], _summary_rows(summary), meta)


def cmd_quasi_locality(settings):
    config = build_experiment_config("quasi_locality", settings)
    summary = experiments.run_ensemble(config)
    fit = experiments.fit_exponential_decay(summary.keys, summary.mean)
    meta = _fit_meta("decay", fit)
    meta["substituted_realizations"] = len(summary.substituted)
    meta["approximant"] = "conditional expectation of the evolved observable"
    return (["truncation_radius", "mean", "stderr", "max"],
            _summary_rows(summary), meta)


def cmd_ising(settings):
    n = settings["chain_length"] or 10
    spec = _disorder(settings)
    w = sample_field(spec, n, SeedPlan(settings["seed"]), 0)
    formula, _ = oracle.ising_exact(w)
    meta = {"chain_length": n}
    if n <= 12:
        es = oracle.diagonalize_full(oracle.build_full("ising", w))
        meta["spectrum_max_deviation"] = float(
            np.abs(np.sort(formula) - es.energies).max())
    ells = settings["block_sizes"] or tuple(range(2, 65))
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
        es = xy.diagonalize(xy.build_m(w))
        offset = xy.build_m(w).ground_offset
        free = sorted(
            xy.eigenstate_energy(es, xy.OccupationPattern.from_int(c, n), offset)
            for c in range(2 ** n))
        full = oracle.diagonalize_full(oracle.build_full("xy", w)).energies
        return float(np.abs(np.array(free) - full).max()), 1e-9

    def car():
        modes = oracle.jordan_wigner_modes(5)
        return oracle.car_defect(modes), 1e-12

    def entropy_identity():
        n = 6
        w = sample_field(DisorderSpec(), n, plan, 1)
        es = xy.diagonalize(xy.build_m(w))
        full = oracle.diagonalize_full(oracle.build_full("xy", w))
        pattern = xy.OccupationPattern.from_int(19, n)
        gamma = xy.eigenstate_correlation_matrix(es, pattern)
        s_free = xy.entanglement_entropy(xy.restrict_upper_block(gamma, 3))
        energy = xy.eigenstate_energy(es, pattern, xy.build_m(w).ground_offset)
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
        sector_vals = np.sort(np.linalg.eigvalsh(h.dense()))
        full_vals = np.sort(es.energies[numbers == n_part])
        return float(np.abs(sector_vals - full_vals).max()), 1e-10

    def ising_formula():
        n = 8
        w = sample_field(DisorderSpec(), n, plan, 3)
        formula, _ = oracle.ising_exact(w)
        es = oracle.diagonalize_full(oracle.build_full("ising", w))
        return float(np.abs(np.sort(formula) - es.energies).max()), 1e-10

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
    "xy-ecorr": cmd_xy_ecorr,
    "xy-kernel": cmd_xy_kernel,
    "xy-entropy": cmd_xy_entropy,
    "xy-quench": cmd_xy_quench,
    "xy-aniso": cmd_xy_aniso,
    "xxz-bands": cmd_xxz_bands,
    "xxz-profile": cmd_xxz_profile,
    "xxz-ct": cmd_xxz_ct,
    "xxz-droploc": cmd_xxz_droploc,
    "xxz-cluster": cmd_xxz_cluster,
    "lr-lightcone": cmd_lr_lightcone,
    "quasi-locality": cmd_quasi_locality,
    "ising": cmd_ising,
    "validate": cmd_validate,
    "describe": cmd_describe,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mblchain",
        description="Numerical experiments on localization in disordered"
                    " spin chains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=DESCRIPTIONS.get(name, name))
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out-dir", dest="out_dir",
                       help="output directory (default: env MBLCHAIN_OUT or .)")
        for key, (kind, _) in _SCHEMA.items():
            if key == "out_dir":
                continue
            flag = "--" + key.replace("_", "-")
            if kind in (int, float):
                p.add_argument(flag, dest=key, type=kind, default=None)
            else:
                p.add_argument(flag, dest=key, type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        settings = merge_settings(args)
        out_dir = settings.get("out_dir") or os.environ.get("MBLCHAIN_OUT", ".")
        result = COMMANDS[args.command](settings)
        if result is not None:
            columns, rows, meta = result
            paths = write_outputs(out_dir, args.command, columns, rows, meta,
                                  settings)
            for path in paths:
                print(f"wrote {path}")
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _ValidationFailure:
        return EXIT_VALIDATION
    except (NumericalError, DegeneracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
