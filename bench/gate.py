"""Correctness gate of the benchmark.

Two parts:

* ``check_outputs`` (stdlib only): in-run invariants of one CLI process's
  CSV -- the expected keys, finite values, entropies in [0, l ln 2],
  commutator and approximation-error norms <= 2, and every Combes-Thomas
  sample passing (pass_fraction == 1).
* the oracle comparison (``python3 bench/gate.py --root R --workload W
  --seed N``): a few realizations drawn from the run's seed at a size the
  dense oracle can check, comparing the workload's own engine path with
  the brute-force 2^n engine, as tests/test_cross_engine.py does.  Prints
  one JSON object with the max deviation (``oracle_dev``) and its
  tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import combinations

# max |engine - oracle| allowed per workload.  The light-cone engine stops
# its power iteration at a relative change of 1e-5; it has stayed within
# 2e-12 of the exact operator norm on every seed tried, and 1e-6 leaves
# room for slower convergence without hiding a wrong norm.
ORACLE_TOL = {
    "xy-entropy": 1e-8,
    "xxz-ct": 1e-8,
    "quasi-locality": 1e-8,
    "xy-lightcone": 1e-6,
}
GATE_REALIZATIONS = 2
NORM_SLACK = 1e-6


def read_csv(path: str):
    """(meta, header, rows) of a CLI CSV with its '#' preamble."""
    meta, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def _flag_values(argv, flag):
    return [float(v) for v in argv[argv.index(flag) + 1].split(",")]


def check_outputs(workload, argv, csv_path) -> list[str]:
    """Invariant violations of one CLI process's outputs (empty if none)."""
    meta, header, rows = read_csv(csv_path)
    problems = []
    if any(not math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite value in outputs")
    realizations = int(argv[argv.index("--realizations") + 1])
    if workload.name == "xxz-ct":
        if header != ["distance", "measured", "bound", "pass"]:
            problems.append(f"unexpected columns {header}")
        if float(meta.get("pass_fraction", "nan")) != 1.0:
            problems.append(f"pass_fraction {meta.get('pass_fraction')} != 1")
        if len(rows) != realizations:
            problems.append(f"{len(rows)} samples, expected {realizations}")
        if any(r[1] > r[2] or r[3] != 1 or r[1] < 0 for r in rows):
            problems.append("a Combes-Thomas sample exceeds its bound")
        return problems

    keys = _flag_values(argv, workload.key_flag)
    if [r[0] for r in rows] != sorted(keys):
        problems.append(f"keys {[r[0] for r in rows]} != {sorted(keys)}")
    if any(r[1] < 0 or r[1] > r[3] + 1e-12 for r in rows):
        problems.append("mean outside [0, max]")
    for key, _, _, top in rows:
        limit = key * math.log(2.0) if workload.name == "xy-entropy" else 2.0
        if top > limit + NORM_SLACK:
            problems.append(f"value {top} at key {key} above its bound {limit}")
    return problems


# ---------------------------------------------------------------------------
# dense-oracle comparisons (need numpy and the package)

def _xy_entropy(seed):
    from mblchain import experiments as ex, oracle
    from mblchain.disorder import DisorderSpec, SeedPlan, sample_field
    n, ells = 8, (2, 3, 4)
    config = ex.ExperimentConfig(kind="entropy_sup", chain_length=n,
                                 disorder=DisorderSpec(coupling=4.0),
                                 seeds=SeedPlan(seed), block_sizes=ells,
                                 sup_samples=200)
    dev = 0.0
    for index in range(GATE_REALIZATIONS):
        fast = ex.METRICS["entropy_sup"](config, index)
        w = sample_field(config.disorder, n, config.seeds, index)
        full = oracle.diagonalize_full(oracle.build_full("xy", w))
        for ell in ells:
            slow = max(oracle.reduced_entropy(full.vectors[:, c], ell)
                       for c in range(full.dim))
            dev = max(dev, abs(fast[ell] - slow))
    return dev


def _xxz_ct(seed):
    """Deviation scaled by max(|oracle entry|, 1e-6): relative for the O(1)
    diagonal entry, absolute times 1e6 for the exponentially small ones."""
    import numpy as np
    from mblchain import experiments as ex, oracle, xxz
    from mblchain.disorder import SeedPlan, sample_field
    half, delta, safety = 3, 2.0, 0.5
    n_sites = 2 * half + 1
    dev = 0.0
    for n_particles in (2, 3):
        config = ex.ExperimentConfig(kind="ct_pass", half_length=half,
                                     n_particles=n_particles,
                                     anisotropy=delta, safety=safety,
                                     seeds=SeedPlan(seed))
        beta = config.effective_boundary_weight()
        for index in range(GATE_REALIZATIONS):
            w = sample_field(config.disorder, n_sites, config.seeds, index)
            h = xxz.build_h_sector(n_particles, half, delta, beta, w)
            rng = np.random.default_rng([seed, n_particles, index])
            sites = np.arange(-half, half + 1)
            x = tuple(sorted(rng.choice(sites, n_particles, replace=False)))
            y = tuple(sorted(rng.choice(sites, n_particles, replace=False)))
            gap = 1.0 - 1.0 / delta
            energy = float(rng.uniform(0.0, (2.0 - safety) * gap))

            # the same entries of a dense inverse, from the oracle's 2^n matrix
            full = oracle.build_full("xxz", w, anisotropy=delta,
                                     boundary_weight=beta).matrix
            configs = [tuple(int(s) for s in c)
                       for c in combinations(sites, n_particles)]
            rows = [_state_index(c, half) for c in configs]
            block = np.real(full[np.ix_(rows, rows)])
            droplet = [c[-1] - c[0] == n_particles - 1 for c in configs]
            shifted = block + np.diag(np.where(droplet, gap, 0.0)) \
                - energy * np.eye(len(rows))
            inverse = np.linalg.inv(shifted)
            for a, b in ((x, y), (x, x)):
                measured, _ = xxz.ct_check(h, energy, safety, [a], [b])
                slow = abs(inverse[configs.index(a), configs.index(b)])
                dev = max(dev, abs(measured - slow) / max(slow, 1e-6))
    return dev


def _state_index(config, half):
    idx = 0
    for j in range(2 * half + 1):
        idx = 2 * idx + (1 if (j - half) in config else 0)
    return idx


def _quasi_locality(seed):
    from mblchain import experiments as ex, oracle
    from mblchain.disorder import SeedPlan, sample_field
    half, delta, ells, grid = 3, 6.0, (0, 1, 2, 3), (0.5, 5.0, 50.0)
    n = 2 * half + 1
    config = ex.ExperimentConfig(kind="quasi_locality", half_length=half,
                                 anisotropy=delta, seeds=SeedPlan(seed),
                                 block_sizes=ells, probe_site=0,
                                 time_grid=grid, safety=0.5)
    window = config.window()
    dev = 0.0
    for index in range(GATE_REALIZATIONS):
        fast = ex.METRICS["quasi_locality"](config, index)
        w = sample_field(config.disorder, n, config.seeds, index)
        full = oracle.diagonalize_full(oracle.build_full(
            "xxz", w, anisotropy=delta,
            boundary_weight=config.effective_boundary_weight()))
        x = oracle.SiteObservable.of_kind("N", 0)
        for ell in ells:
            slow = max(oracle.quasi_locality_error(
                full, x, ell, grid, (window.lower, window.upper), n,
                offset=half))
            dev = max(dev, abs(fast[ell] - slow))
    return dev


def _xy_lightcone(seed):
    from mblchain import experiments as ex, oracle
    from mblchain.disorder import DisorderSpec, SeedPlan, sample_field
    n, distances = 8, (2, 4, 6)
    config = ex.ExperimentConfig(kind="xy_commutator", chain_length=n,
                                 disorder=DisorderSpec(coupling=4.0),
                                 seeds=SeedPlan(seed), distances=distances,
                                 probe_site=0)
    dev = 0.0
    for index in range(GATE_REALIZATIONS):
        fast = ex.METRICS["xy_commutator"](config, index)
        w = sample_field(config.disorder, n, config.seeds, index)
        full = oracle.diagonalize_full(oracle.build_full("xy", w))
        x = oracle.SiteObservable.of_kind("X", 0).embed(n)
        for d in distances:
            y = oracle.SiteObservable.of_kind("X", d).embed(n)
            slow = max(op for op, _ in oracle.commutator_norms(
                full, x, y, config.time_grid))
            dev = max(dev, abs(fast[d] - slow))
    return dev


ORACLE_CHECKS = {
    "xy-entropy": _xy_entropy,
    "xxz-ct": _xxz_ct,
    "quasi-locality": _quasi_locality,
    "xy-lightcone": _xy_lightcone,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=ORACLE_CHECKS)
    parser.add_argument("--seed", type=int, required=True)
    opts = parser.parse_args()
    src = os.path.join(os.path.abspath(opts.root), "src")
    sys.path.insert(0, src)
    dev = ORACLE_CHECKS[opts.workload](opts.seed)
    tol = ORACLE_TOL[opts.workload]
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"oracle_dev": dev, "oracle_tol": tol,
                      "ok": bool(dev <= tol), "numpy": numpy.__version__,
                      "scipy": scipy.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
