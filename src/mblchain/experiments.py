"""Disorder-ensemble orchestration and decay-law extraction.

A single realization of any experiment is a pure function of the
configuration and the realization index (fields and auxiliary random
choices come from per-index streams of the seed plan) and returns the same
keys for every index.  run_ensemble executes R of them and reduces the
R x K table to per-key mean, stderr and max; the fit helpers turn distance
or block-size profiles into exponential rates or log-slopes with standard
regression confidence intervals.  ct_pass is a configuration kind without
an ensemble metric: xxz-ct tabulates ct_sample per realization.
"""

from __future__ import annotations

import importlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle, xxz, xy
from .disorder import DisorderSpec, SeedPlan, constant_field, sample_field
from .errors import ConfigurationError, DegeneracyError, NumericalError

# substitutes for realizations hitting a degenerate spectrum get indices
# far outside the normal range so they never collide with real ones
SUBSTITUTE_OFFSET = 1_000_003
MAX_RESAMPLES = 5

FIT_FLOOR = 1e-14
ARRIVAL_THRESHOLD = 0.1  # commutator norm marking the light-cone arrival


@contextmanager
def realization_failures(index: int):
    """Report a solver failure of realization ``index`` (a failed certificate,
    or numpy's LinAlgError, which only this and cli.main catch) as
    NumericalError carrying the index, chained from the original."""
    try:
        yield
    except (NumericalError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"realization {index}: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    chain_length: int = 0
    half_length: int = 0
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    seeds: SeedPlan = field(default_factory=lambda: SeedPlan(0))
    realizations: int = 1
    distances: tuple[int, ...] = ()
    block_sizes: tuple[int, ...] = ()
    time_grid: tuple[float, ...] = (0.5, 2.0, 10.0, 50.0)
    probe_site: int = 0
    anisotropy: float = 2.0
    boundary_weight: float | None = None
    window_kind: str = "I_delta"
    safety: float = 0.5
    n_particles: int = 0
    sup_samples: int = 200

    def __post_init__(self):
        if self.kind not in READS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if self.realizations < 1:
            raise ConfigurationError("need at least one realization")
        reads = READS[self.kind]
        if "half_length" in reads:
            if self.half_length < 1:
                raise ConfigurationError("XXZ experiments need half_length >= 1")
            if self.anisotropy <= 1:
                raise ConfigurationError("Ising phase requires anisotropy > 1")
            self.disorder.require_nonnegative()
        elif self.chain_length < 2:
            raise ConfigurationError("chain experiments need chain_length >= 2")
        if "n_particles" in reads and self.n_particles < 1:
            raise ConfigurationError(f"{self.kind} needs n_particles >= 1")
        # ct_pass samples energies below (2 - safety) (1 - 1/Delta) >= 0
        if self.kind == "ct_pass" and not 0 < self.safety <= 2:
            raise ConfigurationError(
                f"ct_pass needs safety in (0, 2], got {self.safety}")
        if "probe_site" in reads:
            lo, hi = ((-self.half_length, self.half_length)
                      if "half_length" in reads else (0, self.chain_length - 1))
            # quasi_locality reads the probe site alone
            pairs = (0, *self.distances) if "distances" in reads else (0,)
            outside = [self.probe_site + d for d in pairs
                       if not lo <= self.probe_site + d <= hi]
            if outside:
                raise ConfigurationError(
                    f"probed sites {outside} (probe_site + distance) outside"
                    f" the chain [{lo}, {hi}]")
        if self.kind in _DISTANCE_KINDS:
            outside = [d for d in self.distances
                       if not 0 <= d <= 2 * self.half_length]
            if outside:
                raise ConfigurationError(
                    f"distances {outside} outside 0..{2 * self.half_length}"
                    " (2 * half_length)")
        if self.kind == "droplet_profile" and min(self.distances, default=0) < 0:
            raise ConfigurationError(
                f"droplet distances {[d for d in self.distances if d < 0]} below 0")
        # XY blocks cut the chain; XXZ truncation radii are any ell >= 0
        if "block_sizes" in reads:
            lo, hi = (1, self.chain_length - 1) if "chain_length" in reads else (0, math.inf)
            outside = [ell for ell in self.block_sizes if not lo <= ell <= hi]
            if outside:
                raise ConfigurationError(f"block sizes {outside} outside {lo}..{hi}")
        for keys in ("distances", "block_sizes"):
            if keys in reads and not getattr(self, keys):
                raise ConfigurationError(f"{self.kind} needs a nonempty {keys} list")
        if "time_grid" in reads and not self.time_grid:
            raise ConfigurationError(f"{self.kind} needs a nonempty time_grid")
        if "sup_samples" in reads and self.sup_samples < 1:
            raise ConfigurationError(f"{self.kind} needs sup_samples >= 1")
        if self.kind in SCIPY:
            importlib.import_module(SCIPY[self.kind])

    def effective_boundary_weight(self) -> float:
        if self.boundary_weight is not None:
            return self.boundary_weight
        return xxz.min_boundary_weight(self.anisotropy)

    def window(self) -> xxz.EnergyWindow:
        return xxz.spectral_window(self.anisotropy, self.safety, self.window_kind)


@dataclass(frozen=True)
class EnsembleSummary:
    keys: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    max_value: np.ndarray
    substituted: tuple[tuple[int, int], ...]

    def as_rows(self):
        return list(zip(self.keys.tolist(), self.mean.tolist(),
                        self.stderr.tolist(), self.max_value.tolist()))


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r_squared: float
    rate_confidence_halfwidth: float
    points_used: int
    available: bool = True

    def ci_contains_zero(self) -> bool:
        return abs(self.rate) <= self.rate_confidence_halfwidth


UNAVAILABLE_FIT = DecayFit(0.0, 0.0, 0.0, np.inf, 0, available=False)


# ---------------------------------------------------------------------------
# fits

def _t_quantile(dof: int, p: float) -> float:
    """Quantile at p >= 1/2 of Student's t with integer dof >= 1: bisection
    in theta = atan(t / sqrt(dof)) on the closed-form two-sided probability
    (Abramowitz-Stegun 26.7.3 for odd, 26.7.4 for even dof)."""
    odd, lo, mid, hi = dof % 2, 0.0, 0.25 * math.pi, 0.5 * math.pi
    while lo < mid < hi:  # until the midpoint no longer moves
        c2, term, total = math.cos(mid) ** 2, math.cos(mid) if odd else 1.0, 0.0
        for k in range(1, dof // 2 + 1):
            total, term = total + term, term * (2 * k - 1 + odd) / (2 * k + odd) * c2
        total *= math.sin(mid)
        two_sided = 2.0 / math.pi * (mid + total) if odd else total
        lo, hi = (mid, hi) if two_sided < 2.0 * p - 1.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.sqrt(dof) * math.tan(mid)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> DecayFit:
    """Ordinary least squares with a two-sided 95 % Student-t interval on
    the slope (callers pass at least 3 points).  An exact fit has zero
    slope error and R^2 = 1, also for data without any spread."""
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        return UNAVAILABLE_FIT
    sxy = float(xc @ yc)
    slope = sxy / sxx
    resid = yc - slope * xc
    ssr = float(resid @ resid)
    dof = x.size - 2
    stderr = np.sqrt(ssr / dof / sxx)
    r_squared = 1.0 if ssr == 0.0 else sxy ** 2 / (sxx * float(yc @ yc))
    return DecayFit(rate=slope, intercept=float(y.mean() - slope * x.mean()),
                    r_squared=r_squared,
                    rate_confidence_halfwidth=_t_quantile(dof, 0.975) * float(stderr),
                    points_used=int(x.size))


def fit_exponential_decay(distances, means) -> DecayFit:
    """Least squares of log(mean) on distance; rate is positive for decay.

    Points at or below 10*FIT_FLOOR are dropped (exact zeros from selection
    rules would poison the regression); with fewer than 3 surviving
    points the fit is reported as unavailable, never fabricated.
    """
    d = np.asarray(distances, dtype=float)
    m = np.asarray(means, dtype=float)
    keep = m > 10.0 * FIT_FLOOR
    if keep.sum() < 3:
        return UNAVAILABLE_FIT
    fit = _linear_fit(d[keep], np.log(np.maximum(m[keep], FIT_FLOOR)))
    return replace(fit, rate=-fit.rate)


def fit_log_slope(sizes, values) -> DecayFit:
    """Slope of values against ln(size); the area-law surrogate."""
    s = np.asarray(sizes, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size < 3:
        return UNAVAILABLE_FIT
    return _linear_fit(np.log(s), v)


# ---------------------------------------------------------------------------
# per-realization metrics (each returns {key: value})

def _field(config: ExperimentConfig, index: int, length: int) -> np.ndarray:
    return sample_field(config.disorder, length, config.seeds, index)


def _metric_eigencorrelator(config: ExperimentConfig, index: int):
    es = xy.diagonalize(_field(config, index, config.chain_length))
    j = config.probe_site
    return {d: xy.eigencorrelator(es, j, j + d) for d in config.distances}


def _metric_dynamical_kernel(config: ExperimentConfig, index: int):
    es = xy.diagonalize(_field(config, index, config.chain_length))
    j = config.probe_site
    return {d: xy.dynamical_kernel(es, config.time_grid, j, j + d)
            for d in config.distances}


def _metric_entropy_sup(config: ExperimentConfig, index: int):
    es = xy.diagonalize(_field(config, index, config.chain_length))
    return xy.sample_eigenstate_entropy_sup(es, config.block_sizes, config.sup_samples,
                                            config.seeds.generator(index, tag=1))


def _metric_quench_entropy(config: ExperimentConfig, index: int):
    """Eigenstate product across the cut, evolved under the coupled chain;
    value is the max over the time grid of the block entropy."""
    n = config.chain_length
    w = _field(config, index, n)
    es_full = xy.diagonalize(w)
    rng = config.seeds.generator(index, tag=2)
    out = {}
    for ell in config.block_sizes:
        left = xy.diagonalize(w[:ell])
        right = xy.diagonalize(w[ell:])
        occ_a = rng.integers(0, 2, size=ell) == 1
        occ_b = rng.integers(0, 2, size=n - ell) == 1
        blocks = xy.quench_blocks(es_full, left, occ_a, right, occ_b, config.time_grid)
        out[ell] = max(xy.entanglement_entropy(block) for block in blocks)
    return out


def _sector(config: ExperimentConfig, index: int) -> xxz.SectorHamiltonian:
    w = _field(config, index, 2 * config.half_length + 1)
    return xxz.build_h_sector(config.n_particles, config.half_length,
                              config.anisotropy, config.effective_boundary_weight(), w)


def _chain(config: ExperimentConfig, index: int) -> xxz.ChainSpectrum:
    w = _field(config, index, 2 * config.half_length + 1)
    return xxz.ChainSpectrum(config.half_length, config.anisotropy,
                             config.effective_boundary_weight(), w)


def _distance_means(masses: np.ndarray, distances) -> dict[int, float]:
    """Per distance d, the mean over site pairs (j, j + d) of the window
    correlator sum_E ||N_j psi_E|| ||N_{j+d} psi_E||."""
    q = masses.T @ masses
    n = q.shape[0]
    return {d: float(np.mean([q[j, j + d] for j in range(n - d)]))
            for d in distances}


def _metric_droplet_localization(config: ExperimentConfig, index: int):
    chain = _chain(config, index)
    return _distance_means(chain.site_mass_profile(config.window()),
                           config.distances)


def _metric_quasi_locality(config: ExperimentConfig, index: int):
    chain = _chain(config, index)
    probe = xxz.QuasiLocalityProbe(chain, config.probe_site, config.window())
    return probe.errors_profile(config.block_sizes, config.time_grid)


def _metric_xxz_commutator(config: ExperimentConfig, index: int):
    chain = _chain(config, index)
    window = config.window()
    j = config.probe_site
    energies, x_mat = chain.window_sigma_x(window, j)
    out = {}
    for d in config.distances:
        _, y_mat = chain.window_sigma_x(window, j + d)
        norms = xxz.windowed_commutator_norms(energies, x_mat, y_mat,
                                              config.time_grid)
        out[d] = max(tr for _, tr in norms)
    return out


def _metric_droplet_profile(config: ExperimentConfig, index: int):
    """Max over window eigenvectors of mass(r) / mass(0): eigenvector decay
    away from the droplet configurations."""
    h = _sector(config, index)
    _, vectors = xxz.eigenpairs_in_window(h, config.window())
    profile = xxz.droplet_profile(vectors, h.basis.droplet_distance)
    if np.any(profile[:, 0] <= 0):
        raise DegeneracyError("window eigenvector without droplet mass")
    top = (profile / profile[:, [0]]).max(axis=0, initial=0.0)
    return {d: float(top[d]) if d < top.size else 0.0 for d in config.distances}


def _metric_sector_correlator(config: ExperimentConfig, index: int):
    """Per-distance mean of the N-particle window correlator Q_N(j, k)."""
    h = _sector(config, index)
    energies, vectors = xxz.eigenpairs_in_window(h, config.window())
    masses = xxz.window_site_masses([(h.basis, energies, vectors)],
                                    h.basis.n_sites)
    return _distance_means(masses, config.distances)


def ct_sample(config: ExperimentConfig, index: int):
    """One random resolvent-decay check: sample a field, two configurations
    and an admissible energy; return (distance, measured, bound)."""
    h = _sector(config, index)
    rng = config.seeds.generator(index, tag=3)
    sites = np.arange(-config.half_length, config.half_length + 1)
    x = tuple(sorted(rng.choice(sites, size=config.n_particles, replace=False)))
    y = tuple(sorted(rng.choice(sites, size=config.n_particles, replace=False)))
    gap = 1.0 - 1.0 / config.anisotropy
    energy = float(rng.uniform(0.0, (2.0 - config.safety) * gap))
    measured, bound = xxz.ct_check(h, energy, config.safety, [x], [y])
    return xxz.set_distance([x], [y]), measured, bound


def _xy_commutator_profiles(config: ExperimentConfig, index: int, times):
    """Per distance d, the norms of [tau_t(sX_j), sX_{j+d}] at the given
    times: closed form for the chain end j = 0, else in the eigenbasis of the
    dense 2^n chain, where tau_t(X) = D X D^dagger with D = diag(e^{iEt})."""
    w = _field(config, index, config.chain_length)
    j = config.probe_site
    if j == 0:
        norms = xy.end_site_commutator_norms(xy.diagonalize(w), times)
        return {d: norms[:, d] for d in config.distances}
    n = config.chain_length
    es = oracle.diagonalize_full(oracle.build_full("xy", w))
    v = es.vectors

    def in_eigenbasis(site):
        return v.conj().T @ oracle.SiteObservable.of_kind("X", site).embed(n) @ v

    x_tilde = in_eigenbasis(j)
    return {d: np.array([op for op, _ in xxz.windowed_commutator_norms(
                es.energies, x_tilde, in_eigenbasis(j + d), times)])
            for d in config.distances}


def _metric_xy_commutator(config: ExperimentConfig, index: int):
    """Spin-side LR commutator profile: per distance, the max over the time
    grid of the operator norm of [tau_t(sX_j), sX_k]."""
    profiles = _xy_commutator_profiles(config, index, config.time_grid)
    return {d: float(norms.max(initial=0.0)) for d, norms in profiles.items()}


def xy_commutator_arrival(config: ExperimentConfig):
    """Per-distance earliest grid time with commutator norm above
    ARRIVAL_THRESHOLD in realization 0 (inf if never); the ballistic
    light-cone diagnostic."""
    grid = sorted(config.time_grid)
    out = {}
    for d, norms in _xy_commutator_profiles(config, 0, grid).items():
        above = np.flatnonzero(norms > ARRIVAL_THRESHOLD)
        out[d] = grid[above[0]] if above.size else np.inf
    return out


# per kind, the ExperimentConfig fields its realizations read besides the
# disorder and the seeds.  Reading half_length makes a kind an XXZ kind,
# probe_site a kind of site pairs (probe_site, probe_site + d), and
# block_sizes with chain_length a kind that cuts the chain; each key list
# and time grid a kind reads must be nonempty
_XXZ_WINDOW = "half_length anisotropy boundary_weight window_kind safety "
READS = {kind: frozenset(names.split()) for kind, names in {
    "eigencorrelator": "chain_length probe_site distances",
    "dynamical_kernel": "chain_length probe_site distances time_grid",
    "entropy_sup": "chain_length block_sizes sup_samples",
    "quench_entropy": "chain_length block_sizes time_grid",
    "xy_commutator": "chain_length probe_site distances time_grid",
    "droplet_localization": _XXZ_WINDOW + "distances",
    "sector_correlator": _XXZ_WINDOW + "n_particles distances",
    "droplet_profile": _XXZ_WINDOW + "n_particles distances",
    "quasi_locality": _XXZ_WINDOW + "probe_site block_sizes time_grid",
    "xxz_commutator": _XXZ_WINDOW + "probe_site distances time_grid",
    # ct_sample's resolvent at energies below (2 - safety) * gap: no window
    "ct_pass": "half_length anisotropy boundary_weight safety n_particles",
}.items()}

# per kind, the scipy subpackage its realizations call, imported when a config
# is validated (never inside a realization); the XY kinds and quasi_locality
# load no scipy
SCIPY = {
    **dict.fromkeys(("droplet_localization", "sector_correlator",
                     "droplet_profile", "xxz_commutator"), "scipy.sparse.linalg"),
    "ct_pass": "scipy.sparse",
}

# kinds averaging over every site pair (j, j + d) of the chain
_DISTANCE_KINDS = frozenset({"droplet_localization", "sector_correlator"})

METRICS = {
    "sector_correlator": _metric_sector_correlator,
    "eigencorrelator": _metric_eigencorrelator,
    "dynamical_kernel": _metric_dynamical_kernel,
    "entropy_sup": _metric_entropy_sup,
    "quench_entropy": _metric_quench_entropy,
    "droplet_localization": _metric_droplet_localization,
    "quasi_locality": _metric_quasi_locality,
    "xxz_commutator": _metric_xxz_commutator,
    "droplet_profile": _metric_droplet_profile,
    "xy_commutator": _metric_xy_commutator,
}


# ---------------------------------------------------------------------------
# ensemble driver

def run_ensemble(config: ExperimentConfig) -> EnsembleSummary:
    """Execute R realizations and collect per-key mean / stderr / max.

    Every metric returns the same keys in every realization, so the values
    form one R x K table over the sorted keys.  Realizations hitting a
    degenerate spectrum are resampled with a substitute index far outside
    the normal range (recorded in the summary).  A solver failure or a
    non-finite value aborts as NumericalError with the realization index
    attached; any other exception propagates unchanged.
    """
    results: list[dict] = []
    substituted: list[tuple[int, int]] = []
    for index in range(config.realizations):
        attempt = index
        for retry in range(MAX_RESAMPLES + 1):
            try:
                with realization_failures(index):
                    result = METRICS[config.kind](config, attempt)
                    for key, value in result.items():
                        if not np.isfinite(value):
                            raise NumericalError(f"key {key} has value {value}")
                break
            except DegeneracyError:
                if retry == MAX_RESAMPLES:
                    raise
                attempt = index + SUBSTITUTE_OFFSET * (retry + 1)
                substituted.append((index, attempt))
        results.append(result)
    keys = sorted(results[0])
    table = np.array([[r[k] for k in keys] for r in results], dtype=float)
    mean = table.sum(axis=0) / len(results)
    std = np.sqrt(((table - mean) ** 2).sum(axis=0) / max(len(results) - 1, 1))
    return EnsembleSummary(np.asarray(keys, dtype=float), mean, std / np.sqrt(len(results)),
                           table.max(axis=0), tuple(substituted))


def clean_ground_state_entropy(chain_length: int, field_value: float,
                               block_sizes):
    """Ground-state block entropies in nats of the clean chain (no
    ensemble): the critical log-law control.  Centered blocks (two boundary
    cuts) carry twice the single-cut coefficient and match the bulk scaling
    law."""
    outside = [ell for ell in block_sizes if not 1 <= ell <= chain_length]
    if outside:
        raise ValueError(f"block sizes {outside} outside 1..{chain_length}")
    w = constant_field(field_value, chain_length)
    es = xy.diagonalize(w)
    gamma = xy.eigenstate_correlation_matrix(es, es.eigenvalues < 0)
    out = {}
    for ell in block_sizes:
        start = (chain_length - ell) // 2
        out[ell] = xy.entanglement_entropy(
            gamma[start:start + ell, start:start + ell])
    return out
