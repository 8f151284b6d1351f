"""Disorder-ensemble orchestration and decay-law extraction.

A single realization of any experiment is a pure function of the
configuration and the realization index (fields and auxiliary random
choices come from per-index streams of the seed plan).  run_ensemble
executes R of them, collects per-key statistics, and the fit helpers
turn distance or block-size profiles into exponential rates or
log-slopes with standard regression confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import ArpackError
from scipy.special import stdtrit

from . import oracle, xxz, xy
from .disorder import DisorderSpec, FieldRealization, SeedPlan, constant_field, sample_field
from .errors import ConfigurationError, DegeneracyError, NumericalError

# substitutes for realizations hitting a degenerate spectrum get indices
# far outside the normal range so they never collide with real ones
SUBSTITUTE_OFFSET = 1_000_003
MAX_RESAMPLES = 5

FIT_FLOOR = 1e-14

# solver failures a realization can raise; run_ensemble reports them as
# NumericalError carrying the realization index
_NUMERICAL_FAILURES = (NumericalError, np.linalg.LinAlgError, ArpackError)


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
    gamma: float = 0.0
    coupling: float = 1.0
    boundary_weight: float | None = None
    window_kind: str = "I_delta"
    safety: float = 0.5
    n_particles: int = 0
    sup_samples: int = 200

    def __post_init__(self):
        if self.kind not in METRICS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if self.realizations < 1:
            raise ConfigurationError("need at least one realization")
        if self.kind in _XXZ_KINDS:
            if self.half_length < 1:
                raise ConfigurationError("XXZ experiments need half_length >= 1")
            if self.anisotropy <= 1:
                raise ConfigurationError("Ising phase requires anisotropy > 1")
            self.disorder.require_nonnegative()
        elif self.chain_length < 2:
            raise ConfigurationError("chain experiments need chain_length >= 2")
        if self.kind in _PAIR_KINDS:
            lo, hi = ((-self.half_length, self.half_length)
                      if self.kind in _XXZ_KINDS else (0, self.chain_length - 1))
            outside = [self.probe_site + d for d in (0, *self.distances)
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
        if self.kind in _CUT_KINDS:
            outside = [ell for ell in self.block_sizes
                       if not 1 <= ell <= self.chain_length - 1]
            if outside:
                raise ConfigurationError(
                    f"block sizes {outside} outside 1..{self.chain_length - 1}"
                    " (chain_length - 1)")

    def effective_boundary_weight(self) -> float:
        if self.boundary_weight is not None:
            return self.boundary_weight
        return xxz.min_boundary_weight(self.anisotropy)

    def window(self) -> xxz.EnergyWindow:
        return xxz.spectral_window(self.anisotropy, self.safety, self.window_kind)


@dataclass(frozen=True)
class EnsembleSummary:
    kind: str
    keys: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    max_value: np.ndarray
    realizations: int
    substituted: tuple[tuple[int, int], ...]
    config: ExperimentConfig

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
    floor_applied: bool
    available: bool = True

    def ci_contains_zero(self) -> bool:
        return abs(self.rate) <= self.rate_confidence_halfwidth


UNAVAILABLE_FIT = DecayFit(0.0, 0.0, 0.0, np.inf, 0, False, available=False)


# ---------------------------------------------------------------------------
# fits

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
                    rate_confidence_halfwidth=float(stdtrit(dof, 0.975) * stderr),
                    points_used=int(x.size), floor_applied=False)


def fit_exponential_decay(distances, means, floor: float = FIT_FLOOR) -> DecayFit:
    """Least squares of log(mean) on distance; rate is positive for decay.

    Points at or below 10*floor are dropped (exact zeros from selection
    rules would poison the regression); with fewer than 3 surviving
    points the fit is reported as unavailable, never fabricated.
    """
    d = np.asarray(distances, dtype=float)
    m = np.asarray(means, dtype=float)
    floored = bool((m < floor).any())
    keep = m > 10.0 * floor
    if keep.sum() < 3:
        return UNAVAILABLE_FIT
    fit = _linear_fit(d[keep], np.log(np.maximum(m[keep], floor)))
    return replace(fit, rate=-fit.rate, floor_applied=floored)


def fit_log_slope(sizes, values, base2: bool = False) -> DecayFit:
    """Slope of values against log(size); the area-law surrogate."""
    s = np.asarray(sizes, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size < 3:
        return UNAVAILABLE_FIT
    logs = np.log2(s) if base2 else np.log(s)
    return _linear_fit(logs, v)


# ---------------------------------------------------------------------------
# per-realization metrics (each returns {key: value})

def _field(config: ExperimentConfig, index: int, length: int) -> FieldRealization:
    return sample_field(config.disorder, length, config.seeds, index)


def _metric_eigencorrelator(config: ExperimentConfig, index: int):
    w = _field(config, index, config.chain_length)
    es = xy.diagonalize(xy.build_m(w))
    j = config.probe_site
    return {d: xy.eigencorrelator(es, j, j + d) for d in config.distances}


def _metric_dynamical_kernel(config: ExperimentConfig, index: int):
    w = _field(config, index, config.chain_length)
    es = xy.diagonalize(xy.build_m(w))
    j = config.probe_site
    return {d: xy.dynamical_kernel(es, config.time_grid, j, j + d)
            for d in config.distances}


def _metric_entropy_sup(config: ExperimentConfig, index: int):
    w = _field(config, index, config.chain_length)
    es = xy.diagonalize(xy.build_m(w))
    strategy = xy.SupStrategy(samples=config.sup_samples)
    out = {}
    for ell in config.block_sizes:
        rng = config.seeds.generator(index, tag=1)
        out[ell] = xy.sample_eigenstate_entropy_sup(es, ell, strategy, rng)
    return out


def _metric_quench_entropy(config: ExperimentConfig, index: int):
    """Eigenstate product across the cut, evolved under the coupled chain;
    value is the max over the time grid of the block entropy."""
    n = config.chain_length
    w = _field(config, index, n)
    es_full = xy.diagonalize(xy.build_m(w))
    rng = config.seeds.generator(index, tag=2)
    out = {}
    for ell in config.block_sizes:
        left = xy.diagonalize(xy.EffectiveHamiltonian(w.values[:ell]))
        right = xy.diagonalize(xy.EffectiveHamiltonian(w.values[ell:]))
        pat_a = xy.OccupationPattern(rng.integers(0, 2, size=ell))
        pat_b = xy.OccupationPattern(rng.integers(0, 2, size=n - ell))
        gamma0 = xy.quench_initial_gamma(left, pat_a, right, pat_b)
        best = 0.0
        for t in config.time_grid:
            gamma_t = xy.evolve_correlation_matrix(gamma0, es_full, t)
            block = xy.restrict_upper_block(gamma_t, ell)
            best = max(best, xy.entanglement_entropy(block))
        out[ell] = best
    return out


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
    energies, x_mat = chain.window_observable(window, "sigma_x", j)
    out = {}
    for d in config.distances:
        _, y_mat = chain.window_observable(window, "sigma_x", j + d)
        norms = xxz.windowed_commutator_norms(energies, x_mat, y_mat,
                                              config.time_grid)
        out[d] = max(tr for _, tr in norms)
    return out


def _metric_droplet_profile(config: ExperimentConfig, index: int):
    """Max over window eigenvectors of mass(r) / mass(0): eigenvector decay
    away from the droplet configurations."""
    w = _field(config, index, 2 * config.half_length + 1)
    h = xxz.build_h_sector(config.n_particles, config.half_length,
                           config.anisotropy, config.effective_boundary_weight(), w)
    pairs = xxz.eigenpairs_in_window(h, config.window())
    out = {d: 0.0 for d in config.distances}
    for _, psi in pairs:
        profile = xxz.droplet_profile(psi, h.basis.droplet_distance)
        base = profile.get(0, 0.0)
        if base <= 0:
            raise DegeneracyError("window eigenvector without droplet mass")
        for d in config.distances:
            out[d] = max(out[d], profile.get(d, 0.0) / base)
    return out


def _metric_sector_correlator(config: ExperimentConfig, index: int):
    """Per-distance mean of the N-particle window correlator Q_N(j, k)."""
    w = _field(config, index, 2 * config.half_length + 1)
    h = xxz.build_h_sector(config.n_particles, config.half_length,
                           config.anisotropy, config.effective_boundary_weight(), w)
    pairs = xxz.eigenpairs_in_window(h, config.window())
    masses = xxz.window_site_masses([(h.basis, e, psi) for e, psi in pairs],
                                    h.basis.n_sites)
    return _distance_means(masses, config.distances)


def ct_sample(config: ExperimentConfig, index: int):
    """One random resolvent-decay check: sample a field, two configurations
    and an admissible energy; return (distance, measured, bound)."""
    w = _field(config, index, 2 * config.half_length + 1)
    h = xxz.build_h_sector(config.n_particles, config.half_length,
                           config.anisotropy, config.effective_boundary_weight(), w)
    rng = config.seeds.generator(index, tag=3)
    sites = np.arange(-config.half_length, config.half_length + 1)
    x = tuple(sorted(rng.choice(sites, size=config.n_particles, replace=False)))
    y = tuple(sorted(rng.choice(sites, size=config.n_particles, replace=False)))
    gap = 1.0 - 1.0 / config.anisotropy
    energy = float(rng.uniform(0.0, (2.0 - config.safety) * gap))
    measured, bound = xxz.ct_check(h, energy, config.safety, [x], [y])
    return xxz.set_distance([x], [y]), measured, bound


def _metric_ct_pass(config: ExperimentConfig, index: int):
    """One random Combes-Thomas check: value 1.0 if measured <= bound."""
    d, measured, bound = ct_sample(config, index)
    return {d: 1.0 if measured <= bound else 0.0}


def _xy_commutator_profiles(config: ExperimentConfig, index: int, times):
    """Per distance d, the norms of [tau_t(sX_j), sX_{j+d}] at the given
    times: closed form for the chain end j = 0, else the dense 2^n chain."""
    w = _field(config, index, config.chain_length)
    j = config.probe_site
    if j == 0:
        norms = xy.end_site_commutator_norms(xy.diagonalize(xy.build_m(w)), times)
        return {d: norms[:, d] for d in config.distances}
    n = config.chain_length
    es = oracle.diagonalize_full(oracle.build_full("xy", w))
    x_full = oracle.SiteObservable.of_kind("X", j).embed(n)
    x_tilde = es.vectors.conj().T @ x_full @ es.vectors
    out = {}
    for d in config.distances:
        y_full = oracle.SiteObservable.of_kind("X", j + d).embed(n)
        out[d] = np.array([_commutator_opnorm(es, x_tilde, y_full, t)
                           for t in times])
    return out


def _metric_xy_commutator(config: ExperimentConfig, index: int):
    """Spin-side LR commutator profile: per distance, the max over the time
    grid of the operator norm of [tau_t(sX_j), sX_k]."""
    profiles = _xy_commutator_profiles(config, index, config.time_grid)
    return {d: float(norms.max(initial=0.0)) for d, norms in profiles.items()}


def _commutator_opnorm(es, x_tilde: np.ndarray, y_full: np.ndarray,
                       t: float, iterations: int = 60,
                       tol: float = 1e-5) -> float:
    """Operator norm of [tau_t(X), Y] by power iteration on C* C, applying
    tau_t(X) through its spectral factorization instead of forming it."""
    phases = np.exp(1j * es.energies * t)
    v = es.vectors
    vh = v.conj().T

    def apply_a(u):
        return v @ (phases * (x_tilde @ (phases.conj() * (vh @ u))))

    def apply_a_dag(u):
        return v @ (phases * (x_tilde.conj().T @ (phases.conj() * (vh @ u))))

    def apply_c(u):
        return apply_a(y_full @ u) - y_full @ apply_a(u)

    def apply_c_dag(u):
        return apply_a_dag(y_full.conj().T @ u) - y_full.conj().T @ apply_a_dag(u)

    rng = np.random.default_rng(12345)
    u = rng.standard_normal(v.shape[0]) + 1j * rng.standard_normal(v.shape[0])
    u /= np.linalg.norm(u)
    estimate = 0.0
    for _ in range(iterations):
        cu = apply_c(u)
        nrm = np.linalg.norm(cu)
        if nrm < 1e-300:
            return 0.0
        w = apply_c_dag(cu)
        new = float(np.sqrt(np.linalg.norm(w)))
        u = w / np.linalg.norm(w)
        if abs(new - estimate) < tol * max(new, 1.0):
            estimate = new
            break
        estimate = new
    return estimate


def xy_commutator_arrival(config: ExperimentConfig, index: int = 0,
                          threshold: float = 0.1):
    """Per-distance earliest grid time with commutator norm above the
    threshold (inf if never); the ballistic light-cone diagnostic."""
    grid = sorted(config.time_grid)
    out = {}
    for d, norms in _xy_commutator_profiles(config, index, grid).items():
        above = np.flatnonzero(norms > threshold)
        out[d] = grid[above[0]] if above.size else np.inf
    return out


_XXZ_KINDS = frozenset({
    "droplet_localization", "quasi_locality", "xxz_commutator",
    "droplet_profile", "ct_pass", "sector_correlator",
})

# kinds reading the site pairs (probe_site, probe_site + d); quasi_locality
# reads the probe site alone
_PAIR_KINDS = frozenset({"eigencorrelator", "dynamical_kernel",
                         "xxz_commutator", "xy_commutator", "quasi_locality"})

# kinds averaging over every site pair (j, j + d) of the chain
_DISTANCE_KINDS = frozenset({"droplet_localization", "sector_correlator"})

# kinds cutting the chain into a block of each size and its complement
_CUT_KINDS = frozenset({"entropy_sup", "quench_entropy"})

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
    "ct_pass": _metric_ct_pass,
    "xy_commutator": _metric_xy_commutator,
}


# ---------------------------------------------------------------------------
# ensemble driver

def run_ensemble(config: ExperimentConfig) -> EnsembleSummary:
    """Execute R realizations and collect per-key mean / stderr / max.

    Realizations hitting a degenerate spectrum are resampled with a
    substitute index far outside the normal range (recorded in the
    summary).  A solver failure aborts as NumericalError with the
    realization index attached; any other exception propagates unchanged.
    """
    metric = METRICS[config.kind]
    results: dict[int, dict] = {}
    substituted: list[tuple[int, int]] = []
    for index in range(config.realizations):
        attempt = index
        for retry in range(MAX_RESAMPLES + 1):
            try:
                results[index] = metric(config, attempt)
                break
            except DegeneracyError:
                if retry == MAX_RESAMPLES:
                    raise
                attempt = index + SUBSTITUTE_OFFSET * (retry + 1)
                substituted.append((index, attempt))
            except _NUMERICAL_FAILURES as exc:
                raise NumericalError(f"realization {index}: {exc}") from exc
    keys = sorted({k for r in results.values() for k in r})
    table = np.full((config.realizations, len(keys)), np.nan)
    for index in range(config.realizations):
        for col, key in enumerate(keys):
            table[index, col] = results[index].get(key, np.nan)
    valid = ~np.isnan(table)
    counts = valid.sum(axis=0)
    safe = np.where(valid, table, 0.0)
    mean = safe.sum(axis=0) / np.maximum(counts, 1)
    centered = np.where(valid, table - mean, 0.0)
    with np.errstate(invalid="ignore"):
        std = np.sqrt((centered ** 2).sum(axis=0) / np.maximum(counts - 1, 1))
    stderr = std / np.sqrt(np.maximum(counts, 1))
    maxima = np.where(counts > 0, np.where(valid, table, -np.inf).max(axis=0), np.nan)
    return EnsembleSummary(config.kind, np.asarray(keys, dtype=float), mean,
                           stderr, maxima, config.realizations,
                           tuple(substituted), config)


def scan_area_law(config: ExperimentConfig, base2: bool = False):
    """Entropy statistics against block size plus the fitted log-slope."""
    if not config.block_sizes:
        raise ConfigurationError("area-law scan needs block sizes")
    summary = run_ensemble(config)
    fit = fit_log_slope(summary.keys, summary.mean, base2=base2)
    return summary, fit


def clean_ground_state_entropy(chain_length: int, field_value: float,
                               block_sizes, centered: bool = True,
                               base2: bool = True):
    """Ground-state block entropies of the clean chain (no ensemble): the
    critical log-law control.  Centered blocks (two boundary cuts) carry
    twice the single-cut coefficient and match the bulk scaling law."""
    w = constant_field(field_value, chain_length)
    es = xy.diagonalize(xy.build_m(w))
    pattern = xy.OccupationPattern((es.eigenvalues < 0).astype(int))
    gamma = xy.eigenstate_correlation_matrix(es, pattern)
    out = {}
    for ell in block_sizes:
        start = (chain_length - ell) // 2 if centered else 0
        block = xy.restrict_block(gamma, start, ell)
        out[ell] = xy.entanglement_entropy(block, base2=base2)
    return out
