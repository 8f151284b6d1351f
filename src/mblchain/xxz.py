"""Hard-core particle formulation of the XXZ chain in its Ising phase.

N down-spins on the chain [-L, L] are encoded as strictly increasing
N-tuples x (configurations).  On that configuration space the N-magnon
block of the XXZ Hamiltonian is a lattice Schroedinger operator:

    H_N^L = -(1/(2 Delta)) L_N + (1/2)(1 - 1/Delta) D_N + V_w
            + (beta - (1/2)(1 - 1/Delta)) chi^(L)

with L_N the graph Laplacian of single-particle hops (hard core, box
bounds), D_N twice the number of down-spin clusters (box independent),
V_w the summed random field, and chi^(L) counting boundary touches.  The
droplet boundary weight beta >= (1 - 1/Delta)/2 keeps every term
nonnegative, so min spec H_N^L >= 1 - 1/Delta for N >= 1.

Everything here is validated entrywise against the N-magnon block of the
brute-force 2^n spin Hamiltonian in the test suite; that comparison pins
down all boundary and degree conventions.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import combinations
from math import acosh, comb, sinh, tanh, cosh

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .disorder import FieldRealization
from .errors import ConfigurationError, DegeneracyError, NumericalError

Config = tuple[int, ...]

DENSE_DIAG_CAP = 20_000
_GAP_TOL = 1e-12


# ---------------------------------------------------------------------------
# configuration space

@dataclass(frozen=True)
class SectorBasis:
    """Lexicographically ordered N-particle configurations on [-L, L]."""

    n_particles: int
    half_length: int
    configs: tuple[Config, ...]
    index: dict[Config, int] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.configs)

    @property
    def sites(self) -> range:
        return range(-self.half_length, self.half_length + 1)


def enumerate_basis(n_particles: int, half_length: int) -> SectorBasis:
    L = half_length
    if not 1 <= n_particles <= 2 * L + 1:
        raise ConfigurationError(
            f"particle number {n_particles} out of range for [-{L}, {L}]")
    configs = tuple(combinations(range(-L, L + 1), n_particles))
    index = {x: i for i, x in enumerate(configs)}
    return SectorBasis(n_particles, L, configs, index)


def component_degree(x: Config) -> int:
    """Twice the number of maximal runs of consecutive sites (box independent)."""
    runs = 1 + sum(1 for a, b in zip(x, x[1:]) if b - a > 1)
    return 2 * runs


def neighbors(x: Config, basis: SectorBasis) -> list[Config]:
    """Single-particle moves by +-1 respecting hard core and box bounds."""
    L = basis.half_length
    occupied = set(x)
    out = []
    for i, xi in enumerate(x):
        for step in (-1, 1):
            target = xi + step
            if -L <= target <= L and target not in occupied:
                y = list(x)
                y[i] = target
                out.append(tuple(sorted(y)))
    return out


def set_distance(a, b) -> int:
    """d_N(A, B): minimal l1 distance between the two configuration sets."""
    if not a or not b:
        raise ValueError("set distance needs nonempty sets")
    xa = np.array(sorted(a))
    xb = np.array(sorted(b))
    # pairwise |x - y| summed over particle slots
    return int(np.abs(xa[:, None, :] - xb[None, :, :]).sum(axis=2).min())


def set_distance_bfs(a, b, basis: SectorBasis) -> int:
    """Same distance via breadth-first search on the configuration graph
    (hop distance equals l1 distance on this space)."""
    targets = set(b)
    seen = set(a)
    frontier = deque((x, 0) for x in a)
    if targets & seen:
        return 0
    while frontier:
        x, d = frontier.popleft()
        for y in neighbors(x, basis):
            if y in targets:
                return d + 1
            if y not in seen:
                seen.add(y)
                frontier.append((y, d + 1))
    raise ValueError("configuration graph is connected; sets must be in basis")


@dataclass(frozen=True)
class DropletGeometry:
    """Droplet configurations and the per-config l1 distance to them."""

    droplet_indices: np.ndarray
    distance: np.ndarray


def droplet_geometry(basis: SectorBasis) -> DropletGeometry:
    n = basis.n_particles
    droplet_idx = []
    dist = np.empty(basis.dim, dtype=np.int64)
    for i, x in enumerate(basis.configs):
        # nearest droplet (a, a+1, ..., a+N-1): minimize sum |x_i - i - a|
        c = np.array(x) - np.arange(n)
        a = int(np.median(c))
        d = int(np.abs(c - a).sum())
        dist[i] = d
        if d == 0:
            droplet_idx.append(i)
    return DropletGeometry(np.array(droplet_idx), dist)


# ---------------------------------------------------------------------------
# sector Hamiltonian

@dataclass(frozen=True)
class SectorHamiltonian:
    basis: SectorBasis
    anisotropy: float
    boundary_weight: float
    field: FieldRealization
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def min_boundary_weight(anisotropy: float) -> float:
    return 0.5 * (1.0 - 1.0 / anisotropy)


def build_h_sector(n_particles: int, half_length: int, anisotropy: float,
                   boundary_weight: float,
                   field_realization: FieldRealization) -> SectorHamiltonian:
    if anisotropy <= 1:
        raise ConfigurationError("Ising phase requires anisotropy > 1")
    if boundary_weight < min_boundary_weight(anisotropy) - 1e-15:
        raise ConfigurationError(
            "droplet boundary weight must be >= (1 - 1/Delta)/2")
    L = half_length
    w = np.asarray(field_realization.values, dtype=float)
    if w.size != 2 * L + 1:
        raise ConfigurationError(
            f"field must cover the {2 * L + 1} sites of [-{L}, {L}]")
    if np.any(w < 0):
        raise ConfigurationError("XXZ requires a nonnegative field")

    basis = enumerate_basis(n_particles, L)
    hop = -1.0 / (2.0 * anisotropy)
    cluster_weight = 0.5 * (1.0 - 1.0 / anisotropy)
    wall_weight = boundary_weight - cluster_weight

    rows, cols, vals = [], [], []
    diag = np.empty(basis.dim)
    for i, x in enumerate(basis.configs):
        nbrs = neighbors(x, basis)
        for y in nbrs:
            j = basis.index[y]
            if j > i:
                rows.append(i)
                cols.append(j)
                vals.append(hop)
        graph_degree = len(nbrs)
        touches = int(x[0] == -L) + int(x[-1] == L)
        diag[i] = (graph_degree / (2.0 * anisotropy)
                   + cluster_weight * component_degree(x)
                   + w[np.array(x) + L].sum()
                   + wall_weight * touches)
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    matrix = (upper + upper.T + sp.diags(diag)).tocsr()
    return SectorHamiltonian(basis, anisotropy, boundary_weight,
                             field_realization, matrix)


# ---------------------------------------------------------------------------
# energy windows

@dataclass(frozen=True)
class EnergyWindow:
    lower: float
    upper: float
    kind: str = "custom"

    def __post_init__(self):
        if self.lower > self.upper:
            raise ConfigurationError("window lower bound exceeds upper bound")

    def contains(self, energies) -> np.ndarray:
        e = np.asarray(energies)
        return (e >= self.lower) & (e <= self.upper)


def droplet_band(n_particles: int, anisotropy: float) -> EnergyWindow:
    """Low-energy band of the free N-magnon sector, via cosh(rho) = Delta."""
    if anisotropy <= 1:
        raise ConfigurationError("droplet bands require anisotropy > 1")
    if n_particles < 1:
        raise ConfigurationError("particle number must be >= 1")
    rho = acosh(anisotropy)
    nr = n_particles * rho
    lo = tanh(rho) * (cosh(nr) - 1.0) / sinh(nr)
    hi = tanh(rho) * (cosh(nr) + 1.0) / sinh(nr)
    return EnergyWindow(lo, hi, kind="band")


def spectral_window(anisotropy: float, safety: float = 0.0,
                    kind: str = "I_delta") -> EnergyWindow:
    """Droplet spectrum windows: I, I_delta, or I_0_delta."""
    if anisotropy <= 1:
        raise ConfigurationError("anisotropy must be > 1")
    gap = 1.0 - 1.0 / anisotropy
    if kind == "I":
        return EnergyWindow(gap, 2.0 * gap, kind)
    if safety <= 0:
        raise ConfigurationError("safety distance must be positive")
    if kind == "I_delta":
        return EnergyWindow(gap, (2.0 - safety) * gap, kind)
    if kind == "I_0_delta":
        return EnergyWindow(0.0, (2.0 - safety) * gap, kind)
    raise ConfigurationError(f"unknown window kind {kind!r}")


# ---------------------------------------------------------------------------
# spectra and correlators

def _dense_eigh(matrix: np.ndarray):
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}")


def eigenpairs_in_window(h: SectorHamiltonian, window: EnergyWindow):
    """All (energy, eigenvector) pairs with energy in the window.

    Dense below DENSE_DIAG_CAP, shift-invert Lanczos around the window
    center above it.
    """
    if h.dim <= DENSE_DIAG_CAP:
        vals, vecs = _dense_eigh(h.dense())
    else:
        sigma = 0.5 * (window.lower + window.upper)
        k = min(h.dim - 2, 400)
        try:
            vals, vecs = spla.eigsh(h.matrix, k=k, sigma=sigma)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(f"windowed eigensolver failed: {exc}")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    keep = window.contains(vals)
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size:
        ortho = np.abs(vecs.T @ vecs - np.eye(vals.size)).max()
        if ortho > 1e-9:
            raise NumericalError(f"window eigenvectors not orthonormal: {ortho:.2e}")
    return [(float(e), vecs[:, i]) for i, e in enumerate(vals)]


def droplet_profile(psi: np.ndarray, geo: DropletGeometry) -> dict[int, float]:
    """Mass ||chi_{d=r} psi|| of the eigenvector at each droplet distance r."""
    psi = np.asarray(psi)
    out = {}
    for r in range(int(geo.distance.max()) + 1):
        sel = geo.distance == r
        if sel.any():
            out[r] = float(np.sqrt((np.abs(psi[sel]) ** 2).sum()))
    return out


def s_indicator(site: int, basis: SectorBasis) -> np.ndarray:
    """Indices of configurations occupying the given site (the support of
    the number operator restricted to the sector)."""
    if not -basis.half_length <= site <= basis.half_length:
        raise IndexError(f"site {site} outside [-{basis.half_length}, {basis.half_length}]")
    return np.array([i for i, x in enumerate(basis.configs) if site in x],
                    dtype=np.int64)


def _window_gap_check(energies: np.ndarray):
    if energies.size >= 2:
        gap = np.diff(np.sort(energies)).min()
        if gap <= _GAP_TOL:
            raise DegeneracyError(
                f"window spectrum has gap {gap:.2e} <= {_GAP_TOL}")


def sector_correlator(h: SectorHamiltonian, window: EnergyWindow,
                      j: int, k: int) -> float:
    """Q_N(j, k; window) = sum over window eigenpairs of
    ||chi_{S_j} psi|| * ||chi_{S_k} psi|| (trace-norm form, simple spectrum)."""
    pairs = eigenpairs_in_window(h, window)
    if not pairs:
        return 0.0
    _window_gap_check(np.array([e for e, _ in pairs]))
    sj = s_indicator(j, h.basis)
    sk = s_indicator(k, h.basis)
    total = 0.0
    for _, psi in pairs:
        mj = np.sqrt((psi[sj] ** 2).sum())
        mk = np.sqrt((psi[sk] ** 2).sum())
        total += mj * mk
    return float(total)


def ct_check(h: SectorHamiltonian, energy: float, safety: float,
             set_a, set_b) -> tuple[float, float]:
    """Measured vs predicted Combes-Thomas resolvent decay.

    measured: operator norm of the A-rows / B-columns block of
        (H + (1 - 1/Delta) P_droplet - E)^{-1}
    bound:    (16 Delta / (safety (Delta-1)))
              * (1 + safety (Delta-1) / 8)^{-d_N(A, B)}
    """
    delta_aniso = h.anisotropy
    gap = 1.0 - 1.0 / delta_aniso
    if energy > (2.0 - safety) * gap + 1e-12:
        raise ConfigurationError("energy must lie below (2 - safety) * (1 - 1/Delta)")
    if not set_a or not set_b:
        raise ConfigurationError("both configuration sets must be nonempty")
    basis = h.basis
    idx_a = np.array(sorted(basis.index[x] for x in set_a))
    idx_b = np.array(sorted(basis.index[x] for x in set_b))
    geo = droplet_geometry(basis)
    shift = np.zeros(h.dim)
    shift[geo.droplet_indices] = gap
    op = (h.matrix + sp.diags(shift) - energy * sp.identity(h.dim)).tocsc()
    rhs = np.zeros((h.dim, idx_b.size))
    rhs[idx_b, np.arange(idx_b.size)] = 1.0
    try:
        block = spla.splu(op).solve(rhs)[idx_a, :]
    except RuntimeError as exc:
        raise NumericalError(f"shifted operator could not be factorized: {exc}")
    measured = float(np.linalg.norm(block, 2))
    d = set_distance(set_a, set_b)
    rate_base = 1.0 + safety * (delta_aniso - 1.0) / 8.0
    prefactor = 16.0 * delta_aniso / (safety * (delta_aniso - 1.0))
    return measured, prefactor * rate_base ** (-d)


# ---------------------------------------------------------------------------
# full-chain direct sum over magnon sectors

@dataclass(frozen=True)
class _SectorSpectrum:
    basis: SectorBasis
    energies: np.ndarray
    vectors: np.ndarray


class ChainSpectrum:
    """Full finite-volume XXZ chain assembled as the direct sum over all
    magnon sectors N = 0 .. 2L+1 (particle number is conserved).

    Sector-wise diagonalization gives the exact full spectrum at a small
    fraction of the 2^n dense cost; the test suite checks it against the
    brute-force engine.
    """

    def __init__(self, half_length: int, anisotropy: float,
                 boundary_weight: float, field_realization: FieldRealization):
        self.half_length = half_length
        self.anisotropy = anisotropy
        self.boundary_weight = boundary_weight
        self.field = field_realization
        self.sectors: dict[int, _SectorSpectrum] = {}
        for n in range(1, 2 * half_length + 2):
            h = build_h_sector(n, half_length, anisotropy, boundary_weight,
                               field_realization)
            vals, vecs = _dense_eigh(h.dense())
            self.sectors[n] = _SectorSpectrum(h.basis, vals, vecs)

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length + 1

    def all_energies(self) -> np.ndarray:
        """Full 2^n spectrum including the vacuum at zero."""
        return np.sort(np.concatenate(
            [[0.0]] + [s.energies for s in self.sectors.values()]))

    def window_states(self, window: EnergyWindow, include_vacuum: bool = True):
        """(sector, energy, eigenvector) for all states in the window; the
        vacuum appears as sector 0 with a trivial vector."""
        out = []
        if include_vacuum and window.contains([0.0])[0]:
            out.append((0, 0.0, np.ones(1)))
        for n, s in self.sectors.items():
            for i in np.flatnonzero(window.contains(s.energies)):
                out.append((n, float(s.energies[i]), s.vectors[:, i]))
        return out

    def site_mass_profile(self, window: EnergyWindow) -> np.ndarray:
        """Per-state, per-site masses ||N_j psi_E|| for window eigenstates.

        Returns an array of shape (n_states, n_sites); summing the outer
        products over states yields the droplet-localization correlator
        sum_E ||N_j psi_E|| ||N_k psi_E|| for all site pairs at once.
        """
        states = self.window_states(window, include_vacuum=False)
        _window_gap_check(np.array([e for _, e, _ in states]))
        masses = np.zeros((len(states), self.n_sites))
        occupancy = {}
        for row, (n, _, psi) in enumerate(states):
            basis = self.sectors[n].basis
            if n not in occupancy:
                occ = np.zeros((basis.dim, self.n_sites), dtype=bool)
                for i, x in enumerate(basis.configs):
                    occ[i, np.array(x) + self.half_length] = True
                occupancy[n] = occ
            weights = psi ** 2
            masses[row] = np.sqrt(weights @ occupancy[n])
        return masses

    def chain_correlator(self, window: EnergyWindow, j: int, k: int) -> float:
        """sum over window eigenstates of ||N_j psi_E|| ||N_k psi_E||,
        decomposed over magnon sectors."""
        masses = self.site_mass_profile(window)
        ja = j + self.half_length
        ka = k + self.half_length
        return float((masses[:, ja] * masses[:, ka]).sum())

    # -- windowed observables -------------------------------------------------

    def window_number_operator(self, window: EnergyWindow, site: int):
        """(energies, Psi* N_site Psi) over the window eigenbasis."""
        states = self.window_states(window)
        energies = np.array([e for _, e, _ in states])
        w = len(states)
        mat = np.zeros((w, w))
        by_sector = defaultdict(list)
        for idx, (n, _, _) in enumerate(states):
            by_sector[n].append(idx)
        for n, rows in by_sector.items():
            if n == 0:
                continue
            sel = s_indicator(site, self.sectors[n].basis)
            vecs = np.stack([states[i][2] for i in rows], axis=1)
            mat[np.ix_(rows, rows)] = vecs[sel].T @ vecs[sel]
        return energies, mat

    def window_raising_operator(self, window: EnergyWindow, site: int):
        """Psi* a_site^dagger Psi in the window eigenbasis (adds one particle
        at the site; couples adjacent sectors, vacuum included)."""
        states = self.window_states(window)
        energies = np.array([e for _, e, _ in states])
        w = len(states)
        mat = np.zeros((w, w))
        by_sector = defaultdict(list)
        for idx, (n, _, _) in enumerate(states):
            by_sector[n].append(idx)
        for n_src, src_rows in by_sector.items():
            n_dst = n_src + 1
            if n_dst not in by_sector:
                continue
            dst_rows = by_sector[n_dst]
            dst_basis = self.sectors[n_dst].basis
            if n_src == 0:
                src_vecs = np.ones((1, len(src_rows)))
                src_configs = [()]
            else:
                src_basis = self.sectors[n_src].basis
                src_vecs = np.stack([states[i][2] for i in src_rows], axis=1)
                src_configs = src_basis.configs
            dst_vecs = np.stack([states[i][2] for i in dst_rows], axis=1)
            lifted = np.zeros((dst_basis.dim, len(src_rows)))
            for i, x in enumerate(src_configs):
                if site not in x:
                    y = tuple(sorted(x + (site,)))
                    lifted[dst_basis.index[y]] = src_vecs[i]
            mat[np.ix_(dst_rows, src_rows)] = dst_vecs.T @ lifted
        return energies, mat

    def window_observable(self, window: EnergyWindow, kind: str, site: int):
        """Both-sided window restriction X_I = P X P of a one-site observable,
        as a matrix over the window eigenbasis, plus the window energies."""
        if kind == "number":
            return self.window_number_operator(window, site)
        if kind == "sigma_x":
            energies, raising = self.window_raising_operator(window, site)
            return energies, raising + raising.T
        raise ConfigurationError(f"unknown observable kind {kind!r}")


def evolve_window_observable(energies: np.ndarray, mat: np.ndarray,
                             t: float) -> np.ndarray:
    """Heisenberg evolution of a window-restricted observable: conjugation
    by the diagonal phases exp(i E t) in the window eigenbasis."""
    phases = np.exp(1j * energies * t)
    return (phases[:, None] * mat) * phases.conj()[None, :]


def windowed_commutator_norms(energies, x_mat, y_mat, time_grid):
    """Per-t (operator norm, trace norm) of [tau_t(X_I), Y_I] in the window."""
    out = []
    for t in np.asarray(time_grid, dtype=float):
        xt = evolve_window_observable(energies, x_mat, t)
        c = xt @ y_mat - y_mat @ xt
        svals = np.linalg.svd(c, compute_uv=False)
        out.append((float(svals.max(initial=0.0)), float(svals.sum())))
    return out


# -- quasi-locality of the dynamics -----------------------------------------

class QuasiLocalityProbe:
    """Windowed error of the conditional-expectation approximant of
    tau_t(N_site), truncated to sites within distance ell of the site.

    The approximant X_ell(t) is the normalized partial trace of tau_t(X)
    over the complement of S = [site - ell, site + ell], tensored with the
    identity.  This is one admissible witness of quasi-locality; measured
    rates are specific to it.
    """

    def __init__(self, chain: ChainSpectrum, site: int, window: EnergyWindow):
        self.chain = chain
        self.site = site
        self.window = window
        self.states = chain.window_states(window)
        self._by_sector = defaultdict(list)
        for idx, (n, _, _) in enumerate(self.states):
            self._by_sector[n].append(idx)
        self.energies = np.array([e for _, e, _ in self.states])
        # number operator in each sector's config basis (diagonal indicator)
        self._indicator = {0: np.zeros(1)}
        for n, s in chain.sectors.items():
            ind = np.zeros(s.basis.dim)
            ind[s_indicator(site, s.basis)] = 1.0
            self._indicator[n] = ind

    def _tau_t_sector(self, n: int, t: float) -> np.ndarray:
        if n == 0:
            return np.zeros((1, 1), dtype=complex)
        s = self.chain.sectors[n]
        xt = (s.vectors * self._indicator[n][:, None]).T @ s.vectors  # V^T X V
        phases = np.exp(1j * s.energies * t)
        g = (phases[:, None] * xt) * phases.conj()[None, :]
        return s.vectors @ g @ s.vectors.conj().T

    def _split_tables(self, ell: int):
        """Per sector: integer labels of the inner-site pattern of each
        configuration and the index groups sharing an outer pattern."""
        chain = self.chain
        L = chain.half_length
        inner = sorted(range(max(-L, self.site - ell),
                             min(L, self.site + ell) + 1))
        inner_pos = {s: p for p, s in enumerate(inner)}
        inner_set = set(inner)
        tables = {}
        for n, s in chain.sectors.items():
            a_id = np.empty(s.basis.dim, dtype=np.int64)
            groups = defaultdict(list)
            for i, x in enumerate(s.basis.configs):
                code = 0
                outer = []
                for site in x:
                    p = inner_pos.get(site)
                    if p is None:
                        outer.append(site)
                    else:
                        code |= 1 << p
                a_id[i] = code
                groups[tuple(outer)].append(i)
            tables[n] = (a_id, [np.array(g) for g in groups.values()])
        return len(inner), tables

    def _error_given_taus(self, ell: int, taus: dict[int, np.ndarray]) -> float:
        chain = self.chain
        n_inner, tables = self._split_tables(ell)
        if n_inner == chain.n_sites:
            return 0.0
        n_outer = chain.n_sites - n_inner

        # partial trace of tau_t(X) over the outer sites, accumulated over
        # every sector (sectors without window states still contribute);
        # indexed by bit patterns of the inner sites
        dim_a = 1 << n_inner
        m_a = np.zeros((dim_a, dim_a), dtype=complex)
        for n in chain.sectors:
            tau = taus[n]
            a_id, groups = tables[n]
            for g in groups:
                np.add.at(m_a, (a_id[g][:, None], a_id[g][None, :]),
                          tau[np.ix_(g, g)])
        m_a /= 2.0 ** n_outer

        # window matrices of the approximant and of tau_t(X)
        w = len(self.states)
        approx = np.zeros((w, w), dtype=complex)
        exact = np.zeros((w, w), dtype=complex)
        for n, rows in sorted(self._by_sector.items()):
            if n == 0:
                # vacuum: the approximant keeps the traced diagonal element
                # at the empty pattern; tau_t(X) annihilates the vacuum
                vac = rows[0]
                approx[vac, vac] = m_a[0, 0]
                continue
            vecs = np.stack([self.states[i][2] for i in rows], axis=1)
            a_id, groups = tables[n]
            dim = a_id.size
            block = np.zeros((dim, dim), dtype=complex)
            for g in groups:
                block[np.ix_(g, g)] = m_a[np.ix_(a_id[g], a_id[g])]
            approx[np.ix_(rows, rows)] = vecs.T @ block @ vecs
            exact[np.ix_(rows, rows)] = vecs.T @ taus[n] @ vecs
        diff = approx - exact
        return float(np.linalg.norm(diff, 2)) if w else 0.0

    def error_at(self, ell: int, t: float) -> float:
        """Operator norm of (X_ell(t) - tau_t(X)) restricted to the window."""
        taus = {n: self._tau_t_sector(n, t) for n in self.chain.sectors}
        taus[0] = self._tau_t_sector(0, t)
        return self._error_given_taus(ell, taus)

    def errors_profile(self, ells, time_grid) -> dict[int, float]:
        """Per truncation radius, the max over the time grid of the windowed
        error; the evolved operators are shared across radii."""
        out = {ell: 0.0 for ell in ells}
        for t in np.asarray(time_grid, dtype=float):
            taus = {n: self._tau_t_sector(n, t) for n in self.chain.sectors}
            taus[0] = self._tau_t_sector(0, t)
            for ell in ells:
                out[ell] = max(out[ell], self._error_given_taus(ell, taus))
        return out
