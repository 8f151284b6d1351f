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

Only V_w depends on the field.  Everything else is the sector skeleton
returned by ``enumerate_basis(N, L)``: the configurations, their integer
bitmasks (site s is bit s + L), the hop pairs, graph and cluster degrees,
wall touches, the l1 distance to the droplets and the dim x sites
occupancy matrix.  It is built once per (N, L) and cached (the 32 most
recently used sectors of a process), so every caller shares its arrays
and they are read-only.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import acosh, sinh, tanh, cosh

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .disorder import FieldRealization
from .errors import ConfigurationError, DegeneracyError, NumericalError

Config = tuple[int, ...]

DENSE_DIAG_CAP = 20_000
_GAP_TOL = 1e-12


# ---------------------------------------------------------------------------
# configuration space: the sector skeleton

@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Lexicographically ordered N-particle configurations on [-L, L] and
    their field-independent structure, one row per configuration."""

    n_particles: int
    half_length: int
    configs: tuple[Config, ...]
    index: dict[Config, int] = field(repr=False)
    positions: np.ndarray = field(repr=False)         # occupied sites s + L
    masks: np.ndarray = field(repr=False)             # sum of 2^(s + L)
    occupancy: np.ndarray = field(repr=False)         # dim x sites, bool
    hops: np.ndarray = field(repr=False)              # pairs (i, j), i < j
    graph_degree: np.ndarray = field(repr=False)
    cluster_degree: np.ndarray = field(repr=False)    # 2 x number of runs
    wall_touches: np.ndarray = field(repr=False)
    droplet_distance: np.ndarray = field(repr=False)  # 0 on droplets
    mask_order: np.ndarray = field(repr=False)        # argsort of masks

    @property
    def dim(self) -> int:
        return len(self.configs)

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length + 1

    @property
    def sites(self) -> range:
        return range(-self.half_length, self.half_length + 1)

    def locate(self, masks) -> np.ndarray:
        """Indices of the configurations with the given bitmasks."""
        at = np.searchsorted(self.masks, masks, sorter=self.mask_order)
        found = self.mask_order[at % self.dim]
        if np.any(self.masks[found] != masks):
            raise KeyError("bitmask outside the sector")
        return found


@lru_cache(maxsize=32)
def enumerate_basis(n_particles: int, half_length: int) -> SectorBasis:
    L = half_length
    n_sites = 2 * L + 1
    if not 1 <= n_particles <= n_sites:
        raise ConfigurationError(
            f"particle number {n_particles} out of range for [-{L}, {L}]")
    configs = tuple(combinations(range(-L, L + 1), n_particles))
    dim = len(configs)
    pos = np.array(configs, dtype=np.int64).reshape(dim, n_particles) + L
    rows = np.arange(dim)[:, None]
    occupancy = np.zeros((dim, n_sites), dtype=bool)
    occupancy[rows, pos] = True
    # Python ints once the chain outgrows int64
    bits = np.array([1 << p for p in range(n_sites)],
                    dtype=np.int64 if n_sites < 63 else object)
    masks = bits[pos].sum(axis=1)
    order = np.argsort(masks)
    # every hop pair once, as a particle stepping right onto a free site:
    # p -> p + 1 adds 2^p to the mask and gives a lexicographically later
    # configuration
    free = (pos + 1 < n_sites) & ~occupancy[rows, np.minimum(pos + 1, n_sites - 1)]
    src, slot = np.nonzero(free)
    moved = masks[src] + bits[pos[src, slot]]
    hops = np.stack([src, order[np.searchsorted(masks, moved, sorter=order)]], axis=1)
    # x_i - i is nondecreasing and constant exactly on droplets; its median
    # is the start of the nearest droplet
    shifted = pos - np.arange(n_particles)
    arrays = dict(
        positions=pos, masks=masks, occupancy=occupancy, hops=hops,
        graph_degree=np.bincount(hops.ravel(), minlength=dim),
        cluster_degree=2 * (1 + (np.diff(pos, axis=1) > 1).sum(axis=1)),
        wall_touches=(pos[:, 0] == 0).astype(np.int64) + (pos[:, -1] == n_sites - 1),
        droplet_distance=np.abs(
            shifted - shifted[:, [(n_particles - 1) // 2]]).sum(axis=1),
        mask_order=order)
    for a in arrays.values():
        a.flags.writeable = False
    return SectorBasis(n_particles, L, configs,
                       {x: i for i, x in enumerate(configs)}, **arrays)


# naive per-configuration definitions, kept as references for the skeleton

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
    cluster_weight = 0.5 * (1.0 - 1.0 / anisotropy)
    diag = (basis.graph_degree / (2.0 * anisotropy)
            + cluster_weight * basis.cluster_degree
            + w[basis.positions].sum(axis=1)
            + (boundary_weight - cluster_weight) * basis.wall_touches)
    hop = np.full(len(basis.hops), -1.0 / (2.0 * anisotropy))
    upper = sp.coo_matrix((hop, (basis.hops[:, 0], basis.hops[:, 1])),
                          shape=(basis.dim, basis.dim))
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
    center above it.  The k eigenvalues nearest the center cover the window
    only if the farthest of them lies at least half its width away; a
    window they do not cover raises NumericalError.
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
        reach = np.abs(vals - sigma).max()
        if k < h.dim and reach < 0.5 * (window.upper - window.lower):
            raise NumericalError(
                f"{k} eigenpairs reach {reach:.3g} from the window center,"
                f" less than its half-width")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    keep = window.contains(vals)
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size:
        ortho = np.abs(vecs.T @ vecs - np.eye(vals.size)).max()
        if ortho > 1e-9:
            raise NumericalError(f"window eigenvectors not orthonormal: {ortho:.2e}")
    return [(float(e), vecs[:, i]) for i, e in enumerate(vals)]


def droplet_profile(psi: np.ndarray, distance: np.ndarray) -> dict[int, float]:
    """Mass ||chi_{d=r} psi|| of the eigenvector at each droplet distance r,
    with ``distance`` a basis's ``droplet_distance``."""
    psi = np.asarray(psi)
    out = {}
    for r in range(int(distance.max()) + 1):
        sel = distance == r
        if sel.any():
            out[r] = float(np.sqrt((np.abs(psi[sel]) ** 2).sum()))
    return out


def _window_gap_check(energies: np.ndarray):
    if energies.size >= 2:
        gap = np.diff(np.sort(energies)).min()
        if gap <= _GAP_TOL:
            raise DegeneracyError(
                f"window spectrum has gap {gap:.2e} <= {_GAP_TOL}")


def window_site_masses(states, n_sites: int) -> np.ndarray:
    """Masses ||N_j psi|| = sqrt(psi^2 @ occupancy) of the window states
    (basis, energy, psi), one row per state.  A degenerate window raises
    DegeneracyError: its per-state masses depend on the eigenbasis."""
    _window_gap_check(np.array([e for _, e, _ in states]))
    masses = np.zeros((len(states), n_sites))
    for row, (basis, _, psi) in enumerate(states):
        masses[row] = np.sqrt(psi ** 2 @ basis.occupancy)
    return masses


def _check_site(site: int, half_length: int):
    if not -half_length <= site <= half_length:
        raise ConfigurationError(
            f"site {site} outside the chain [-{half_length}, {half_length}]")


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
    shift = np.where(basis.droplet_distance == 0, gap, 0.0)
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
        """Per-state, per-site masses ||N_j psi_E|| for window eigenstates,
        an array of shape (n_states, n_sites) (see window_site_masses)."""
        states = self.window_states(window, include_vacuum=False)
        return window_site_masses(
            [(self.sectors[n].basis, e, psi) for n, e, psi in states],
            self.n_sites)

    # -- windowed observables -------------------------------------------------

    def _window_blocks(self, window: EnergyWindow):
        """Window energies and, per sector, the indices of its window states
        and their eigenvectors as columns (the vacuum is sector 0)."""
        states = self.window_states(window)
        rows = defaultdict(list)
        for idx, (n, _, _) in enumerate(states):
            rows[n].append(idx)
        return np.array([e for _, e, _ in states]), {
            n: (r, np.stack([states[i][2] for i in r], axis=1))
            for n, r in rows.items()}

    def window_number_operator(self, window: EnergyWindow, site: int):
        """(energies, Psi* N_site Psi) over the window eigenbasis."""
        _check_site(site, self.half_length)
        energies, blocks = self._window_blocks(window)
        mat = np.zeros((energies.size, energies.size))
        for n, (rows, vecs) in blocks.items():
            if n:
                sel = self.sectors[n].basis.occupancy[:, site + self.half_length]
                mat[np.ix_(rows, rows)] = vecs[sel].T @ vecs[sel]
        return energies, mat

    def window_raising_operator(self, window: EnergyWindow, site: int):
        """Psi* a_site^dagger Psi in the window eigenbasis (adds one particle
        at the site; couples adjacent sectors, vacuum included)."""
        _check_site(site, self.half_length)
        bit = 1 << (site + self.half_length)
        energies, blocks = self._window_blocks(window)
        mat = np.zeros((energies.size, energies.size))
        for n, (src_rows, src_vecs) in blocks.items():
            if n + 1 not in blocks:
                continue
            dst_rows, dst_vecs = blocks[n + 1]
            src = self.sectors[n].basis.masks if n else np.zeros(1, dtype=np.int64)
            free = (src & bit) == 0
            lifted = np.zeros((len(dst_vecs), len(src_rows)))
            lifted[self.sectors[n + 1].basis.locate(src[free] | bit)] = src_vecs[free]
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

    X = N_site is a projector, so in each sector tau_t(X) = C C^dagger with
    C = V e^{iEt} V[occ, :]^T, the columns of e^{iHt} at the configurations
    that occupy the site; no dim x dim evolved operator is formed.  A class
    of configurations with fixed inner weight is ordered by (outer pattern
    o, inner pattern a), so C on it is c[o, a, k], and the partial trace
    over the outer sites, sum_{o, k} c[o, a, k] conj(c[o, b, k]), is one
    product c c^dagger with (o, k) merged into the column index.  On the
    window, tau_t(X) is the window number operator conjugated by the
    window phases.
    """

    def __init__(self, chain: ChainSpectrum, site: int, window: EnergyWindow):
        _check_site(site, chain.half_length)
        self.chain = chain
        self.site = site
        self.window = window
        self.energies, self._number = chain.window_number_operator(window, site)
        self._blocks = chain._window_blocks(window)[1]
        self._tables = {}

    def _evolved(self, t: float):
        """Per sector the factor C of tau_t(X) = C C^dagger, and tau_t(X) on
        the window."""
        col = self.site + self.chain.half_length
        factors = {n: (s.vectors * np.exp(1j * s.energies * t))
                   @ s.vectors[s.basis.occupancy[:, col]].T
                   for n, s in self.chain.sectors.items()}
        return factors, evolve_window_observable(self.energies, self._number, t)

    def _trace_tables(self, ell: int):
        """Number of inner sites of S and, per sector, its configurations
        split by inner weight.  Each class is the product of the outer and
        the inner patterns of fixed weights, so it is listed as its
        configurations ordered by (outer, inner) pattern together with its
        sorted inner patterns (bits of the inner sites).  Built once per
        radius."""
        if ell not in self._tables:
            L = self.chain.half_length
            lo = max(-L, self.site - ell) + L
            n_inner = min(L, self.site + ell) + L + 1 - lo
            inner = (1 << n_inner) - 1
            tables = {}
            for n, s in self.chain.sectors.items():
                a_id = (s.basis.masks >> lo) & inner
                order = np.lexsort((a_id, s.basis.masks & ~(inner << lo)))
                weight = s.basis.occupancy[order, lo:lo + n_inner].sum(axis=1)
                tables[n] = []
                for k in np.unique(weight):
                    members = order[weight == k]
                    tables[n].append((members, np.unique(a_id[members])))
            self._tables[ell] = n_inner, tables
        return self._tables[ell]

    def _error(self, ell: int, factors: dict[int, np.ndarray],
               exact: np.ndarray) -> float:
        chain = self.chain
        n_inner, tables = self._trace_tables(ell)
        if n_inner == chain.n_sites:
            return 0.0
        n_outer = chain.n_sites - n_inner

        # partial trace of tau_t(X) over the outer sites, accumulated over
        # every sector (sectors without window states still contribute);
        # indexed by bit patterns of the inner sites
        dim_a = 1 << n_inner
        m_a = np.zeros((dim_a, dim_a), dtype=complex)
        for n, classes in tables.items():
            for members, patterns in classes:
                na = patterns.size
                c = factors[n][members].reshape(members.size // na, na, -1)
                c = c.swapaxes(0, 1).reshape(na, -1)
                m_a[np.ix_(patterns, patterns)] += c @ c.conj().T
        m_a /= 2.0 ** n_outer

        # the approximant on the window: m_a acts on the inner index of
        # every class
        w = self.energies.size
        approx = np.zeros((w, w), dtype=complex)
        for n, (rows, vecs) in self._blocks.items():
            if n == 0:
                # vacuum: the approximant keeps the traced diagonal element
                # at the empty pattern; tau_t(X) annihilates the vacuum
                approx[rows[0], rows[0]] = m_a[0, 0]
                continue
            for members, patterns in tables[n]:
                v = vecs[members]
                mv = (m_a[np.ix_(patterns, patterns)]
                      @ v.reshape(-1, patterns.size, len(rows)))
                approx[np.ix_(rows, rows)] += v.T @ mv.reshape(members.size, -1)
        return float(np.linalg.norm(approx - exact, 2)) if w else 0.0

    def error_at(self, ell: int, t: float) -> float:
        """Operator norm of (X_ell(t) - tau_t(X)) restricted to the window."""
        return self._error(ell, *self._evolved(t))

    def errors_profile(self, ells, time_grid) -> dict[int, float]:
        """Per truncation radius, the max over the time grid of the windowed
        error; the evolved operators are shared across radii."""
        out = {ell: 0.0 for ell in ells}
        for t in np.asarray(time_grid, dtype=float):
            evolved = self._evolved(t)
            for ell in ells:
                out[ell] = max(out[ell], self._error(ell, *evolved))
        return out
