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
nonnegative, so min spec H_N^L >= 1 - 1/Delta for N >= 1.  The vacuum
N = 0 is the sector of one empty configuration with H_0 = 0.

The test suite validates everything here entrywise against the brute-force
2^n spin Hamiltonian.  Only V_w depends on the field; the rest is the sector
skeleton ``enumerate_basis(N, L)``, N = 0 .. 2L + 1 (positions, bitmasks
with site s as bit s + L, hop adjacency, degrees, wall touches, droplet
distances, occupancy), built by numpy in lexicographic order, cached and
read-only; a build above half the physical memory is refused from
C(2L + 1, N) before anything is allocated (ConfigurationError, CLI exit 2).

On configurations of two or more clusters the potential is at least
2 (1 - 1/Delta).  Windows below that are counted on the droplets (the split
of Elgart-Klein-Stolz) and solved by Lanczos, and the Combes-Thomas
resolvent by conjugate gradients, all certified; full spectra and windows
ending at 2 (1 - 1/Delta) are solved dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import acosh, comb, sinh, tanh, cosh
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, DegeneracyError, NumericalError

_HALF_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
# dense eigh at dimension n holds 5 n^2 doubles (matrix, LAPACK's copy, 2 n^2
# syevd workspace, eigenvectors); at the cap that is half the physical memory
DENSE_DIAG_CAP = int((_HALF_MEMORY / (5 * 8)) ** 0.5)
_GAP_TOL = 1e-12
_CT_TOL = 1e-12  # largest certified error of a Combes-Thomas block


# ---------------------------------------------------------------------------
# configuration space: the sector skeleton

@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Lexicographically ordered N-particle configurations on [-L, L] and
    their field-independent structure, one row per configuration."""

    n_particles: int
    half_length: int
    positions: np.ndarray = field(repr=False)         # occupied sites s + L
    masks: np.ndarray = field(repr=False)             # sum of 2^(s + L)
    occupancy: np.ndarray = field(repr=False)         # dim x sites, bool
    adjacency: sp.csr_matrix = field(repr=False)      # unit, symmetric
    graph_degree: np.ndarray = field(repr=False)
    cluster_degree: np.ndarray = field(repr=False)    # 2 x number of runs
    wall_touches: np.ndarray = field(repr=False)
    droplet_distance: np.ndarray = field(repr=False)  # 0 on droplets
    mask_order: np.ndarray = field(repr=False)        # argsort of masks

    @property
    def dim(self) -> int:
        return len(self.positions)

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length + 1

    @property
    def sites(self) -> range:
        return range(-self.half_length, self.half_length + 1)

    def locate(self, masks) -> np.ndarray:
        """Indices of the configurations with the given bitmasks."""
        # typed first: numpy reads a list of ints above 2^63 as float64
        masks = np.asarray(masks, dtype=self.masks.dtype)
        at = np.searchsorted(self.masks, masks, sorter=self.mask_order)
        found = self.mask_order[at % self.dim]
        if np.any(self.masks[found] != masks):
            raise KeyError("bitmask outside the sector")
        return found


@lru_cache(maxsize=32)
def enumerate_basis(n_particles: int, half_length: int) -> SectorBasis:
    """The N-particle skeleton on [-L, L]: lexicographic positions built
    column by column, hop targets from the rank; a ConfigurationError from
    C(2L + 1, N) alone when the build would hold over half the memory."""
    L = half_length
    n_sites = 2 * L + 1
    if not 0 <= n_particles <= n_sites:
        raise ConfigurationError(
            f"particle number {n_particles} out of range for [-{L}, {L}]")
    dim = comb(n_sites, n_particles)
    # peak bytes, while the hop matrix is summed: per configuration positions
    # (8 N), occupancy (n_sites), mask and a few words (128, a Python-int mask
    # included), and per hop (at most N) about 112: source, slot, target and
    # their index temporaries, unit weight, COO and CSR of both triangles
    need = dim * (128 + n_sites + 120 * n_particles)
    if need > _HALF_MEMORY:
        raise ConfigurationError(
            f"sector of {dim} configurations needs about {need / 2**30:.3g} GiB"
            f" to build, above half the physical memory")
    # lexicographic order by columns: a row whose last particle sits at `last`
    # extends to the `count` sites after it that leave room for the rest
    pos = np.zeros((1, 0), dtype=np.int64)
    last = np.full(1, -1)
    for col in range(n_particles):
        count = n_sites - n_particles + col - last
        rows = np.repeat(np.arange(len(pos)), count)
        start = np.cumsum(count) - count  # first successor of each row
        last = np.arange(rows.size) + np.repeat(last + 1 - start, count)
        pos = np.column_stack([pos[rows], last])
    occupancy = np.zeros((dim, n_sites), dtype=bool)
    np.put_along_axis(occupancy, pos, True, axis=1)
    # Python ints once the chain outgrows int64
    bits = np.array([1 << p for p in range(n_sites)],
                    dtype=np.int64 if n_sites < 63 else object)
    masks = bits[pos].sum(axis=1)
    # every hop pair once, as a particle stepping right onto a free site.
    # The rank of x is dim - 1 - sum_i C(n - 1 - x_i, N - i), so x_s -> x_s + 1
    # adds C(n - 2 - x_s, j) = ways[j, n - 2 - x_s - j], j = N - 1 - s, with
    # ways[j, k] = C(j + k, j) (Pascal's rule as cumulative sums; each <= dim)
    src, slot = np.nonzero(np.diff(pos, axis=1, append=n_sites) > 1)
    ways = np.ones((n_particles, n_sites - n_particles), dtype=np.int64)
    for i in range(1, n_particles):
        ways[i] = np.cumsum(ways[i - 1])
    j = n_particles - 1 - slot
    dst = src + ways[j, n_sites - 2 - pos[src, slot] - j]
    upper = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(dim, dim))
    adjacency = (upper + upper.T).tocsr()
    # x_i - i is nondecreasing and constant exactly on droplets; its median
    # (none in the vacuum) is the start of the nearest droplet
    shifted = pos - np.arange(n_particles)
    median = (n_particles - 1) // 2
    arrays = dict(
        positions=pos, masks=masks, occupancy=occupancy,
        graph_degree=np.diff(adjacency.indptr),
        cluster_degree=2 * (np.diff(pos, axis=1, prepend=-2) > 1).sum(axis=1),
        wall_touches=(pos == 0).sum(axis=1) + (pos == n_sites - 1).sum(axis=1),
        droplet_distance=np.abs(
            shifted - shifted[:, median:median + 1]).sum(axis=1),
        mask_order=np.argsort(masks))
    for a in (*arrays.values(), adjacency.data, adjacency.indices, adjacency.indptr):
        a.flags.writeable = False
    return SectorBasis(n_particles, L, adjacency=adjacency, **arrays)


def set_distance(a, b) -> int:
    """d_N(A, B): minimal l1 distance between the two configuration sets."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("set distance needs nonempty sets")
    xa = np.array(list(a))
    xb = np.array(list(b))
    # pairwise |x - y| summed over particle slots
    return int(np.abs(xa[:, None, :] - xb[None, :, :]).sum(axis=2).min())


# ---------------------------------------------------------------------------
# sector Hamiltonian

@dataclass(frozen=True)
class SectorHamiltonian:
    basis: SectorBasis
    anisotropy: float
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim


def min_boundary_weight(anisotropy: float) -> float:
    return 0.5 * (1.0 - 1.0 / anisotropy)


def build_h_sector(n_particles: int, half_length: int, anisotropy: float,
                   boundary_weight: float,
                   w: np.ndarray) -> SectorHamiltonian:
    if anisotropy <= 1:
        raise ConfigurationError("Ising phase requires anisotropy > 1")
    if boundary_weight < min_boundary_weight(anisotropy) - 1e-15:
        raise ConfigurationError(
            "droplet boundary weight must be >= (1 - 1/Delta)/2")
    L = half_length
    w = np.asarray(w, dtype=float)
    if w.size != 2 * L + 1:
        raise ConfigurationError(
            f"field must cover the {2 * L + 1} sites of [-{L}, {L}]")
    if np.any(w < 0):
        raise ConfigurationError("XXZ requires a nonnegative field")

    basis = enumerate_basis(n_particles, L)
    cluster_weight = min_boundary_weight(anisotropy)
    diag = (basis.graph_degree / (2.0 * anisotropy)
            + cluster_weight * basis.cluster_degree
            + w[basis.positions].sum(axis=1)
            + (boundary_weight - cluster_weight) * basis.wall_touches)
    matrix = sp.diags(diag) - basis.adjacency / (2.0 * anisotropy)
    return SectorHamiltonian(basis, anisotropy, matrix)


# ---------------------------------------------------------------------------
# energy windows

@dataclass(frozen=True)
class EnergyWindow:
    lower: float
    upper: float

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
    return EnergyWindow(lo, hi)


def spectral_window(anisotropy: float, safety: float = 0.0,
                    kind: str = "I_delta") -> EnergyWindow:
    """Droplet spectrum windows: I, I_delta, or I_0_delta."""
    if anisotropy <= 1:
        raise ConfigurationError("anisotropy must be > 1")
    gap = 1.0 - 1.0 / anisotropy
    if kind == "I":
        return EnergyWindow(gap, 2.0 * gap)
    if safety <= 0:
        raise ConfigurationError("safety distance must be positive")
    if kind == "I_delta":
        return EnergyWindow(gap, (2.0 - safety) * gap)
    if kind == "I_0_delta":
        return EnergyWindow(0.0, (2.0 - safety) * gap)
    raise ConfigurationError(f"unknown window kind {kind!r}")


# ---------------------------------------------------------------------------
# spectra and correlators

def require_dense(dim: int):
    if dim > DENSE_DIAG_CAP:
        raise ConfigurationError(f"dense diagonalization at dim {dim} is above"
                                 f" DENSE_DIAG_CAP = {DENSE_DIAG_CAP}")


def _dense_eigh(h: SectorHamiltonian):
    require_dense(h.dim)
    try:
        return np.linalg.eigh(h.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}")


def _certified_cg(op, rhs: np.ndarray, floor: float):
    """CG on each column of op X = rhs to working precision, and the bound
    |rhs - op X|_F / floor on |X - op^-1 rhs|_2 if min spec op >= floor > 0."""
    sol = np.empty_like(rhs)
    for col in range(rhs.shape[1]):
        sol[:, col], info = spla.cg(op, rhs[:, col], rtol=np.finfo(float).eps,
                                    atol=0.0)
        if info != 0:
            raise NumericalError(f"conjugate gradients did not converge (info {info})")
    return sol, float(np.linalg.norm(rhs - op @ sol)) / floor


def eigenpairs_in_window(h: SectorHamiltonian, window: EnergyWindow):
    """The window energies of the sector, ascending, and their eigenvectors
    as the columns of a matrix.

    A = H - upper I is >= floor = 2 (1 - 1/Delta) - upper on the set T of
    non-droplets.  If floor > 0 (I_delta, I_0_delta), the k eigenvalues <=
    upper are the negative ones of the Schur complement of A_TT (Haynsworth
    inertia), counted only if CG certifies all its signs.  k = 0 needs no
    solve; else Lanczos gives k + 1 pairs, kept only if exactly k lie <=
    upper, each with a residual below its distance to upper.  Kind I and
    sectors with |T| <= 1 are solved dense.  NumericalError if uncertified.
    """
    upper = window.upper
    floor = 2.0 * (1.0 - 1.0 / h.anisotropy) - upper
    t = h.basis.droplet_distance > 0
    if floor <= 0 or t.sum() <= 1:
        vals, vecs = _dense_eigh(h)
    else:
        a = (h.matrix - upper * sp.identity(h.dim)).tocsr()
        a_st = a[~t][:, t]
        x, error = _certified_cg(a[t][:, t], a_st.T.toarray(), floor)
        schur = a[~t][:, ~t].toarray() - a_st @ x
        c = np.linalg.eigvalsh(0.5 * (schur + schur.T))
        bound = spla.norm(a_st) * error  # on the error of each eigenvalue of C
        if np.abs(c).min() <= bound:
            raise NumericalError(f"window count undecided at error {bound:.2e}")
        k = int((c < 0).sum())
        if k == 0:
            return np.zeros(0), np.zeros((h.dim, 0))
        # fixed pseudo-random start: bit-identical reruns, no symmetry class missed
        v0 = np.random.default_rng(0).standard_normal(h.dim)
        try:
            vals, vecs = spla.eigsh(h.matrix, k=k + 1, which="SA", v0=v0)
        except spla.ArpackError as exc:
            raise NumericalError(f"windowed eigensolver failed: {exc}")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        below = int((vals <= upper).sum())
        resid = np.linalg.norm(h.matrix @ vecs - vecs * vals, axis=0)[:k]
        if below != k or np.any(resid >= upper - vals[:k]):
            raise NumericalError(f"Lanczos pairs not certified: {below} of {k}"
                                 f" counted, residuals up to {resid.max():.2e}")
    keep = window.contains(vals)
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size:
        ortho = np.abs(vecs.T @ vecs - np.eye(vals.size)).max()
        if ortho > 1e-9:
            raise NumericalError(f"window eigenvectors not orthonormal: {ortho:.2e}")
    return vals, vecs


def droplet_profile(vectors: np.ndarray, distance: np.ndarray) -> np.ndarray:
    """Masses ||chi_{d=r} psi|| of the columns psi of ``vectors`` at every
    droplet distance r = 0 .. max(distance), one row per column, with
    ``distance`` a basis's ``droplet_distance``."""
    shells = distance[:, None] == np.arange(distance.max() + 1)
    return np.sqrt((vectors ** 2).T @ shells)


def window_site_masses(blocks, n_sites: int) -> np.ndarray:
    """Masses ||N_j psi|| = sqrt(psi^2 @ occupancy) of the window states,
    one row per state, from per-sector blocks (basis, energies, vectors).
    A degenerate window raises DegeneracyError: its per-state masses
    depend on the eigenbasis."""
    energies = np.sort(np.concatenate([np.zeros(0)] + [e for _, e, _ in blocks]))
    gap = np.diff(energies).min(initial=np.inf)
    if gap <= _GAP_TOL:
        raise DegeneracyError(f"window spectrum has gap {gap:.2e} <= {_GAP_TOL}")
    return np.concatenate([np.zeros((0, n_sites))]
                          + [np.sqrt((v ** 2).T @ b.occupancy) for b, _, v in blocks])


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

    The argument's premise (Elgart-Klein-Stolz) is that the shifted operator
    K is positive definite with min spec K >= floor = safety (1 - 1/Delta)
    for admissible E; the tests check that floor by Lanczos.  So
    _certified_cg solves K x = e_y for each y in B (working precision keeps
    the exponentially small entries accurate), and the block norm is off by
    at most its certified error.  NumericalError if a solve does not
    converge, that error exceeds _CT_TOL, or the bound lies within it.
    """
    delta_aniso = h.anisotropy
    gap = 1.0 - 1.0 / delta_aniso
    if safety <= 0:
        raise ConfigurationError("safety distance must be positive")
    if energy > (2.0 - safety) * gap + 1e-12:
        raise ConfigurationError("energy must lie below (2 - safety) * (1 - 1/Delta)")
    if not set_a or not set_b:
        raise ConfigurationError("both configuration sets must be nonempty")
    basis = h.basis

    def rows(configs):
        return np.sort(basis.locate(
            [sum(1 << (int(s) + basis.half_length) for s in x) for x in configs]))

    idx_a, idx_b = rows(set_a), rows(set_b)
    shift = np.where(basis.droplet_distance == 0, gap, 0.0)
    op = (h.matrix + sp.diags(shift - energy)).tocsr()
    rhs = np.zeros((h.dim, idx_b.size))
    rhs[idx_b, np.arange(idx_b.size)] = 1.0
    sol, error = _certified_cg(op, rhs, safety * gap)
    if error > _CT_TOL:
        raise NumericalError(f"certified resolvent error {error:.2e} > {_CT_TOL}")
    measured = float(np.linalg.norm(sol[idx_a, :], 2))
    d = set_distance(basis.positions[idx_a], basis.positions[idx_b])
    rate_base = 1.0 + safety * (delta_aniso - 1.0) / 8.0
    prefactor = 16.0 * delta_aniso / (safety * (delta_aniso - 1.0))
    bound = prefactor * rate_base ** (-d)
    if abs(bound - measured) <= error:
        raise NumericalError(f"bound {bound:.3e} within the certified error"
                             f" {error:.1e} of the measured norm")
    return measured, bound


# ---------------------------------------------------------------------------
# full-chain direct sum over magnon sectors

class ChainSpectrum:
    """Full finite-volume XXZ chain, the direct sum of the magnon sectors
    N = 0 .. 2L+1 (particle number is conserved).  Nothing is solved up
    front: a sector's full spectrum is solved dense on first request and
    kept, and a window block is cut from a kept spectrum or else comes from
    eigenpairs_in_window.  The tests check both against the brute force."""

    def __init__(self, half_length: int, anisotropy: float,
                 boundary_weight: float, w: np.ndarray):
        self.half_length = half_length
        self.sectors = {n: build_h_sector(n, half_length, anisotropy,
                                          boundary_weight, w)
                        for n in range(2 * half_length + 2)}
        self._spectra = {}
        self._windows = {}

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length + 1

    def spectrum(self, n: int):
        """All energies of sector n, ascending, and their eigenvectors as
        columns; solved once."""
        if n not in self._spectra:
            self._spectra[n] = _dense_eigh(self.sectors[n])
        return self._spectra[n]

    def window_blocks(self, window: EnergyWindow):
        """Window energies and, per sector with window states, the slice of
        those states in the energies and their eigenvectors as columns.
        Built once per window and shared by every caller, so the arrays are
        read-only."""
        if window not in self._windows:
            parts, blocks, start = [np.zeros(0)], {}, 0
            for n in range(self.n_sites + 1):
                if n in self._spectra:
                    energies, vectors = self._spectra[n]
                    keep = window.contains(energies)
                    energies, vectors = energies[keep], vectors[:, keep]
                else:
                    energies, vectors = eigenpairs_in_window(self.sectors[n], window)
                if energies.size:
                    # row-major, so the window products round the same way
                    # whatever layout eigh returns
                    vectors = np.ascontiguousarray(vectors)
                    vectors.flags.writeable = False
                    blocks[n] = slice(start, start + energies.size), vectors
                    parts.append(energies)
                    start += energies.size
            energies = np.concatenate(parts)
            energies.flags.writeable = False
            self._windows[window] = energies, blocks
        return self._windows[window]

    def site_mass_profile(self, window: EnergyWindow) -> np.ndarray:
        """Per-state, per-site masses ||N_j psi_E|| for window eigenstates,
        an array of shape (n_states, n_sites) (see window_site_masses)."""
        energies, blocks = self.window_blocks(window)
        return window_site_masses(
            [(self.sectors[n].basis, energies[rows], vecs)
             for n, (rows, vecs) in blocks.items()], self.n_sites)

    # -- windowed observables -------------------------------------------------

    def window_number_operator(self, window: EnergyWindow, site: int):
        """(energies, Psi* N_site Psi) over the window eigenbasis."""
        _check_site(site, self.half_length)
        energies, blocks = self.window_blocks(window)
        mat = np.zeros((energies.size, energies.size))
        for n, (rows, vecs) in blocks.items():
            sel = self.sectors[n].basis.occupancy[:, site + self.half_length]
            mat[rows, rows] = vecs[sel].T @ vecs[sel]
        return energies, mat

    def window_sigma_x(self, window: EnergyWindow, site: int):
        """(energies, Psi* sigma^x_site Psi) over the window eigenbasis, the
        both-sided window restriction P sigma^x P.  sigma^x = a^dagger + a
        adds or removes one particle at the site, so it couples adjacent
        sectors, vacuum included."""
        _check_site(site, self.half_length)
        bit = 1 << (site + self.half_length)
        energies, blocks = self.window_blocks(window)
        raising = np.zeros((energies.size, energies.size))
        for n, (src_rows, src_vecs) in blocks.items():
            if n + 1 not in blocks:
                continue
            dst_rows, dst_vecs = blocks[n + 1]
            src = self.sectors[n].basis.masks
            free = (src & bit) == 0
            lifted = np.zeros((len(dst_vecs), src_vecs.shape[1]))
            lifted[self.sectors[n + 1].basis.locate(src[free] | bit)] = src_vecs[free]
            raising[dst_rows, src_rows] = dst_vecs.T @ lifted
        return energies, raising + raising.T


def evolve_window_observable(energies: np.ndarray, mat: np.ndarray,
                             t: float) -> np.ndarray:
    """Heisenberg evolution of a window-restricted observable: conjugation
    by the diagonal phases exp(i E t) in the window eigenbasis."""
    phases = np.exp(1j * energies * t)
    return (phases[:, None] * mat) * phases.conj()[None, :]


def windowed_commutator_norms(energies, x_mat, y_mat, time_grid):
    """Per-t (operator norm, trace norm) of [tau_t(X), Y], with X and Y
    Hermitian matrices in the eigenbasis of the given energies (in the XXZ
    chain, the window eigenbasis).  The commutator of two Hermitian operators
    is anti-Hermitian, so its singular values are the |eigenvalues| of
    i [tau_t(X), Y]."""
    out = []
    for t in np.asarray(time_grid, dtype=float):
        xt = evolve_window_observable(energies, x_mat, t)
        lam = np.abs(np.linalg.eigvalsh(1j * (xt @ y_mat - y_mat @ xt)))
        out.append((float(lam.max(initial=0.0)), float(lam.sum())))
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
    product c c^dagger with (o, k) merged into the column index.  tau_t(X)
    conserves particle number, so this trace is block diagonal in the inner
    weight; a window state of sector n has inner weights max(0, n - n_outer)
    .. min(n, n_inner) only, so the blocks of every other weight never meet
    the window and are not built, which changes no number.  On the window,
    tau_t(X) is the window number operator conjugated by the window phases.
    """

    def __init__(self, chain: ChainSpectrum, site: int, window: EnergyWindow):
        _check_site(site, chain.half_length)
        require_dense(comb(chain.n_sites, chain.half_length))  # largest sector
        self.chain = chain
        self.site = site
        self.window = window
        # full spectra first, so the window blocks are cut from them
        self._spectra = {n: chain.spectrum(n) for n in chain.sectors}
        self.energies, self._number = chain.window_number_operator(window, site)
        self._blocks = chain.window_blocks(window)[1]
        self._tables = {}

    def _evolved(self, t: float):
        """Per sector the factor C of tau_t(X) = C C^dagger, and tau_t(X) on
        the window."""
        col = self.site + self.chain.half_length
        factors = {}
        for n, (energies, vectors) in self._spectra.items():
            # one real product V [cos(Et) W^T | sin(Et) W^T], W = V[occ, :]
            occupied = self.chain.sectors[n].basis.occupancy[:, col]
            wt, et = vectors[occupied].T, energies[:, None] * t
            re_im = vectors @ np.hstack([np.cos(et) * wt, np.sin(et) * wt])
            factors[n] = re_im[:, :wt.shape[1]] + 1j * re_im[:, wt.shape[1]:]
        return factors, evolve_window_observable(self.energies, self._number, t)

    def _trace_tables(self, ell: int):
        """Number of inner sites of S and, per sector, its configurations
        split by inner weight k: {k: members}, the members ordered by
        (outer, inner) pattern.  Only the weights the window reads are
        listed.  Built once per radius."""
        if ell not in self._tables:
            L = self.chain.half_length
            lo = max(-L, self.site - ell) + L
            n_inner = min(L, self.site + ell) + L + 1 - lo
            n_outer = self.chain.n_sites - n_inner
            read = {k for n in self._blocks
                    for k in range(max(0, n - n_outer), min(n, n_inner) + 1)}
            inner = (1 << n_inner) - 1
            tables = {}
            for n, h in self.chain.sectors.items():
                order = np.lexsort(((h.basis.masks >> lo) & inner,
                                    h.basis.masks & ~(inner << lo)))
                weight = h.basis.occupancy[order, lo:lo + n_inner].sum(axis=1)
                tables[n] = {k: order[weight == k] for k in np.unique(weight)
                             if k in read}
            self._tables[ell] = n_inner, tables
        return self._tables[ell]

    def _error(self, ell: int, factors: dict[int, np.ndarray],
               exact: np.ndarray) -> float:
        chain = self.chain
        n_inner, tables = self._trace_tables(ell)
        if n_inner == chain.n_sites:
            return 0.0

        # partial trace of tau_t(X) over the outer sites, one block per
        # inner weight k accumulated over every sector (sectors without
        # window states still contribute), indexed by the C(n_inner, k)
        # inner patterns of weight k in ascending order
        m_a = {}
        for n, classes in tables.items():
            for k, members in classes.items():
                na = comb(n_inner, k)
                c = factors[n][members].reshape(members.size // na, na, -1)
                c = c.swapaxes(0, 1).reshape(na, -1)
                m_a[k] = m_a.get(k, 0) + c @ c.conj().T

        # the approximant on the window: m_a acts on the inner index of
        # every class
        w = self.energies.size
        approx = np.zeros((w, w), dtype=complex)
        for n, (rows, vecs) in self._blocks.items():
            for k, members in tables[n].items():
                v = vecs[members]
                mv = m_a[k] @ v.reshape(-1, m_a[k].shape[0], v.shape[1])
                approx[rows, rows] += v.T @ mv.reshape(members.size, -1)
        approx /= 2.0 ** (chain.n_sites - n_inner)
        return float(np.linalg.norm(approx - exact, 2)) if w else 0.0

    def errors_profile(self, ells, time_grid) -> dict[int, float]:
        """Per truncation radius, the max over the time grid of the windowed
        error; the evolved operators are shared across radii."""
        out = {ell: 0.0 for ell in ells}
        for t in np.asarray(time_grid, dtype=float):
            evolved = self._evolved(t)
            for ell in ells:
                out[ell] = max(out[ell], self._error(ell, *evolved))
        return out
