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
N = 0 is the sector of one empty configuration with H_0 = 0.  As w >= 0,
min spec H_N^L >= 1 - 1/Delta + (sum of the N smallest w) (Weyl), so
field_admits proves a sector empty in a window before any solve.

The test suite validates everything here entrywise against the brute-force
2^n spin Hamiltonian.  Only V_w depends on the field; the rest is the sector
skeleton ``enumerate_basis(N, L)``, N = 0 .. 2L + 1 (positions, the CSR
pattern of H with its diagonal slots, degrees, wall touches, droplet
distances; occupancy on first read), built by numpy in lexicographic order
and indexed by that order's rank, cached and read-only; the memory rule
(errors) refuses an oversize skeleton from C(2L + 1, N) alone, and a dense
solve from its dimension, before anything is allocated.  A realization
fills values in on the pattern and does no sparse arithmetic; the dense
matrix (numpy) and the CSR (scipy.sparse, built on first read) are both
made from those values.

On configurations of two or more clusters the potential is at least
2 (1 - 1/Delta).  Windows below that are counted on the droplets (the split
of Elgart-Klein-Stolz, cut from the pattern once per sector) and solved by
Lanczos, and the Combes-Thomas resolvent by conjugate gradients, all
certified; one CG loop solves every right-hand side of a solve at once.
Full spectra and windows ending at 2 (1 - 1/Delta) are solved dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import acosh, comb, sinh, tanh, cosh

import numpy as np

from .errors import (ConfigurationError, NumericalError, certify, require_dense,
                     require_memory, require_simple)

_CT_TOL = 1e-12  # largest certified error of a Combes-Thomas block


# ---------------------------------------------------------------------------
# configuration space: the sector skeleton

@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Lexicographically ordered N-particle configurations on [-L, L] and
    their field-independent structure, one row per configuration.

    ``indptr`` and ``indices`` are the CSR pattern of every sector matrix:
    each row holds, in ascending order, the targets of a particle stepping
    left, the row itself (its slot in ``diagonal``) and the targets of a
    particle stepping right.  A realization only fills in values."""

    n_particles: int
    half_length: int
    positions: np.ndarray = field(repr=False)         # occupied sites s + L
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)          # slot of (i, i)
    graph_degree: np.ndarray = field(repr=False)
    cluster_degree: np.ndarray = field(repr=False)    # 2 x number of runs
    wall_touches: np.ndarray = field(repr=False)
    droplet_distance: np.ndarray = field(repr=False)  # 0 on droplets

    @property
    def dim(self) -> int:
        return len(self.positions)

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length + 1

    @property
    def sites(self) -> range:
        return range(-self.half_length, self.half_length + 1)

    @cached_property  # built on first read, then read-only like the rest
    def occupancy(self) -> np.ndarray:  # dim x sites, bool
        occupancy = np.zeros((self.dim, self.n_sites), dtype=bool)
        np.put_along_axis(occupancy, self.positions, True, axis=1)
        return _read_only(occupancy)

    def csr(self, data: np.ndarray):
        """The sector matrix with the values ``data`` on the pattern."""
        from scipy.sparse import csr_matrix
        return csr_matrix((data, self.indices, self.indptr),
                          shape=(self.dim, self.dim))

    def dense(self, data: np.ndarray) -> np.ndarray:
        """The same matrix as a dense array; the pattern holds no duplicate
        entry, so this is csr(data).toarray() bit for bit."""
        a = np.zeros((self.dim, self.dim))
        a[np.repeat(np.arange(self.dim), np.diff(self.indptr)), self.indices] = data
        return a

    def rank(self, configs) -> np.ndarray:
        """Indices of configurations given by their sites in [-L, L], in any
        order: dim - 1 - sum_i C(n - 1 - x_i, N - i), x_i + L ascending."""
        n, N, L = self.n_sites, self.n_particles, self.half_length
        try:
            p = np.sort(np.asarray(configs, dtype=np.int64).reshape(len(configs), N)) + L
        except ValueError:
            raise KeyError(f"configurations of {N} sites expected") from None
        # sorted sites lie in [0, n) and differ iff each step from -1 to n is >= 1
        bad = (np.diff(p, prepend=-1, append=n) < 1).any(axis=1)
        if bad.any():
            raise KeyError(f"configuration {(p[bad][0] - L).tolist()} outside the sector")
        i = np.arange(N)
        return self.dim - 1 - _binomials(n, N)[N - i, n - N + i - p].sum(axis=1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def _binomials(n_sites: int, n_particles: int) -> np.ndarray:
    """C(b + m - 1, b) at [b, m], b = 0 .. N, m = 0 .. n - N + 1 (0 at m = 0):
    every binomial the lexicographic rank reads, each at most C(n, N) = dim,
    so kept in the skeleton's index dtype (int32 while dim (2N + 1) fits)."""
    N = n_particles
    index = np.int32 if comb(n_sites, N) * (2 * N + 1) <= np.iinfo(np.int32).max else np.int64
    table = np.zeros((N + 1, n_sites - N + 2), dtype=index)
    table[0, 1:] = 1
    for b in range(1, N + 1):  # Pascal's rule
        table[b] = np.cumsum(table[b - 1])
    return _read_only(table)


@lru_cache(maxsize=32)
def enumerate_basis(n_particles: int, half_length: int) -> SectorBasis:
    """The N-particle skeleton on [-L, L]: lexicographic positions and the
    hop targets of the pattern, both built column by column, the targets
    from the rank; a ConfigurationError from C(2L + 1, N) alone when the
    memory rule refuses the skeleton."""
    L = half_length
    n_sites = 2 * L + 1
    if not 0 <= n_particles <= n_sites:
        raise ConfigurationError(
            f"particle number {n_particles} out of range for [-{L}, {L}]")
    dim = comb(n_sites, n_particles)
    # peak bytes per configuration: positions (8 N), occupancy when read
    # (n_sites), a few words (128), and the pattern's fill: 2N + 1 int32
    # targets, free flags and indices
    require_memory(dim * (128 + n_sites + 32 * n_particles),
                   f"sector of {dim} configurations")
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
    # the pattern in CSR row order: particle s stepping left at column s, the
    # row itself at N, particle s stepping right at 2N - s, kept where `free`.
    # With j = N - 1 - s, x_s -> x_s + 1 adds C(n - 2 - x_s, j) to the rank
    # and x_s -> x_s - 1 subtracts C(n - 1 - x_s, j); a blocked step reads
    # some entry of the table and is dropped by `free`
    n_cols = 2 * n_particles + 1
    binomials = _binomials(n_sites, n_particles)
    index = binomials.dtype
    rank = np.arange(dim, dtype=index)
    targets = np.empty((dim, n_cols), dtype=index)
    free = np.ones((dim, n_cols), dtype=bool)
    targets[:, n_particles] = rank
    # per row: left steps, all steps, runs (particle 0 and every particle
    # with a free site left of it start one), and the distance to the nearest
    # droplet: x_s - s is nondecreasing, constant exactly on droplets, and its
    # median m starts the nearest one, so the distance is sum |x_s - s - m|
    n_left, degree, distance = (np.zeros(dim, dtype=np.int64) for _ in range(3))
    runs = np.full(dim, min(n_particles, 1))
    median = (n_particles - 1) // 2
    for s in range(n_particles):
        x, j = pos[:, s], n_particles - 1 - s
        free[:, s] = left = x - (pos[:, s - 1] if s else -1) > 1
        free[:, n_cols - 1 - s] = right = (pos[:, s + 1] if j else n_sites) - x > 1
        n_left += left
        degree += left
        degree += right
        if s:
            runs += left
        k = n_sites - 1 - j - x
        targets[:, s] = rank - binomials[j, k + 1]
        targets[:, n_cols - 1 - s] = rank + binomials[j, k]
        distance += np.abs(x - s - pos[:, median] + median)
    indptr = np.concatenate([[0], np.cumsum(degree + 1)]).astype(index)
    arrays = dict(
        positions=pos, indptr=indptr, indices=targets[free],
        diagonal=indptr[:-1] + n_left, graph_degree=degree, cluster_degree=2 * runs,
        wall_touches=(pos[:, :1] == 0).sum(axis=1) + (pos[:, -1:] == n_sites - 1).sum(axis=1),
        droplet_distance=distance)
    return SectorBasis(n_particles, L, **{k: _read_only(a) for k, a in arrays.items()})


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

@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    basis: SectorBasis
    anisotropy: float
    # values on the basis's pattern (build_h_sector); the dense solves, the
    # window count and ct_check read them slot by slot
    data: np.ndarray = field(repr=False)
    field_floor: float = -np.inf  # min of V_w over the configurations; -inf bounds nothing

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def matrix(self):
        """The CSR matrix, built on first read; H_0 = 0 stores no entry."""
        from scipy.sparse import csr_matrix
        return self.basis.csr(self.data) if self.basis.n_particles else csr_matrix((1, 1))


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
    potential = w[basis.positions].sum(axis=1)
    data = np.full(basis.indices.size, -1.0 / (2.0 * anisotropy))
    data[basis.diagonal] = (basis.graph_degree / (2.0 * anisotropy)
                            + cluster_weight * basis.cluster_degree
                            + potential
                            + (boundary_weight - cluster_weight) * basis.wall_touches)
    return SectorHamiltonian(basis, anisotropy, data, float(potential.min()))


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
    # (cosh -+ 1) / sinh is 1.0 in double from 40 on, and cosh overflows past 710
    nr = min(n_particles * rho, 40.0)
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


def field_admits(h: SectorHamiltonian, window: EnergyWindow) -> bool:
    """False only if min spec H_N >= 1 - 1/Delta + floor (N >= 1; H_0 = 0) lies
    above window.upper by more than a margin far above any solver's error."""
    bound = (1.0 - 1.0 / h.anisotropy if h.basis.n_particles else 0.0) + h.field_floor
    return bound <= window.upper + 1e-9 * max(1.0, abs(window.upper))


# ---------------------------------------------------------------------------
# spectra and correlators

def _dense_eigh(h: SectorHamiltonian):
    require_dense(h.dim)
    return np.linalg.eigh(h.basis.dense(h.data))


def _cg(op, rhs: np.ndarray):
    """Conjugate gradients on op x = b for each row b of rhs, with one sparse
    product per step over the rows still running.  Each row keeps scipy's
    cg arithmetic (x0 = 0, its own alpha and beta by np.dot on contiguous
    rows, stop at |r| < eps |b|, at most 10 dim steps), so its solution is
    scipy's bit for bit.  Returns the solutions and how many rows failed."""
    def dots(a, b):  # np.dot per row: matmul of 1 x n by n x 1 is that dot
        return np.matmul(a[:, None, :], b[:, :, None]).ravel()

    x = np.zeros_like(rhs)
    norms = np.sqrt(dots(rhs, rhs))
    run = np.flatnonzero(norms > 0)  # b = 0 is solved by x = 0
    tol, xr, r = np.finfo(float).eps * norms[run], x[run], rhs[run]
    for step in range(10 * rhs.shape[1]):
        rho = dots(r, r)
        done = np.sqrt(rho) < tol
        if done.any():
            x[run[done]] = xr[done]
            run, tol, xr, r, rho = (a[~done] for a in (run, tol, xr, r, rho))
            if step:
                p, rho_prev = p[~done], rho_prev[~done]
        if not run.size:
            break
        if step:
            p *= (rho / rho_prev)[:, None]
            p += r
        else:
            p = r.copy()
        q = np.ascontiguousarray((op @ p.T).T)
        alpha = rho / dots(p, q)
        xr += alpha[:, None] * p
        r -= alpha[:, None] * q
        rho_prev = rho
    x[run] = xr
    return x, run.size


def _certified_cg(op, rhs: np.ndarray, floor: float):
    """_cg on each row of rhs, and the bound |rhs - X op|_F / floor on
    |X - rhs op^-1|_2 if min spec op >= floor > 0."""
    sol, failed = _cg(op, rhs)
    certify("right-hand sides on which conjugate gradients did not converge", failed, 1)
    return sol, float(np.linalg.norm(rhs - (op @ sol.T).T)) / floor


@lru_cache(maxsize=32)
def _droplet_split(n_particles: int, half_length: int):
    """A_TT, A_ST and A_SS as parts of the sector pattern, for the droplets S
    and the rest T: per block the slots it takes its values from, its CSR
    indices and row pointers, and its shape."""
    basis = enumerate_basis(n_particles, half_length)
    t = basis.droplet_distance > 0
    local = (np.where(t, np.cumsum(t), np.cumsum(~t)) - 1).astype(basis.indices.dtype)
    rows = np.repeat(np.arange(basis.dim), np.diff(basis.indptr))
    blocks = []
    for r, c in ((t, t), (~t, t), (~t, ~t)):
        slots = np.flatnonzero(r[rows] & c[basis.indices])
        counts = np.bincount(rows[slots], minlength=basis.dim)[r]
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(local.dtype)
        arrays = (slots, local[basis.indices[slots]], indptr)
        blocks.append((*map(_read_only, arrays), (int(r.sum()), int(c.sum()))))
    return blocks


def eigenpairs_in_window(h: SectorHamiltonian, window: EnergyWindow):
    """The window energies of the sector, ascending, and their eigenvectors
    as the columns of a matrix.

    A sector that field_admits rejects comes back empty with no solve (a
    dense one after the dense memory rule, which reads only its size).
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
    dense = floor <= 0 or t.sum() <= 1
    if dense:  # the dense rule binds whatever the field, like every size limit
        require_dense(h.dim)
    if not field_admits(h, window):
        return np.zeros(0), np.zeros((h.dim, 0))
    if dense:
        vals, vecs = _dense_eigh(h)
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import ArpackError, eigsh
        a = h.data.copy()
        a[h.basis.diagonal] -= upper
        a_tt, a_st, a_ss = (
            csr_matrix((a[slots], indices, indptr), shape=shape)
            for slots, indices, indptr, shape
            in _droplet_split(h.basis.n_particles, h.basis.half_length))
        x, error = _certified_cg(a_tt, a_st.toarray(), floor)
        schur = a_ss.toarray() - a_st @ x.T
        c = np.linalg.eigvalsh(0.5 * (schur + schur.T))
        # each eigenvalue of C is off by at most |A_ST|_F error, and every
        # entry of A_ST is a hop -1/(2 Delta)
        bound = np.sqrt(a_st.nnz) / (2.0 * h.anisotropy) * error
        certify("window count error", bound, np.abs(c).min())
        k = int((c < 0).sum())
        if k == 0:
            return np.zeros(0), np.zeros((h.dim, 0))
        # fixed pseudo-random start: bit-identical reruns, no symmetry class missed
        v0 = np.random.default_rng(0).standard_normal(h.dim)
        try:
            vals, vecs = eigsh(h.matrix, k=k + 1, which="SA", v0=v0)
        except ArpackError as exc:
            raise NumericalError(f"windowed eigensolver failed: {exc}")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        certify("Lanczos count miss", abs((vals <= upper).sum() - k), 1)
        resid = np.linalg.norm(h.matrix @ vecs - vecs * vals, axis=0)[:k]
        certify("Lanczos resid - margin", np.max(resid - (upper - vals[:k])), 0.0)
    keep = window.contains(vals)
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size:
        certify("window ortho", np.abs(vecs.T @ vecs - np.eye(vals.size)).max(), 1e-9)
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
    require_simple(np.sort(np.concatenate([np.zeros(0)] + [e for _, e, _ in blocks])),
                   "window spectrum")
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
    converge, that error is not below _CT_TOL, or the bound lies within it.
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
    if not basis.n_particles:
        raise ConfigurationError("Combes-Thomas decay needs at least one particle")
    idx_a, idx_b = np.sort(basis.rank(set_a)), np.sort(basis.rank(set_b))
    data = h.data.copy()
    data[basis.diagonal] += np.where(basis.droplet_distance == 0, gap, 0.0) - energy
    rhs = np.zeros((idx_b.size, h.dim))
    rhs[np.arange(idx_b.size), idx_b] = 1.0
    sol, error = _certified_cg(basis.csr(data), rhs, safety * gap)
    certify("certified resolvent error", error, _CT_TOL)
    measured = float(np.linalg.norm(sol[:, idx_a].T, 2))
    d = set_distance(basis.positions[idx_a], basis.positions[idx_b])
    rate_base = 1.0 + safety * (delta_aniso - 1.0) / 8.0
    prefactor = 16.0 * delta_aniso / (safety * (delta_aniso - 1.0))
    bound = prefactor * rate_base ** (-d)
    certify("certified resolvent error vs |bound - measured|", error, abs(bound - measured))
    return measured, bound


# ---------------------------------------------------------------------------
# full-chain direct sum over magnon sectors

class ChainSpectrum:
    """Full finite-volume XXZ chain, the direct sum of the magnon sectors
    N = 0 .. 2L+1 (particle number is conserved).  Nothing is solved up
    front: a full spectrum is solved dense on first request and kept, and a
    window block is cut from it or comes from eigenpairs_in_window, which
    solves no sector field_admits rejects.  Tests check both by brute force."""

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
        energies, blocks = self.window_blocks(window)
        raising = np.zeros((energies.size, energies.size))
        for n, (src_rows, src_vecs) in blocks.items():
            if n + 1 not in blocks:
                continue
            dst_rows, dst_vecs = blocks[n + 1]
            src = self.sectors[n].basis
            free = ~src.occupancy[:, site + self.half_length]
            sites = np.c_[src.positions[free] - self.half_length, np.full(free.sum(), site)]
            lifted = np.zeros((len(dst_vecs), src_vecs.shape[1]))
            lifted[self.sectors[n + 1].basis.rank(sites)] = src_vecs[free]
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

@lru_cache(maxsize=32)
def _trace_classes(half_length: int, site: int, ell: int):
    """Number of inner sites of S = [site - ell, site + ell] and, per
    sector n, its configurations split by inner weight k: {k: members}, the
    members ordered by (outer, inner) pattern.  Every weight k from
    max(0, n - n_outer) to min(n, n_inner) occurs."""
    L = half_length
    lo = max(-L, site - ell) + L
    n_inner = min(L, site + ell) + L + 1 - lo
    n_outer = 2 * L + 1 - n_inner
    # sort keys, least significant first: inner sites, then outer ones
    keys = np.r_[lo:lo + n_inner, :lo, lo + n_inner:2 * L + 1]
    tables = {}
    for n in range(2 * L + 2):
        basis = enumerate_basis(n, L)
        order = np.lexsort(basis.occupancy[:, keys].T)
        weight = basis.occupancy[order, lo:lo + n_inner].sum(axis=1)
        tables[n] = {k: _read_only(order[weight == k])
                     for k in range(max(0, n - n_outer), min(n, n_inner) + 1)}
    return n_inner, tables


class QuasiLocalityProbe:
    """Windowed error of the conditional-expectation approximant of
    tau_t(N_site), truncated to sites within distance ell of the site.

    The approximant X_ell(t) is the normalized partial trace of tau_t(X)
    over the complement of S = [site - ell, site + ell], tensored with the
    identity.  This is one admissible witness of quasi-locality; measured
    rates are specific to it.

    X = N_site is a projector, so in each sector tau_t(X) = C C^dagger with
    C = V e^{iEt} V[occ, :]^T, the columns of e^{iHt} at the configurations
    that occupy the site, not a dim x dim evolved operator: one real product
    per sector and time, added at once to the partial traces of every radius
    and released before the next sector's.  A class
    of configurations with fixed inner weight is ordered by (outer pattern
    o, inner pattern a), so C on it is c[o, a, k], and the partial trace
    over the outer sites, sum_{o, k} c[o, a, k] conj(c[o, b, k]), is one
    product c c^dagger with (o, k) merged into the column index.  tau_t(X)
    conserves particle number, so this trace is block diagonal in the inner
    weight; a window state of sector n has inner weights max(0, n - n_outer)
    .. min(n, n_inner) only, so the blocks of every other weight never meet
    the window and are not built, which changes no number.  On the window,
    tau_t(X) is the window number operator conjugated by the window phases.
    Only the sectors field_admits are solved up front and kept, and the window
    is cut from them; errors_profile solves each other one dense, folds it into
    every time's partial traces and frees it, or solves none for an empty window.
    """

    def __init__(self, chain: ChainSpectrum, site: int, window: EnergyWindow):
        _check_site(site, chain.half_length)
        # the kept sectors' eigenvectors, sum d_N^2 doubles; on top come the
        # largest sector's dense solve (5 dim^2 doubles) and evolution (a real
        # product and the complex C, 2 dim C(n - 1, L) doubles each)
        kept = [n for n, h in chain.sectors.items() if field_admits(h, window)]
        n, dim = chain.n_sites, comb(chain.n_sites, chain.half_length)
        require_memory(8 * (sum(chain.sectors[k].dim ** 2 for k in kept) + 5 * dim ** 2
                            + 4 * dim * comb(n - 1, n // 2)),
                       f"the quasi-locality probe of the {n}-site chain")
        self.chain, self.site = chain, site
        # the kept spectra first, so the window blocks are cut from them
        self._spectra = {k: chain.spectrum(k) for k in kept}
        self.energies, self._number = chain.window_number_operator(window, site)
        self._blocks = chain.window_blocks(window)[1]

    def errors_profile(self, ells, time_grid) -> dict[int, float]:
        """Per truncation radius, the max over the time grid of the windowed error."""
        chain, w = self.chain, self.energies.size
        col = self.site + chain.half_length
        out = {ell: 0.0 for ell in ells}
        # radii whose S is not the whole chain (there the error is 0): their
        # classes and the inner weights k the window sectors read
        cuts = {}
        for ell in out:
            n_inner, tables = _trace_classes(chain.half_length, self.site, ell)
            if n_inner < chain.n_sites:
                cuts[ell] = n_inner, tables, {k for n in self._blocks for k in tables[n]}
        times = np.asarray(time_grid, dtype=float)
        if not (cuts and w and times.size):
            return out
        # per time, radius and inner weight k read, the partial trace of tau_t(X)
        # over the outer sites (C(n_inner, k)^2 complex numbers), summed over all
        # sectors in ascending order, on the ascending inner patterns of weight k
        require_memory(16 * times.size * sum(comb(m, k) ** 2 for m, _, read in cuts.values()
                                             for k in read),
                       f"the partial traces at {times.size} times")
        traces = [{ell: {} for ell in cuts} for _ in times]
        for n, h in chain.sectors.items():
            energies, vectors = self._spectra.get(n) or _dense_eigh(h)
            wt = vectors[h.basis.occupancy[:, col]].T  # W^T, W = V[occ, :]
            for t, m_a in zip(times, traces):
                # one real product V [cos(Et) W^T | sin(Et) W^T]
                et = energies[:, None] * t
                re_im = vectors @ np.hstack([np.cos(et) * wt, np.sin(et) * wt])
                c = np.empty(wt.shape, dtype=complex)
                c.real, c.imag = np.hsplit(re_im, 2)
                del re_im
                for ell, (n_inner, tables, read) in cuts.items():
                    for k, members in tables[n].items():
                        if k in read:
                            na = comb(n_inner, k)
                            ck = c[members].reshape(members.size // na, na, -1)
                            ck = ck.swapaxes(0, 1).reshape(na, -1)
                            m_a[ell][k] = m_a[ell].get(k, 0) + ck @ ck.conj().T
                c = ck = None  # released before the next time's factor
            energies = vectors = wt = None  # released before the next solve

        for t, m_a in zip(times, traces):
            # the approximant on the window: m_a acts on the inner index of
            # every class
            exact = evolve_window_observable(self.energies, self._number, t)
            for ell, (n_inner, tables, _) in cuts.items():
                approx = np.zeros((w, w), dtype=complex)
                for n, (rows, vecs) in self._blocks.items():
                    for k, members in tables[n].items():
                        v, m = vecs[members], m_a[ell][k]
                        mv = m @ v.reshape(-1, m.shape[0], v.shape[1])
                        approx[rows, rows] += v.T @ mv.reshape(members.size, -1)
                approx /= 2.0 ** (chain.n_sites - n_inner)
                out[ell] = max(out[ell], float(np.linalg.norm(approx - exact, 2)))
        return out
