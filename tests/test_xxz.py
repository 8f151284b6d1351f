import re
import tracemalloc
from collections import deque
from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from mblchain import errors, oracle, xxz
from mblchain.disorder import (DisorderSpec, SeedPlan, constant_field,
                               sample_field)
from mblchain.errors import ConfigurationError, DegeneracyError, NumericalError

PLAN = SeedPlan(16180)
UNIFORM = DisorderSpec()


# naive per-configuration definitions, the references for the sector skeleton

def configurations(basis) -> list:
    """The configurations of a sector as tuples of sites in [-L, L]."""
    return [tuple(int(p) - basis.half_length for p in row) for row in basis.positions]


def row_index(basis) -> dict:
    """Row of each configuration, from itertools rather than the package's
    rank: combinations of the ascending sites come in lexicographic order."""
    return {x: i for i, x in enumerate(combinations(basis.sites, basis.n_particles))}


def component_degree(x) -> int:
    """Twice the number of maximal runs of consecutive sites (box independent)."""
    runs = sum(1 for i, s in enumerate(x) if i == 0 or s - x[i - 1] > 1)
    return 2 * runs


def neighbors(x, basis) -> list:
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


def hop_pairs(basis) -> set:
    """The (row, row) pairs of single-particle hops, from the naive neighbor
    relation and the test-local row index."""
    index = row_index(basis)
    return {(i, index[y]) for x, i in index.items() for y in neighbors(x, basis)}


def naive_adjacency(basis) -> sp.csr_matrix:
    """The unit hop adjacency, assembled by scipy from the hop pairs."""
    i, j = np.array(sorted(hop_pairs(basis)), dtype=np.int64).reshape(-1, 2).T
    return sp.coo_matrix((np.ones(i.size), (i, j)), shape=(basis.dim,) * 2).tocsr()


def set_distance_bfs(a, b, basis) -> int:
    """d_N(A, B) via breadth-first search on the configuration graph (hop
    distance equals l1 distance on this space)."""
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


def test_basis_enumeration():
    basis = xxz.enumerate_basis(2, 2)
    assert basis.dim == comb(5, 2)
    configs = configurations(basis)
    assert configs[0] == (-2, -1)
    assert configs[-1] == (1, 2)
    assert row_index(basis)[(-1, 2)] == configs.index((-1, 2))
    assert basis.rank([(2, -1)]).tolist() == [configs.index((-1, 2))]
    with pytest.raises(ConfigurationError):
        xxz.enumerate_basis(6, 2)
    with pytest.raises(ConfigurationError):
        xxz.enumerate_basis(-1, 2)


def test_component_degree():
    assert component_degree((0, 1, 2)) == 2
    assert component_degree((0, 2, 4)) == 6
    assert component_degree((-3, -2, 1, 2, 5)) == 6
    assert component_degree(()) == 0


def test_neighbors_hard_core_and_walls():
    basis = xxz.enumerate_basis(2, 2)
    nbrs = neighbors((-2, -1), basis)
    # left particle blocked by wall and by the right particle;
    # right particle can only move right
    assert set(nbrs) == {(-2, 0)}
    assert set(nbrs) <= set(row_index(basis))  # all in the sector


def test_droplet_geometry_distances():
    basis = xxz.enumerate_basis(3, 3)
    for x in basis.positions[basis.droplet_distance == 0]:
        assert all(b - a == 1 for a, b in zip(x, x[1:]))
    index = row_index(basis)
    i, j = index[(-3, 0, 3)], index[(-1, 0, 1)]
    # nearest droplet around the middle particle: (-1, 0, 1)
    assert basis.droplet_distance[i] == 4
    assert basis.droplet_distance[j] == 0


@pytest.mark.parametrize("n_particles, half_length",
                         [(n, L) for L in range(6) for n in range(2 * L + 2)]
                         + [(4, 12), (8, 8), (2, 40)])
def test_sector_skeleton_matches_naive_definitions(n_particles, half_length):
    basis = xxz.enumerate_basis(n_particles, half_length)
    L = half_length
    configs = configurations(basis)
    dim = comb(2 * L + 1, n_particles)
    assert np.array_equal(basis.positions, np.array(
        list(combinations(range(2 * L + 1), n_particles))).reshape(dim, n_particles))
    # the pattern is the hop adjacency plus the diagonal
    reference = (naive_adjacency(basis) + sp.identity(dim)).tocsr()
    for name in ("indptr", "indices"):
        got, want = getattr(basis, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    rows = np.repeat(np.arange(dim), np.diff(basis.indptr))
    assert np.array_equal(basis.indices[basis.diagonal], np.arange(dim))
    assert np.array_equal(rows[basis.diagonal], np.arange(dim))
    edges = hop_pairs(basis)
    hop = rows != basis.indices
    assert set(zip(rows[hop].tolist(), basis.indices[hop].tolist())) == edges
    assert hop.sum() == len(edges) and hop.size == len(edges) + dim
    # the empty configuration is its own droplet
    droplets = [x for x in configs if not x or x[-1] - x[0] == n_particles - 1]
    for i, x in enumerate(configs):
        assert basis.graph_degree[i] == len(neighbors(x, basis))
        assert basis.cluster_degree[i] == component_degree(x)
        assert basis.wall_touches[i] == (-L in x) + (L in x)
        assert basis.droplet_distance[i] == xxz.set_distance([x], droplets)
        assert basis.occupancy[i].tolist() == [s in x for s in basis.sites]
    # rank reads sites in any order, as tuples or as an array
    assert basis.rank(configs).tolist() == list(range(basis.dim))
    assert basis.rank([x[::-1] for x in configs]).tolist() == list(range(basis.dim))
    assert np.array_equal(basis.rank(basis.positions - L), np.arange(dim))
    # the first case is the vacuum and the last fills the chain: one
    # configuration, no hops
    if n_particles in (0, 2 * L + 1):
        assert basis.dim == 1 and basis.indices.tolist() == [0]
    # occupancy is built on first read
    arrays = (basis.positions, basis.occupancy,
              basis.indptr, basis.indices, basis.diagonal,
              basis.graph_degree, basis.cluster_degree,
              basis.wall_touches, basis.droplet_distance)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        basis.occupancy[0, 0] = True
    assert xxz.enumerate_basis(n_particles, half_length) is basis


def test_rank_beyond_int64():
    # 81 sites, more than the bits of an int64: the rank needs no bit per site
    basis = xxz.enumerate_basis(2, 40)
    configs = configurations(basis)
    i, j = configs.index((-40, 40)), configs.index((-40, 23))
    assert basis.rank([(-40, 40), (23, -40)]).tolist() == [i, j]
    with pytest.raises(KeyError):
        basis.rank([(-40,)])


def test_skeleton_cap_refuses_before_allocating(monkeypatch, memory_budget):
    calls, zeros = [], np.zeros
    monkeypatch.setattr(np, "zeros", lambda *a, **k: calls.append(a) or zeros(*a, **k))
    # C(81, 20) ~ 4.7e18 configurations: refused from the count alone
    with pytest.raises(ConfigurationError, match="above half the physical memory"):
        xxz.enumerate_basis(20, 40)
    # a lower budget refuses a small sector (uncached builds)
    memory_budget(10_000)
    with pytest.raises(ConfigurationError, match="sector of 84 configurations"):
        xxz.enumerate_basis.__wrapped__(3, 4)
    assert not calls
    assert xxz.enumerate_basis.__wrapped__(1, 4).dim == 9 and calls


def test_ct_path_reads_no_bitmasks_or_occupancy():
    # the occupancy table a Combes-Thomas check never needs is built on
    # first read
    xxz.enumerate_basis.cache_clear()
    w = sample_field(UNIFORM, 9, PLAN, 7)
    h = xxz.build_h_sector(2, 4, 2.0, 0.25, w)
    xxz.ct_check(h, 0.5, 0.5, [(-4, -3)], [(2, 4)])
    assert "occupancy" not in vars(h.basis)
    # rank finds configurations by their sites, in any order
    basis = h.basis
    assert basis.rank([(4, -2)]).tolist() == [row_index(basis)[(-2, 4)]]
    for bad in ((0,), (0, 0), (0, 5), (-5, 0), (0, 1, 2)):
        with pytest.raises(KeyError):
            basis.rank([bad])


def test_set_distances_agree():
    basis = xxz.enumerate_basis(2, 3)
    a = [(-3, -2), (-3, 0)]
    b = [(2, 3), (1, 3)]
    direct = xxz.set_distance(a, b)
    bfs = set_distance_bfs(a, b, basis)
    assert direct == bfs
    assert xxz.set_distance(a, a) == 0


def test_sector_diagonal_hand_value():
    # single particle at the left wall: hop degree 1, one cluster,
    # no field, wall touch
    w = constant_field(0.0, 3)
    h = xxz.build_h_sector(1, 1, 2.0, 0.25, w)
    index = row_index(h.basis)
    i, j = index[(-1,)], index[(0,)]
    # hop term 1/(2*2), cluster term (1/2)(1 - 1/2)*2, wall weight 0
    assert h.matrix[i, i] == pytest.approx(0.75)
    # interior site: hop degree 2, no wall touch
    assert h.matrix[j, j] == pytest.approx(0.5 + 0.5)
    assert h.matrix[i, j] == pytest.approx(-0.25)


def coo_assembly(n_particles, half_length, anisotropy, boundary_weight, w):
    """Reference sector matrix: the hop pairs (i, j), i < j, of the naive
    neighbor relation as an upper-triangle COO matrix, plus its transpose
    and the diagonal, converted to CSR."""
    basis = xxz.enumerate_basis(n_particles, half_length)
    pairs = sorted((i, j) for i, j in hop_pairs(basis) if j > i)
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    hop = np.full(i.size, -1.0 / (2.0 * anisotropy))
    upper = sp.coo_matrix((hop, (i, j)), shape=(basis.dim, basis.dim))
    cluster_weight = 0.5 * (1.0 - 1.0 / anisotropy)
    diag = (basis.graph_degree / (2.0 * anisotropy)
            + cluster_weight * basis.cluster_degree
            + w[basis.positions].sum(axis=1)
            + (boundary_weight - cluster_weight) * basis.wall_touches)
    return (upper + upper.T + sp.diags(diag)).tocsr()


@pytest.mark.parametrize("n_particles, half_length",
                         [(n, L) for L in (1, 2, 3) for n in range(2 * L + 2)]
                         + [(3, 12), (4, 12)])
def test_sector_matrix_bit_identical_to_coo_assembly(n_particles, half_length):
    w = sample_field(UNIFORM, 2 * half_length + 1, PLAN, 11)
    for delta, beta in ((2.0, 0.25), (3.0, 0.7)):
        fast = xxz.build_h_sector(n_particles, half_length, delta, beta, w).matrix
        slow = coo_assembly(n_particles, half_length, delta, beta, w)
        assert isinstance(fast, sp.csr_matrix)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("half_length", [1, 2, 3, 4])
def test_dense_fill_bit_identical_to_csr(half_length):
    # every sector, the vacuum included: numpy's fill of the pattern values
    # is the CSR's dense form, bit for bit
    w = sample_field(UNIFORM, 2 * half_length + 1, PLAN, 13)
    for n_particles in range(2 * half_length + 2):
        h = xxz.build_h_sector(n_particles, half_length, 3.0, 0.7, w)
        dense, want = h.basis.dense(h.data), h.matrix.toarray()
        assert dense.dtype == want.dtype and dense.tobytes() == want.tobytes()


def test_sector_build_reuses_the_skeleton(monkeypatch):
    w = sample_field(UNIFORM, 7, PLAN, 12)
    xxz.enumerate_basis(3, 3)  # the skeleton, cached

    def no_coo(*args, **kwargs):
        raise AssertionError("hop matrix assembled per realization")

    monkeypatch.setattr(sp, "coo_matrix", no_coo)
    h = xxz.build_h_sector(3, 3, 2.0, 0.5, w)
    assert h.basis is xxz.enumerate_basis(3, 3)


def test_sector_positivity_and_gap():
    # every term nonnegative: spectrum >= 1 - 1/Delta for any valid input
    for delta in (2.0, 5.0):
        w = sample_field(UNIFORM, 9, PLAN, 1)
        h = xxz.build_h_sector(3, 4, delta, xxz.min_boundary_weight(delta), w)
        vals = np.linalg.eigvalsh(h.matrix.toarray())
        assert vals.min() >= 1.0 - 1.0 / delta - 1e-10


def test_build_validation():
    w = constant_field(0.0, 5)
    with pytest.raises(ConfigurationError):
        xxz.build_h_sector(1, 2, 0.9, 0.5, w)
    with pytest.raises(ConfigurationError):
        xxz.build_h_sector(1, 2, 2.0, 0.1, w)
    with pytest.raises(ConfigurationError):
        xxz.build_h_sector(1, 3, 2.0, 0.5, w)  # field length mismatch
    bad = constant_field(-1.0, 5)
    with pytest.raises(ConfigurationError):
        xxz.build_h_sector(1, 2, 2.0, 0.5, bad)


def test_droplet_band_closed_forms():
    for delta in (2.0, 3.0, 6.0):
        b1 = xxz.droplet_band(1, delta)
        assert abs(b1.lower - (1 - 1 / delta)) < 1e-12
        assert abs(b1.upper - (1 + 1 / delta)) < 1e-12
        b2 = xxz.droplet_band(2, delta)
        assert abs(b2.lower - (1 - 1 / delta ** 2)) < 1e-12
        assert abs(b2.upper - 1.0) < 1e-12
        b3 = xxz.droplet_band(3, delta)
        assert abs(b3.lower - (1 - 1 / (2 * delta ** 2 - delta))) < 1e-12
        assert abs(b3.upper - (1 - 1 / (2 * delta ** 2 + delta))) < 1e-12
    # n rho past cosh's overflow at 710: finite, nested bands around the
    # limit sqrt(1 - 1/Delta^2) (equal to it up to rounding)
    for delta, n_max in ((2.0, 540), (1e6, 49), (1e300, 2)):
        limit = np.sqrt(1 - delta ** -2.0)
        bands = [xxz.droplet_band(n, delta) for n in range(1, n_max + 1)]
        for outer, band in zip(bands, bands[1:]):
            assert outer.lower <= band.lower and band.upper <= outer.upper
        for band in bands:
            assert np.isfinite([band.lower, band.upper]).all()
            assert band.lower <= limit + 1e-15 and limit <= band.upper + 1e-15


def test_droplet_band_nesting_and_limit():
    delta = 2.5
    limit = np.sqrt(1 - 1 / delta ** 2)
    prev = xxz.droplet_band(1, delta)
    for n in range(2, 201):
        band = xxz.droplet_band(n, delta)
        assert band.lower >= prev.lower - 1e-14
        assert band.upper <= prev.upper + 1e-14
        prev = band
    assert abs(prev.lower - limit) < 1e-10
    assert abs(prev.upper - limit) < 1e-10


def test_spectral_windows():
    delta = 2.0
    w_i = xxz.spectral_window(delta, kind="I")
    assert (w_i.lower, w_i.upper) == (0.5, 1.0)
    w_d = xxz.spectral_window(delta, 0.5, "I_delta")
    assert (w_d.lower, w_d.upper) == (0.5, 0.75)
    w_0 = xxz.spectral_window(delta, 0.5, "I_0_delta")
    assert (w_0.lower, w_0.upper) == (0.0, 0.75)
    with pytest.raises(ConfigurationError):
        xxz.spectral_window(delta, kind="I_delta")  # needs safety > 0
    with pytest.raises(ConfigurationError):
        xxz.spectral_window(delta, 0.5, "bogus")


def test_free_sector_spectrum_confined_to_band():
    # no disorder: window spectrum must sit inside the closed-form band,
    # up to a finite-size margin shrinking with L
    delta, n = 2.0, 2
    margins = {}
    for L in (10, 25, 40):
        w = constant_field(0.0, 2 * L + 1)
        h = xxz.build_h_sector(n, L, delta, xxz.min_boundary_weight(delta), w)
        vals = np.linalg.eigvalsh(h.matrix.toarray())
        band = xxz.droplet_band(n, delta)
        window = xxz.spectral_window(delta, kind="I")
        inside = vals[window.contains(vals)]
        margins[L] = max(band.lower - inside.min(), 0.0)
        assert inside.max() <= band.upper + 1e-9
    assert margins[40] <= margins[10] + 1e-12


def test_eigenpairs_in_window_orthonormal():
    delta = 3.0
    # weak field so the two-particle droplet states stay inside the window
    w = sample_field(DisorderSpec(coupling=0.05), 13, PLAN, 2)
    h = xxz.build_h_sector(2, 6, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    energies, vectors = xxz.eigenpairs_in_window(h, window)
    assert energies.size
    for e, psi in zip(energies, vectors.T):
        assert window.contains([e])[0]
        assert abs(np.linalg.norm(psi) - 1) < 1e-9
        assert np.linalg.norm(h.matrix @ psi - e * psi) < 1e-8


@pytest.mark.parametrize("offset", [-1e-8, 1e-8])
def test_window_certificate_at_the_upper_edge(monkeypatch, offset):
    # a uniform field shift puts the sector's lowest eigenvalue 1e-8 below
    # (a window state) or above (a window certified empty) the upper edge
    delta, n, L = 3.0, 2, 3
    beta = xxz.min_boundary_weight(delta)
    window = xxz.spectral_window(delta, 0.5)
    w = sample_field(DisorderSpec(coupling=0.05), 2 * L + 1, PLAN, 10)
    h = xxz.build_h_sector(n, L, delta, beta, w)
    vals = np.linalg.eigvalsh(h.matrix.toarray())
    assert vals[0] < window.upper - 1e-6 and vals[1] - vals[0] > 1e-6
    shift = (window.upper + offset - vals[0]) / n
    h = xxz.build_h_sector(n, L, delta, beta, w + shift)
    if offset < 0:
        energies, vectors = xxz.eigenpairs_in_window(h, window)
        assert energies.size == 1 and vectors.shape == (h.dim, 1)
        assert abs(energies[0] - (window.upper + offset)) < 1e-12
        return
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
    energies, vectors = xxz.eigenpairs_in_window(h, window)
    assert energies.size == 0 and vectors.shape == (h.dim, 0) and not calls


@pytest.mark.parametrize("half_length", [1, 2, 3, 4])
@pytest.mark.parametrize("delta", [1.5, 3.0, 6.0])
def test_field_bound_rejects_only_sectors_without_window_states(monkeypatch, half_length,
                                                                delta):
    # min spec H_N >= (1 - 1/Delta) + (sum of the N smallest w) for N >= 1, and a
    # sector field_admits rejects has no eigenvalue at or below the window's top
    import scipy.sparse.linalg as spla
    n_sites, gap = 2 * half_length + 1, 1.0 - 1.0 / delta
    fields = [constant_field(0.0, n_sites)] + [
        sample_field(DisorderSpec(coupling=c), n_sites, PLAN, 3) for c in (0.1, 1.0, 4.0)]
    windows = [xxz.spectral_window(delta, kind="I")] + [
        xxz.spectral_window(delta, 0.5, kind) for kind in ("I_delta", "I_0_delta")]
    rejected = []
    for beta in (xxz.min_boundary_weight(delta), xxz.min_boundary_weight(delta) + 0.3):
        for w in fields:
            vacuum = xxz.build_h_sector(0, half_length, delta, beta, w)
            assert all(xxz.field_admits(vacuum, window) for window in windows)
            for n in range(1, n_sites + 1):
                h = xxz.build_h_sector(n, half_length, delta, beta, w)
                assert abs(h.field_floor - np.sort(w)[:n].sum()) < 1e-12
                lowest = np.linalg.eigvalsh(h.basis.dense(h.data))[0]
                assert lowest >= gap + h.field_floor - 1e-12
                for window in windows:
                    if not xxz.field_admits(h, window):
                        assert lowest > window.upper
                        rejected.append((h, window))
    assert rejected

    def refuse(*args, **kwargs):
        raise AssertionError("a rejected sector was solved")

    for name in ("_dense_eigh", "_certified_cg"):
        monkeypatch.setattr(xxz, name, refuse)
    monkeypatch.setattr(spla, "eigsh", refuse)
    for h, window in rejected:
        energies, vectors = xxz.eigenpairs_in_window(h, window)
        assert energies.shape == (0,) and vectors.shape == (h.dim, 0)


def test_droplet_profile_mass_conservation():
    delta = 3.0
    # weak field, so the three-particle droplet states fall in the window
    w = sample_field(DisorderSpec(coupling=0.05), 13, PLAN, 3)
    h = xxz.build_h_sector(3, 6, delta, xxz.min_boundary_weight(delta), w)
    _, vectors = xxz.eigenpairs_in_window(h, xxz.spectral_window(delta, kind="I"))
    assert vectors.shape[1]
    distance = h.basis.droplet_distance
    for psi, profile in zip(vectors.T, xxz.droplet_profile(vectors, distance)):
        total = sum(v ** 2 for v in profile)
        assert abs(total - 1.0) < 1e-9
        # the per-shell sums, in another order
        shells = [np.sqrt((psi[distance == r] ** 2).sum())
                  for r in range(distance.max() + 1)]
        assert np.abs(profile - shells).max() < 1e-14


def test_ct_check_bound_holds_and_closed_form():
    delta, safety = 2.0, 0.5
    # closed-form constants at this parameter point
    assert 16 * delta / (safety * (delta - 1)) == 64.0
    assert 1 + safety * (delta - 1) / 8 == 1.0625
    w = sample_field(UNIFORM, 17, PLAN, 4)
    h = xxz.build_h_sector(2, 8, delta, xxz.min_boundary_weight(delta), w)
    a = [(-8, -7)]
    b = [(6, 8)]
    measured, bound = xxz.ct_check(h, 0.6, safety, a, b)
    d = xxz.set_distance(a, b)
    assert abs(bound - 64.0 * 1.0625 ** (-d)) < 1e-12
    assert measured <= bound
    # a configuration is a set of sites: the order of a tuple does not matter
    assert xxz.ct_check(h, 0.6, safety, [(-7, -8)], [(8, 6)]) == (measured, bound)
    with pytest.raises(ConfigurationError):
        xxz.ct_check(h, 0.9, safety, a, b)  # energy above the window
    vacuum = xxz.build_h_sector(0, 8, delta, xxz.min_boundary_weight(delta), w)
    with pytest.raises(ConfigurationError, match="particle"):
        xxz.ct_check(vacuum, 0.6, safety, [()], [()])
    for bad in (0.0, -0.5):
        with pytest.raises(ConfigurationError, match="safety"):
            xxz.ct_check(h, 0.0, bad, a, b)


def test_ct_shifted_operator_floor_on_c08_cells():
    # the premise certifying ct_check: min spec of the shifted operator is
    # at least safety (1 - 1/Delta) at the top of the admissible energies
    import scipy.sparse.linalg as spla
    safety = 0.5
    for delta in (2.0, 4.0):
        gap = 1.0 - 1.0 / delta
        for n_part in (1, 2, 3, 4):
            plan = SeedPlan(int(108_000 + 10 * delta + n_part))
            w = sample_field(UNIFORM, 25, plan, 0)
            h = xxz.build_h_sector(n_part, 12, delta,
                                   xxz.min_boundary_weight(delta), w)
            shift = np.where(h.basis.droplet_distance == 0, gap, 0.0)
            op = h.matrix + sp.diags(shift - (2.0 - safety) * gap)
            lowest = spla.eigsh(op, k=1, which="SA",
                                return_eigenvectors=False)[0]
            assert lowest >= safety * gap


def cg_off_by(eps):
    """xxz._cg with every solution entry moved by eps."""
    cg = xxz._cg

    def solve(op, rhs):
        x, failed = cg(op, rhs)
        return x + eps, failed
    return solve


def test_ct_check_certificate_rejects_inexact_solves(monkeypatch):
    delta, safety = 2.0, 0.5
    w = sample_field(UNIFORM, 9, PLAN, 7)
    h = xxz.build_h_sector(2, 4, delta, xxz.min_boundary_weight(delta), w)
    a, b = [(-4, -3)], [(2, 4)]
    # a converged-looking but wrong solution: the residual exposes it
    monkeypatch.setattr(xxz, "_cg", cg_off_by(1e-9))
    with pytest.raises(NumericalError, match="certified resolvent error"):
        xxz.ct_check(h, 0.5, safety, a, b)
    # an error within a (loosened) tolerance that still covers the bound
    # leaves pass/fail undecided
    monkeypatch.setattr(xxz, "_CT_TOL", 1e6)
    monkeypatch.setattr(xxz, "_cg", cg_off_by(10.0))
    with pytest.raises(NumericalError, match="certified resolvent error vs"):
        xxz.ct_check(h, 0.5, safety, a, b)
    monkeypatch.setattr(xxz, "_cg", lambda op, rhs: (0 * rhs, len(rhs)))
    with pytest.raises(NumericalError, match="did not converge"):
        xxz.ct_check(h, 0.5, safety, a, b)


def test_certificates_fail_on_nan(monkeypatch):
    # every certificate comparison is written so that NaN fails it
    import scipy.sparse.linalg as spla
    delta = 3.0
    w = sample_field(DisorderSpec(coupling=0.05), 13, PLAN, 2)
    h = xxz.build_h_sector(2, 6, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    certified = xxz._certified_cg
    monkeypatch.setattr(xxz, "_certified_cg",
                        lambda *args: (certified(*args)[0], np.nan))
    with pytest.raises(NumericalError, match="window count error=nan"):
        xxz.eigenpairs_in_window(h, window)
    monkeypatch.setattr(xxz, "_certified_cg", certified)

    def nan_vectors(solver):
        def solve(*args, **kwargs):
            vals, vecs = solver(*args, **kwargs)
            return vals, np.full_like(vecs, np.nan)
        return solve

    monkeypatch.setattr(spla, "eigsh", nan_vectors(spla.eigsh))
    with pytest.raises(NumericalError, match="Lanczos resid - margin=nan"):
        xxz.eigenpairs_in_window(h, window)
    monkeypatch.setattr(np.linalg, "eigh", nan_vectors(np.linalg.eigh))
    with pytest.raises(NumericalError, match="window ortho=nan"):
        xxz.eigenpairs_in_window(h, xxz.spectral_window(delta, kind="I"))
    monkeypatch.setattr(xxz, "_cg", cg_off_by(np.nan))
    with pytest.raises(NumericalError, match="certified resolvent error=nan"):
        xxz.ct_check(h, 0.5, 0.5, [(-6, -5)], [(2, 4)])
    monkeypatch.undo()
    monkeypatch.setattr(xxz, "set_distance", lambda a, b: np.nan)
    with pytest.raises(NumericalError, match=r"error vs \|bound - measured\|=.*not below nan"):
        xxz.ct_check(h, 0.5, 0.5, [(-6, -5)], [(2, 4)])
    with pytest.raises(DegeneracyError, match="gap nan"):
        xxz.window_site_masses(
            [(h.basis, np.array([0.5, np.nan]), np.zeros((h.dim, 2)))], 13)


@pytest.mark.parametrize("n_particles", [3, 4])
def test_cg_matches_scipy_bit_for_bit(n_particles):
    # single right-hand sides on ct_check's shifted operator K at L = 12 give
    # scipy's cg solution exactly, and a block gives its rows' solutions
    import scipy.sparse.linalg as spla
    delta, safety = 2.0, 0.5
    gap = 1.0 - 1.0 / delta
    beta = xxz.min_boundary_weight(delta)
    rng = np.random.default_rng(n_particles)
    for seed in range(4):
        w = sample_field(UNIFORM, 25, PLAN, 30 + seed)
        h = xxz.build_h_sector(n_particles, 12, delta, beta, w)
        shift = np.where(h.basis.droplet_distance == 0, gap, 0.0)
        energy = rng.uniform(0.0, (2.0 - safety) * gap)
        op = (h.matrix + sp.diags(shift - energy)).tocsr()
        b = np.zeros(h.dim)
        b[rng.integers(h.dim)] = 1.0
        x, failed = xxz._cg(op, b[None, :])
        want, info = spla.cg(op, b, rtol=np.finfo(float).eps, atol=0.0)
        assert failed == 0 == info and np.array_equal(x[0], want)
    # rows that converge at different steps, and a zero row
    rhs = np.zeros((5, h.dim))
    rhs[[0, 1, 2], rng.integers(h.dim, size=3)] = 1.0
    rhs[3] = rhs[0] - 2.0 * rhs[1]
    block, failed = xxz._cg(op, rhs)
    assert failed == 0 and not block[4].any()
    for b, x in zip(rhs, block):
        assert np.array_equal(xxz._cg(op, b[None, :])[0][0], x)

    class NoProduct:
        def __matmul__(self, other):
            raise AssertionError("a product with nothing left to solve")

    # zero right-hand sides are solved by x = 0, with no step
    assert xxz._cg(NoProduct(), np.zeros((2, 5)))[1] == 0


def _sector_correlator(h, window, j, k):
    """Q_N(j, k; window) from the window site masses of one sector."""
    energies, vectors = xxz.eigenpairs_in_window(h, window)
    masses = xxz.window_site_masses([(h.basis, energies, vectors)],
                                    h.basis.n_sites)
    L = h.basis.half_length
    return float(masses[:, j + L] @ masses[:, k + L])


def test_sector_correlator_degeneracy_guard():
    # a fabricated sector operator with an exactly repeated window level
    delta = 2.0
    basis = xxz.enumerate_basis(1, 1)
    levels = np.zeros(basis.indices.size)
    levels[basis.diagonal] = [0.6, 0.6, 2.0]
    degenerate = xxz.SectorHamiltonian(basis, delta, levels)
    window = xxz.spectral_window(delta, kind="I")
    with pytest.raises(DegeneracyError):
        _sector_correlator(degenerate, window, 0, 1)


def test_sector_correlator_disordered():
    delta = 4.0
    w = sample_field(UNIFORM, 11, PLAN, 5)
    h = xxz.build_h_sector(2, 5, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    q00 = _sector_correlator(h, window, 0, 0)
    q04 = _sector_correlator(h, window, 0, 4)
    assert q00 >= q04 >= 0.0


def test_windowed_eigenpairs_above_dense_cap(memory_budget):
    # below 2 (1 - 1/Delta) the window solver needs no dense solve: a sector
    # of dim 465 above the dense rule gives the dense window pairs
    delta = 3.0
    w = sample_field(DisorderSpec(coupling=0.1), 31, PLAN, 8)
    h = xxz.build_h_sector(2, 15, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    keep = window.contains(vals)
    memory_budget(5 * 8 * 100 ** 2)  # dense solves up to dim 100
    energies, vectors = xxz.eigenpairs_in_window(h, window)
    assert energies.size == keep.sum() > 0
    assert np.abs(energies - vals[keep]).max() < 1e-12
    assert np.abs(np.abs((vecs[:, keep] * vectors).sum(axis=0)) - 1).max() < 1e-8
    # window kind I reaches 2 (1 - 1/Delta): dense, so refused
    with pytest.raises(ConfigurationError, match="dense diagonalization at dim 465"):
        xxz.eigenpairs_in_window(h, xxz.spectral_window(delta, kind="I"))


def test_window_certificate_rejects_inexact_solves(monkeypatch):
    import scipy.sparse.linalg as spla
    delta = 3.0
    w = sample_field(DisorderSpec(coupling=0.05), 13, PLAN, 2)
    h = xxz.build_h_sector(2, 6, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    count = xxz.eigenpairs_in_window(h, window)[0].size
    assert count
    cg, eigsh = xxz._cg, spla.eigsh

    # a converged-looking but wrong Schur solve: the residual exposes it
    monkeypatch.setattr(xxz, "_cg", cg_off_by(1e-3))
    with pytest.raises(NumericalError, match="window count error"):
        xxz.eigenpairs_in_window(h, window)
    monkeypatch.setattr(xxz, "_cg", lambda op, rhs: (0 * rhs, len(rhs)))
    with pytest.raises(NumericalError, match="did not converge"):
        xxz.eigenpairs_in_window(h, window)
    monkeypatch.setattr(xxz, "_cg", cg)

    # Lanczos pairs that miss the count, or whose residuals do not place
    # them below the upper edge
    def eigsh_with(shift=0.0, noise=0.0):
        def solve(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            vecs = vecs + noise * np.random.default_rng(1).standard_normal(vecs.shape)
            return vals + shift, vecs
        return solve

    monkeypatch.setattr(spla, "eigsh", eigsh_with(shift=10.0))
    with pytest.raises(NumericalError, match=re.escape(f"Lanczos count miss={count:.2e},")):
        xxz.eigenpairs_in_window(h, window)
    monkeypatch.setattr(spla, "eigsh", eigsh_with(noise=1e-2))
    with pytest.raises(NumericalError, match="Lanczos resid - margin"):
        xxz.eigenpairs_in_window(h, window)


def test_dense_cap_fits_physical_memory(memory_budget):
    # c09's sector (dim 2 300) can still be checked against a dense eigh
    errors.require_dense(comb(25, 3))
    # the one rule at the budget of a 7.8 GiB machine (half its memory): a
    # dense eigh holds 5 n^2 doubles up to n = 10 258, and the oracle's
    # 2^n matrix admits 13 sites
    memory_budget(4_209_827_840)
    errors.require_dense(10_258)
    with pytest.raises(ConfigurationError, match="dense diagonalization at dim 10259"
                       " needs about 3.921 GiB, above half the physical memory"
                       r" \(3.921 GiB\)"):
        errors.require_dense(10_259)
    oracle._check_cap(13)
    with pytest.raises(ConfigurationError, match="the dense 14-site chain"):
        oracle._check_cap(14)
    # 2^n (n + 18) bytes for the Ising spectrum: 26 sites, not 27
    with pytest.raises(ConfigurationError, match="27-site Ising spectrum needs about 5.625"):
        oracle.ising_exact(np.zeros(27))
    # a count past a float's range is named in powers of two
    with pytest.raises(ConfigurationError, match=r"the dense 2000-site chain needs"
                       r" about 2\^4005 bytes"):
        oracle._check_cap(2000)
    # the skeleton's formula, dim (128 + sites + 32 N) bytes: 84 (128 + 9 + 96)
    # at (3, 4), refused one byte below
    memory_budget(84 * 233)
    assert xxz.enumerate_basis.__wrapped__(3, 4).dim == 84
    memory_budget(84 * 233 - 1)
    with pytest.raises(ConfigurationError, match="sector of 84 configurations"):
        xxz.enumerate_basis.__wrapped__(3, 4)


def test_chain_spectrum_window_blocks_and_vacuum():
    delta = 6.0
    w = sample_field(UNIFORM, 5, PLAN, 6)
    chain = xxz.ChainSpectrum(2, delta, xxz.min_boundary_weight(delta), w)
    assert sum(chain.spectrum(n)[0].size for n in range(chain.n_sites + 1)) == 2 ** 5
    w0 = xxz.spectral_window(delta, 0.5, "I_0_delta")
    energies, blocks = chain.window_blocks(w0)
    # the vacuum comes first, as sector 0
    assert blocks[0][0] == slice(0, 1) and energies[0] == 0.0
    # built once per window; the shared arrays are read-only
    assert chain.window_blocks(w0)[0] is energies
    assert not energies.flags.writeable and not blocks[1][1].flags.writeable
    wd = xxz.spectral_window(delta, 0.5)
    assert all(n > 0 for n in chain.window_blocks(wd)[1])


def test_window_number_operator_projection_identity():
    delta = 6.0
    w = sample_field(UNIFORM, 5, PLAN, 7)
    chain = xxz.ChainSpectrum(2, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    energies, mat = chain.window_number_operator(window, 0)
    assert np.abs(mat - mat.T).max() < 1e-12
    # N_j is a projection on the configuration basis, so 0 <= X_I <= 1
    vals = np.linalg.eigvalsh(mat)
    assert vals.min() > -1e-10 and vals.max() < 1 + 1e-10
    # evolution at t=0 is the identity
    frozen = xxz.evolve_window_observable(energies, mat, 0.0)
    assert np.abs(frozen - mat).max() < 1e-14


def test_window_observables_reject_sites_outside_chain():
    delta = 6.0
    w = sample_field(UNIFORM, 5, PLAN, 7)
    chain = xxz.ChainSpectrum(2, delta, xxz.min_boundary_weight(delta), w)
    window = xxz.spectral_window(delta, 0.5)
    for site in (-3, 3):
        with pytest.raises(ConfigurationError):
            chain.window_number_operator(window, site)
        with pytest.raises(ConfigurationError):
            chain.window_sigma_x(window, site)
        with pytest.raises(ConfigurationError):
            xxz.QuasiLocalityProbe(chain, site, window)


@pytest.mark.parametrize("half_length", [4, 5])
def test_quasi_locality_streams_the_sector_factors(half_length):
    # one time's factors C over all sectors take C(2n - 1, n) complex numbers
    # (Vandermonde: sum_N C(n, N) C(n - 1, N - 1)); each sector's factor is
    # folded into the partial traces and released, so the profile stays well
    # below that, where keeping every sector's factor reaches 2.6-3.2 times it
    delta, n = 6.0, 2 * half_length + 1
    w = sample_field(UNIFORM, n, PLAN, 5)
    chain = xxz.ChainSpectrum(half_length, delta, xxz.min_boundary_weight(delta), w)
    probe = xxz.QuasiLocalityProbe(chain, 0, xxz.spectral_window(delta, 0.5))
    tracemalloc.start()
    try:
        probe.errors_profile(range(half_length), (0.5, 5.0, 50.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * comb(2 * n - 1, n), f"traced peak {peak} B"


def test_quasi_locality_keeps_only_the_sectors_the_field_admits(monkeypatch):
    # only the admitted sectors' eigenvectors are kept, every other sector is
    # solved, folded into the partial traces and released: the traced peak stays
    # below 1.5 times every sector's eigenvectors, C(2n, n) doubles
    half_length, delta = 5, 6.0
    n = 2 * half_length + 1
    w = sample_field(UNIFORM, n, PLAN, 5)
    beta, window = xxz.min_boundary_weight(delta), xxz.spectral_window(delta, 0.5)
    tracemalloc.start()
    try:
        chain = xxz.ChainSpectrum(half_length, delta, beta, w)
        probe = xxz.QuasiLocalityProbe(chain, 0, window)
        probe.errors_profile(range(half_length), (0.5, 5.0, 50.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * comb(2 * n, n), f"traced peak {peak} B"
    admitted = {k for k, h in chain.sectors.items() if xxz.field_admits(h, window)}
    assert set(chain._spectra) == admitted and 0 < len(admitted) < n + 1

    # a window above the one-particle field bound but below every sector's
    # ground state: admitted sectors, no window state, and no solve after
    # the probe is built
    gap = 1.0 - 1.0 / delta
    sectors = [xxz.build_h_sector(k, half_length, delta, beta, w) for k in range(1, n + 1)]
    lowest = min(np.linalg.eigvalsh(h.basis.dense(h.data))[0] for h in sectors)
    empty = xxz.EnergyWindow(gap, (gap + sectors[0].field_floor + lowest) / 2)
    chain = xxz.ChainSpectrum(half_length, delta, beta, w)
    probe = xxz.QuasiLocalityProbe(chain, 0, empty)
    assert 1 in chain._spectra and probe.energies.size == 0
    solves = []
    monkeypatch.setattr(xxz, "_dense_eigh", solves.append)
    assert probe.errors_profile(range(half_length), (0.5, 5.0)) == dict.fromkeys(
        range(half_length), 0.0)
    assert not solves


def test_quasi_locality_memory_rule_counts_only_kept_sectors(monkeypatch, memory_budget):
    # 8 (sum of the kept d_N^2 + 5 d^2 + 4 d C(n - 1, L)) bytes, d = C(n, L), where
    # every sector's eigenvectors, C(2n, n) doubles, were counted before
    half_length, delta = 4, 6.0
    n = 2 * half_length + 1
    w = sample_field(UNIFORM, n, PLAN, 5)
    window = xxz.spectral_window(delta, 0.5)
    args = half_length, delta, xxz.min_boundary_weight(delta), w
    chain = xxz.ChainSpectrum(*args)
    kept = [k for k, h in chain.sectors.items() if xxz.field_admits(h, window)]
    d = comb(n, half_length)
    rest = 5 * d ** 2 + 4 * d * comb(n - 1, half_length)
    model = 8 * (sum(comb(n, k) ** 2 for k in kept) + rest)
    assert model < 8 * (comb(2 * n, n) + rest)
    want = xxz.QuasiLocalityProbe(xxz.ChainSpectrum(*args), 0, window).errors_profile(
        range(half_length), (0.5, 5.0))

    memory_budget(model - 1)
    solve = xxz._dense_eigh

    def refuse(h):
        raise AssertionError("solved before the memory rule")

    monkeypatch.setattr(xxz, "_dense_eigh", refuse)
    with pytest.raises(ConfigurationError, match="quasi-locality probe of the 9-site chain"):
        xxz.QuasiLocalityProbe(chain, 0, window)
    assert not chain._spectra
    monkeypatch.setattr(xxz, "_dense_eigh", solve)
    # a budget the former model exceeded runs, and gives the same errors
    memory_budget(model)
    probe = xxz.QuasiLocalityProbe(chain, 0, window)
    assert probe.errors_profile(range(half_length), (0.5, 5.0)) == want
    # each time keeps its partial traces, C(m, k)^2 complex numbers per radius
    # with m inner sites and inner weight k the window reads: a long time grid
    # is refused before any solve
    per_time = 0
    for ell in range(half_length):
        m, tables = xxz._trace_classes(half_length, 0, ell)
        read = {k for n in probe._blocks for k in tables[n]}
        per_time += 16 * sum(comb(m, k) ** 2 for k in read)
    monkeypatch.setattr(xxz, "_dense_eigh", refuse)
    times = np.linspace(0.1, 2.0, model // per_time + 1)
    with pytest.raises(ConfigurationError, match=f"partial traces at {times.size} times"):
        probe.errors_profile(range(half_length), times)


@pytest.mark.parametrize("half_length", [2, 3])
@pytest.mark.parametrize("kind", ["I", "I_delta", "I_0_delta"])
@pytest.mark.parametrize("clean", [False, True])
def test_sector_and_chain_window_paths_agree(half_length, kind, clean):
    delta = 3.0
    n_sites = 2 * half_length + 1
    w = (constant_field(0.0, n_sites) if clean
         else sample_field(UNIFORM, n_sites, PLAN, 9))
    beta = xxz.min_boundary_weight(delta)
    chain = xxz.ChainSpectrum(half_length, delta, beta, w)
    window = xxz.spectral_window(delta, 0.5, kind)
    energies, blocks = chain.window_blocks(window)
    sector_blocks = []
    for n in range(n_sites + 1):
        h = xxz.build_h_sector(n, half_length, delta, beta, w)
        e_sector, v_sector = xxz.eigenpairs_in_window(h, window)
        rows, v_chain = blocks.get(n, (slice(0, 0), np.zeros((h.dim, 0))))
        assert e_sector.size == energies[rows].size
        assert np.abs(e_sector - energies[rows]).max(initial=0.0) < 1e-12
        # the window projector does not depend on the eigenbasis
        assert np.abs(v_sector @ v_sector.T - v_chain @ v_chain.T).max() < 1e-10
        sector_blocks.append((h.basis, e_sector, v_sector))
    try:
        masses = chain.site_mass_profile(window)
    except DegeneracyError:
        with pytest.raises(DegeneracyError):
            xxz.window_site_masses(sector_blocks, n_sites)
    else:
        assert np.abs(xxz.window_site_masses(sector_blocks, n_sites)
                      - masses).max(initial=0.0) < 1e-10
