from collections import deque
from math import comb

import numpy as np
import pytest

from mblchain import xxz
from mblchain.disorder import (DisorderSpec, FieldRealization, SeedPlan,
                               constant_field, sample_field)
from mblchain.errors import ConfigurationError, DegeneracyError, NumericalError

PLAN = SeedPlan(16180)
UNIFORM = DisorderSpec()


# naive per-configuration definitions, the references for the sector skeleton

def component_degree(x) -> int:
    """Twice the number of maximal runs of consecutive sites (box independent)."""
    runs = 1 + sum(1 for a, b in zip(x, x[1:]) if b - a > 1)
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
    assert basis.configs[0] == (-2, -1)
    assert basis.configs[-1] == (1, 2)
    assert basis.index[(-1, 2)] == basis.configs.index((-1, 2))
    with pytest.raises(ConfigurationError):
        xxz.enumerate_basis(6, 2)


def test_component_degree():
    assert component_degree((0, 1, 2)) == 2
    assert component_degree((0, 2, 4)) == 6
    assert component_degree((-3, -2, 1, 2, 5)) == 6


def test_neighbors_hard_core_and_walls():
    basis = xxz.enumerate_basis(2, 2)
    nbrs = neighbors((-2, -1), basis)
    # left particle blocked by wall and by the right particle;
    # right particle can only move right
    assert set(nbrs) == {(-2, 0)}
    assert all(n in basis.index for n in nbrs)


def test_droplet_geometry_distances():
    basis = xxz.enumerate_basis(3, 3)
    for idx in np.flatnonzero(basis.droplet_distance == 0):
        x = basis.configs[idx]
        assert all(b - a == 1 for a, b in zip(x, x[1:]))
    i = basis.index[(-3, 0, 3)]
    # nearest droplet around the middle particle: (-1, 0, 1)
    assert basis.droplet_distance[i] == 4
    assert basis.droplet_distance[basis.index[(-1, 0, 1)]] == 0


@pytest.mark.parametrize("n_particles, half_length",
                         [(1, 1), (2, 3), (3, 3), (4, 2), (5, 2)])
def test_sector_skeleton_matches_naive_definitions(n_particles, half_length):
    basis = xxz.enumerate_basis(n_particles, half_length)
    L = half_length
    edges = {(i, basis.index[y]) for i, x in enumerate(basis.configs)
             for y in neighbors(x, basis) if basis.index[y] > i}
    assert {tuple(p) for p in basis.hops.tolist()} == edges
    assert len(basis.hops) == len(edges)
    droplets = [x for x in basis.configs if x[-1] - x[0] == n_particles - 1]
    for i, x in enumerate(basis.configs):
        assert basis.graph_degree[i] == len(neighbors(x, basis))
        assert basis.cluster_degree[i] == component_degree(x)
        assert basis.wall_touches[i] == (x[0] == -L) + (x[-1] == L)
        assert basis.droplet_distance[i] == xxz.set_distance([x], droplets)
        assert basis.occupancy[i].tolist() == [s in x for s in basis.sites]
        assert basis.masks[i] == sum(1 << (s + L) for s in x)
    assert basis.locate(basis.masks).tolist() == list(range(basis.dim))
    # the last case fills the chain: one configuration, no hops
    if n_particles == 2 * L + 1:
        assert basis.dim == 1 and len(basis.hops) == 0
    arrays = (basis.positions, basis.masks, basis.occupancy, basis.hops,
              basis.graph_degree, basis.cluster_degree, basis.wall_touches,
              basis.droplet_distance)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        basis.occupancy[0, 0] = True
    assert xxz.enumerate_basis(n_particles, half_length) is basis


def test_skeleton_masks_beyond_int64():
    # 81 sites: bitmasks are Python ints and lookups still work
    basis = xxz.enumerate_basis(2, 40)
    x = (-40, 40)
    assert basis.masks[basis.index[x]] == 1 + (1 << 80)
    assert basis.locate([1 + (1 << 80)]).tolist() == [basis.index[x]]
    with pytest.raises(KeyError):
        basis.locate([1])


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
    i = h.basis.index[(-1,)]
    # hop term 1/(2*2), cluster term (1/2)(1 - 1/2)*2, wall weight 0
    assert h.matrix[i, i] == pytest.approx(0.75)
    # interior site: hop degree 2, no wall touch
    j = h.basis.index[(0,)]
    assert h.matrix[j, j] == pytest.approx(0.5 + 0.5)
    assert h.matrix[i, j] == pytest.approx(-0.25)


def test_sector_positivity_and_gap():
    # every term nonnegative: spectrum >= 1 - 1/Delta for any valid input
    for delta in (2.0, 5.0):
        w = sample_field(UNIFORM, 9, PLAN, 1)
        h = xxz.build_h_sector(3, 4, delta, xxz.min_boundary_weight(delta), w)
        vals = np.linalg.eigvalsh(h.dense())
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
        vals = np.linalg.eigvalsh(h.dense())
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
    vals = np.linalg.eigvalsh(xxz.build_h_sector(n, L, delta, beta, w).dense())
    assert vals[0] < window.upper - 1e-6 and vals[1] - vals[0] > 1e-6
    shift = (window.upper + offset - vals[0]) / n
    h = xxz.build_h_sector(n, L, delta, beta, FieldRealization(w.values + shift))
    if offset < 0:
        energies, vectors = xxz.eigenpairs_in_window(h, window)
        assert energies.size == 1 and vectors.shape == (h.dim, 1)
        assert abs(energies[0] - (window.upper + offset)) < 1e-12
        return
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
    energies, vectors = xxz.eigenpairs_in_window(h, window)
    assert energies.size == 0 and vectors.shape == (h.dim, 0) and not calls


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
    with pytest.raises(ConfigurationError):
        xxz.ct_check(h, 0.9, safety, a, b)  # energy above the window


def test_ct_shifted_operator_floor_on_c08_cells():
    # the premise certifying ct_check: min spec of the shifted operator is
    # at least safety (1 - 1/Delta) at the top of the admissible energies
    import scipy.sparse as sp
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


def test_ct_check_certificate_rejects_inexact_solves(monkeypatch):
    import scipy.sparse.linalg as spla
    delta, safety = 2.0, 0.5
    w = sample_field(UNIFORM, 9, PLAN, 7)
    h = xxz.build_h_sector(2, 4, delta, xxz.min_boundary_weight(delta), w)
    a, b = [(-4, -3)], [(2, 4)]
    cg = spla.cg

    def off_by(eps):
        def solve(op, rhs, **kwargs):
            x, info = cg(op, rhs, **kwargs)
            return x + eps, info
        return solve

    # a converged-looking but wrong solution: the residual exposes it
    monkeypatch.setattr(spla, "cg", off_by(1e-9))
    with pytest.raises(NumericalError, match="certified resolvent error"):
        xxz.ct_check(h, 0.5, safety, a, b)
    # an error within a (loosened) tolerance that still covers the bound
    # leaves pass/fail undecided
    monkeypatch.setattr(xxz, "_CT_TOL", 1e6)
    monkeypatch.setattr(spla, "cg", off_by(10.0))
    with pytest.raises(NumericalError, match="within the certified error"):
        xxz.ct_check(h, 0.5, safety, a, b)


def _sector_correlator(h, window, j, k):
    """Q_N(j, k; window) from the window site masses of one sector."""
    energies, vectors = xxz.eigenpairs_in_window(h, window)
    masses = xxz.window_site_masses([(h.basis, energies, vectors)],
                                    h.basis.n_sites)
    L = h.basis.half_length
    return float(masses[:, j + L] @ masses[:, k + L])


def test_sector_correlator_degeneracy_guard():
    import scipy.sparse as sp
    # a fabricated sector operator with an exactly repeated window level
    delta = 2.0
    basis = xxz.enumerate_basis(1, 1)
    degenerate = xxz.SectorHamiltonian(
        basis, delta, sp.csr_matrix(np.diag([0.6, 0.6, 2.0])))
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


def test_windowed_eigenpairs_above_dense_cap(monkeypatch):
    # force shift-invert Lanczos at dim 465 (k = 400 eigenpairs)
    delta = 3.0
    w = sample_field(UNIFORM, 31, PLAN, 8)
    h = xxz.build_h_sector(2, 15, delta, xxz.min_boundary_weight(delta), w)
    narrow = xxz.EnergyWindow(1.0, 1.4)
    e_dense, v_dense = xxz.eigenpairs_in_window(h, narrow)
    monkeypatch.setattr(xxz, "DENSE_DIAG_CAP", 100)
    e_sparse, v_sparse = xxz.eigenpairs_in_window(h, narrow)
    assert e_dense.size and e_sparse.size == e_dense.size
    for e_d, psi_d, e_s, psi_s in zip(e_dense, v_dense.T, e_sparse, v_sparse.T):
        assert abs(e_d - e_s) < 1e-10
        assert abs(abs(psi_d @ psi_s) - 1.0) < 1e-8
    # the 400 eigenvalues nearest the centre cannot cover a window holding
    # all 465
    with pytest.raises(NumericalError):
        xxz.eigenpairs_in_window(h, xxz.EnergyWindow(0.0, 100.0))


def test_dense_cap_fits_physical_memory():
    import os
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # a dense eigh at the cap: matrix, LAPACK's copy, the syevd workspace
    # (2 n^2) and the eigenvectors, in doubles
    assert 5 * 8 * xxz.DENSE_DIAG_CAP ** 2 <= physical
    # the largest windowed sector of the acceptance suite (c09) stays dense
    assert xxz.DENSE_DIAG_CAP >= comb(25, 3)


def test_chain_spectrum_window_blocks_and_vacuum():
    delta = 6.0
    w = sample_field(UNIFORM, 5, PLAN, 6)
    chain = xxz.ChainSpectrum(2, delta, xxz.min_boundary_weight(delta), w)
    assert chain.all_energies().size == 2 ** 5
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
    for n in range(1, n_sites + 1):
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
