"""Cross-engine equivalences: every closed form used by the fast engines
is checked entry-by-entry against the dense brute-force engine."""

import numpy as np
import pytest

from mblchain import oracle, xxz, xy
from mblchain.disorder import DisorderSpec, SeedPlan, constant_field, sample_field

PLAN = SeedPlan(31415)
UNIFORM = DisorderSpec()


def _xy_pair(n, index=0):
    w = sample_field(UNIFORM, n, PLAN, index)
    es = xy.diagonalize(w)
    full = oracle.diagonalize_full(oracle.build_full("xy", w))
    return w, es, full


def _occupied(code, n):
    return ((code >> np.arange(n)) & 1) == 1


def _match_eigenvector(full, energy):
    col = int(np.argmin(np.abs(full.energies - energy)))
    assert abs(full.energies[col] - energy) < 1e-8
    return full.vectors[:, col]


def test_spectrum_identity_small():
    for n in (2, 3, 5, 7):
        w, es, full = _xy_pair(n, index=n)
        free = sorted(xy.eigenstate_energy(es, _occupied(c, n), -w.sum())
                      for c in range(2 ** n))
        assert np.abs(np.array(free) - full.energies).max() < 1e-9


def test_quadratic_form_identity():
    n = 8
    w = sample_field(UNIFORM, n, PLAN, 2)
    modes = oracle.jordan_wigner_modes(n)
    dense = xy.block_m(w, 0.0)[:n, :n]
    quad = sum(2.0 * dense[j, k] * modes[j].conj().T @ modes[k]
               for j in range(n) for k in range(n))
    quad += -w.sum() * np.eye(2 ** n)
    h = oracle.build_full("xy", w).matrix
    assert np.abs(h - quad).max() < 1e-10


def test_heisenberg_mode_transport():
    n = 6
    w, es, full = _xy_pair(n, index=3)
    modes = oracle.jordan_wigner_modes(n)
    t = 0.9
    u = (es.eigenvectors * np.exp(-2j * t * es.eigenvalues)) @ es.eigenvectors.T
    for j in range(n):
        evolved = oracle.heisenberg(full, modes[j], t)
        combo = sum(u[j, ell] * modes[ell] for ell in range(n))
        assert np.abs(evolved - combo).max() < 1e-9


def test_end_site_commutator_closed_form():
    n = 8
    grid = (0.0, 0.3, 1.0, 4.0, 20.0)
    for w in (constant_field(0.0, n),
              sample_field(DisorderSpec(coupling=4.0), n, PLAN, 5)):
        fast = xy.end_site_commutator_norms(xy.diagonalize(w), grid)
        full = oracle.diagonalize_full(oracle.build_full("xy", w))
        x = oracle.SiteObservable.of_kind("X", 0).embed(n)
        for k in range(n):
            y = oracle.SiteObservable.of_kind("X", k).embed(n)
            slow = [op for op, _ in oracle.commutator_norms(full, x, y, grid)]
            assert np.abs(fast[:, k] - slow).max() < 1e-10


def test_eigenstate_correlation_matrix_entries():
    n = 6
    w, es, full = _xy_pair(n, index=4)
    modes = oracle.jordan_wigner_modes(n)
    for code in (0, 9, 27, 63):
        occupied = _occupied(code, n)
        gamma = xy.eigenstate_correlation_matrix(es, occupied)
        psi = _match_eigenvector(full, xy.eigenstate_energy(es, occupied, -w.sum()))
        for j in range(n):
            for k in range(n):
                expect = np.vdot(psi, modes[j] @ modes[k].conj().T @ psi)
                assert abs(gamma[j, k] - expect) < 1e-8


def test_thermal_correlation_matrix_against_trace():
    n = 6
    w, es, full = _xy_pair(n, index=5)
    beta = 1.0
    gamma = xy.thermal_correlation_matrix(es, beta)
    weights = np.exp(-beta * (full.energies - full.energies.min()))
    weights /= weights.sum()
    modes = oracle.jordan_wigner_modes(n)
    for j in range(n):
        for k in range(n):
            op = full.vectors.conj().T @ modes[j] @ modes[k].conj().T @ full.vectors
            expect = float(np.real(weights @ np.diag(op)))
            assert abs(gamma[j, k] - expect) < 1e-8


def test_quench_evolution_against_schroedinger():
    n = 6
    ell = 3
    w = sample_field(UNIFORM, n, PLAN, 6)
    left = xy.diagonalize(w[:ell])
    right = xy.diagonalize(w[ell:])
    occ_a = _occupied(5, ell)
    occ_b = _occupied(2, n - ell)

    # product of subsystem eigenstates on the spin side
    full_left = oracle.diagonalize_full(oracle.build_full("xy", w[:ell]))
    full_right = oracle.diagonalize_full(oracle.build_full("xy", w[ell:]))
    e_a = xy.eigenstate_energy(left, occ_a, -w[:ell].sum())
    e_b = xy.eigenstate_energy(right, occ_b, -w[ell:].sum())
    psi = np.kron(_match_eigenvector(full_left, e_a),
                  _match_eigenvector(full_right, e_b))

    es_full = xy.diagonalize(w)
    full = oracle.diagonalize_full(oracle.build_full("xy", w))
    modes = oracle.jordan_wigner_modes(n)
    t = 1.7
    phases = np.exp(-1j * full.energies * t)
    psi_t = full.vectors @ (phases * (full.vectors.conj().T @ psi))
    gamma_t, = xy.quench_blocks(es_full, left, occ_a, right, occ_b, (t,))
    for j in range(ell):
        for k in range(ell):
            expect = np.vdot(psi_t, modes[j] @ modes[k].conj().T @ psi_t)
            assert abs(gamma_t[j, k] - expect) < 1e-8

    # quench entanglement entropy across the cut
    s_free = xy.entanglement_entropy(gamma_t)
    s_full = oracle.reduced_entropy(psi_t, ell)
    assert abs(s_free - s_full) < 1e-8


def test_entropy_formula_all_cuts():
    n = 7
    w, es, full = _xy_pair(n, index=7)
    rng = np.random.default_rng(11)
    for code in rng.integers(0, 2 ** n, size=6):
        occupied = _occupied(int(code), n)
        gamma = xy.eigenstate_correlation_matrix(es, occupied)
        psi = _match_eigenvector(full, xy.eigenstate_energy(es, occupied, -w.sum()))
        for ell in range(1, n):
            s_free = xy.entanglement_entropy(gamma[:ell, :ell])
            assert abs(s_free - oracle.reduced_entropy(psi, ell)) < 1e-8


@pytest.mark.parametrize("n", [8, 40])
def test_block_entropy_is_particle_hole_symmetric(n):
    # the complementary eigenstate has Gamma' = I - Gamma, so the same block
    # entropy at every cut (the sup's screens rely on it), on both diagonalize
    # branches; at n = 8 both equal the oracle's entropy of the 2^n eigenvector
    w = sample_field(UNIFORM, n, PLAN, n)
    es = xy.diagonalize(w)
    full = oracle.diagonalize_full(oracle.build_full("xy", w)) if n == 8 else None
    for occupied in np.random.default_rng(n).integers(0, 2, size=(6, n)) == 1:
        for ell in range(1, n):
            s = xy.eigenstate_block_entropy(es, occupied, ell)
            assert abs(s - xy.eigenstate_block_entropy(es, ~occupied, ell)) <= 1e-12
            for pattern in (occupied, ~occupied) if n == 8 else ():
                psi = _match_eigenvector(full, xy.eigenstate_energy(es, pattern, -w.sum()))
                assert abs(s - oracle.reduced_entropy(psi, ell)) < 1e-8


def test_anisotropic_spectrum_against_oracle():
    n = 5
    w = sample_field(UNIFORM, n, PLAN, 8)
    gamma = 0.4
    vals = np.linalg.eigvalsh(xy.block_m(w, gamma))
    # one-particle energies are symmetric about zero
    assert np.abs(np.sort(vals) + np.sort(-vals)[::-1]).max() < 1e-10
    # many-body spectrum: offsets + 2 * (sums over positive modes subsets)
    full = oracle.diagonalize_full(
        oracle.build_full("xy", w, gamma=gamma))
    positive = np.sort(vals)[n:]
    base = full.energies.min()
    levels = sorted(base + 2.0 * sum(np.array(sel) * positive)
                    for sel in np.ndindex(*([2] * n)))
    assert np.abs(np.array(levels) - full.energies).max() < 1e-8


def test_xxz_sector_blocks_match_oracle():
    delta = 3.0
    beta = 0.5
    for L, index in ((2, 9), (3, 10)):
        w = sample_field(UNIFORM, 2 * L + 1, PLAN, index)
        full = oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta)
        es = oracle.diagonalize_full(full)
        numbers = oracle.eigenstate_particle_numbers(es, 2 * L + 1)
        for n_part in range(1, min(3, 2 * L + 1) + 1):
            h = xxz.build_h_sector(n_part, L, delta, beta, w)
            sector = np.sort(np.linalg.eigvalsh(h.matrix.toarray()))
            block = np.sort(es.energies[numbers == n_part])
            assert sector.size == block.size
            assert np.abs(sector - block).max() < 1e-10


def _configs(basis):
    """The configurations of a sector as tuples of sites in [-L, L]."""
    return [tuple(int(p) - basis.half_length for p in row) for row in basis.positions]


def _state_index(config, L):
    """Computational index of a sector configuration in the 2^n basis."""
    idx = 0
    for j in range(2 * L + 1):
        idx = 2 * idx + (1 if (j - L) in config else 0)
    return idx


def test_xxz_sector_matrix_entrywise():
    # entrywise block extraction pins down every convention
    L, n_part, delta, beta = 2, 2, 2.5, 0.6
    w = sample_field(UNIFORM, 2 * L + 1, PLAN, 11)
    h = xxz.build_h_sector(n_part, L, delta, beta, w)
    full = oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta)
    n = 2 * L + 1
    rows = [_state_index(x, L) for x in _configs(h.basis)]
    block = full.matrix[np.ix_(rows, rows)].real
    assert np.abs(h.matrix.toarray() - block).max() < 1e-12


def test_vacuum_sector_matches_oracle():
    # the vacuum (all spins up) is state 0 of the 2^n basis and sector 0
    L, delta, beta = 2, 2.5, 0.6
    w = sample_field(UNIFORM, 2 * L + 1, PLAN, 18)
    full = oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta)
    h = xxz.build_h_sector(0, L, delta, beta, w)
    assert _configs(h.basis) == [()]
    assert _state_index((), L) == 0
    assert h.matrix.toarray().tolist() == [[0.0]]
    assert np.abs(full.matrix[0]).max() < 1e-12


@pytest.mark.parametrize("half_length", [2, 3, 4, 5])
def test_window_solver_matches_dense_eigh(monkeypatch, half_length):
    # the droplet Schur count and Lanczos pairs against a dense eigh of
    # every sector, for clean, weak and unit random fields
    delta, L = 3.0, half_length
    beta = xxz.min_boundary_weight(delta)
    dense_dims = []
    dense_eigh = xxz._dense_eigh

    def recorded(h):
        dense_dims.append((h.dim, int((h.basis.droplet_distance == 0).sum())))
        return dense_eigh(h)

    monkeypatch.setattr(xxz, "_dense_eigh", recorded)
    fields = [constant_field(0.0, 2 * L + 1)]
    for coupling in (0.1, 1.0):
        fields += [sample_field(DisorderSpec(coupling=coupling), 2 * L + 1,
                                PLAN, index) for index in (20, 21)]
    states = 0
    for w in fields:
        for n in range(2 * L + 2):
            h = xxz.build_h_sector(n, L, delta, beta, w)
            vals, vecs = np.linalg.eigh(h.matrix.toarray())
            for kind in ("I_delta", "I_0_delta"):
                window = xxz.spectral_window(delta, 0.5, kind)
                keep = window.contains(vals)
                e_ref, v_ref = vals[keep], vecs[:, keep]
                energies, vectors = xxz.eigenpairs_in_window(h, window)
                assert energies.size == e_ref.size
                assert np.abs(energies - e_ref).max(initial=0.0) < 1e-12
                # each vector lies in the dense eigenspace of its energy:
                # |<psi_dense, psi>| = 1 wherever the level is simple
                same = np.abs(e_ref[:, None] - energies[None, :]) < 1e-8
                weight = np.sqrt((((v_ref.T @ vectors) * same) ** 2).sum(axis=0))
                assert np.abs(weight - 1.0).max(initial=0.0) < 1e-8
                states += energies.size
    assert states
    # dense only where the droplets leave no room for k + 1 Lanczos pairs
    assert all(dim <= droplets + 1 for dim, droplets in dense_dims)


def test_ct_check_matches_oracle_inverse():
    # every entry, and one block norm, of the inverse of the shifted sector
    # block of the 2^n Hamiltonian, up to the top admissible energy
    L, delta, safety = 3, 2.0, 0.5
    beta = xxz.min_boundary_weight(delta)
    gap = 1.0 - 1.0 / delta
    w = sample_field(UNIFORM, 2 * L + 1, PLAN, 17)
    full = oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta)
    for n_part in (2, 3):
        h = xxz.build_h_sector(n_part, L, delta, beta, w)
        configs = _configs(h.basis)
        rows = [_state_index(x, L) for x in configs]
        droplet = [x[-1] - x[0] == n_part - 1 for x in configs]
        for energy in (0.0, 0.4, (2.0 - safety) * gap):
            shifted = (full.matrix[np.ix_(rows, rows)].real
                       + np.diag(np.where(droplet, gap, 0.0))
                       - energy * np.eye(len(rows)))
            inverse = np.linalg.inv(shifted)
            for i, a in enumerate(configs):
                for j, b in enumerate(configs):
                    measured, _ = xxz.ct_check(h, energy, safety, [a], [b])
                    assert abs(measured - abs(inverse[i, j])) < 1e-10
            # |A| = 3, |B| = 4, overlapping: the operator norm of a block
            # with several O(1) entries
            measured, _ = xxz.ct_check(h, energy, safety, configs[:3],
                                       configs[1:5])
            expect = np.linalg.norm(inverse[:3, 1:5], 2)
            assert abs(measured - expect) < 1e-10


@pytest.mark.parametrize("probe_site", [1, 3])
@pytest.mark.parametrize("spec", [
    DisorderSpec(kind="constant", support_min=0.0, support_max=0.0),
    DisorderSpec(coupling=4.0)])
def test_interior_xy_commutator_matches_oracle(probe_site, spec):
    from mblchain import experiments as ex
    n, grid = 8, (0.5, 2.0, 10.0)
    config = ex.ExperimentConfig(kind="xy_commutator", chain_length=n,
                                 disorder=spec, seeds=PLAN, probe_site=probe_site,
                                 distances=tuple(range(1, n - probe_site)),
                                 time_grid=grid)
    fast = ex._xy_commutator_profiles(config, 3, grid)
    w = sample_field(spec, n, PLAN, 3)
    full = oracle.diagonalize_full(oracle.build_full("xy", w))
    x = oracle.SiteObservable.of_kind("X", probe_site).embed(n)
    for d in config.distances:
        y = oracle.SiteObservable.of_kind("X", probe_site + d).embed(n)
        slow = [op for op, _ in oracle.commutator_norms(full, x, y, grid)]
        assert np.abs(fast[d] - slow).max() < 1e-10


def test_chain_spectrum_matches_oracle():
    L, delta, beta = 2, 4.0, 0.5
    w = sample_field(UNIFORM, 2 * L + 1, PLAN, 12)
    chain = xxz.ChainSpectrum(L, delta, beta, w)
    full = oracle.diagonalize_full(
        oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta))
    energies = np.sort(np.concatenate(
        [chain.spectrum(n)[0] for n in range(chain.n_sites + 1)]))
    assert np.abs(energies - full.energies).max() < 1e-10


@pytest.mark.parametrize("kind", ["I", "I_delta", "I_0_delta"])
@pytest.mark.parametrize("clean", [False, True])
def test_chain_correlator_matches_oracle_masses(kind, clean):
    L, delta, beta = 2, 6.0, 0.5
    n = 2 * L + 1
    # a weak random field, so every window kind holds states
    w = (constant_field(0.0, n) if clean
         else sample_field(DisorderSpec(coupling=0.2), n, PLAN, 13))
    chain = xxz.ChainSpectrum(L, delta, beta, w)
    window = xxz.spectral_window(delta, 0.5, kind)
    full = oracle.diagonalize_full(
        oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta))
    sel = (full.energies >= window.lower) & (full.energies <= window.upper)
    energies, _ = chain.window_blocks(window)
    assert energies.size == sel.sum() > 0
    assert np.abs(np.sort(energies) - full.energies[sel]).max() < 1e-10
    # per-state masses depend on the eigenbasis of a degenerate window,
    # which a clean chain's symmetry can make
    if np.diff(full.energies[sel]).min(initial=np.inf) < 1e-8:
        return
    number_ops = [oracle.SiteObservable.of_kind("N", j).embed(n)
                  for j in range(n)]
    expect = np.zeros((n, n))
    for col in np.flatnonzero(sel):
        psi = full.vectors[:, col]
        m = np.array([np.linalg.norm(op @ psi) for op in number_ops])
        expect += np.outer(m, m)
    masses = chain.site_mass_profile(window)
    got = masses.T @ masses
    for j in range(-L, L + 1):
        for k in range(j, L + 1):
            assert abs(got[j + L, k + L] - expect[j + L, k + L]) < 1e-8


def test_sector_correlator_metric_matches_oracle():
    from mblchain import experiments as ex
    # weak field, so the two-magnon droplet states fall in the window
    delta, n_part, weak = 6.0, 2, DisorderSpec(coupling=0.2)
    for L in (2, 3):
        config = ex.ExperimentConfig(kind="sector_correlator", half_length=L,
                                     n_particles=n_part, anisotropy=delta,
                                     distances=tuple(range(2 * L + 1)),
                                     disorder=weak, seeds=PLAN, safety=0.5)
        fast = ex.METRICS["sector_correlator"](config, 16 + L)
        n = 2 * L + 1
        w = sample_field(weak, n, PLAN, 16 + L)
        window = config.window()
        full = oracle.diagonalize_full(oracle.build_full(
            "xxz", w, anisotropy=delta,
            boundary_weight=config.effective_boundary_weight()))
        numbers = oracle.eigenstate_particle_numbers(full, n)
        sel = ((full.energies >= window.lower) & (full.energies <= window.upper)
               & (numbers == n_part))
        assert sel.sum() >= 2
        number_ops = [oracle.SiteObservable.of_kind("N", j).embed(n)
                      for j in range(n)]
        q = np.zeros((n, n))
        for col in np.flatnonzero(sel):
            psi = full.vectors[:, col]
            m = np.array([np.linalg.norm(op @ psi) for op in number_ops])
            q += np.outer(m, m)
        for d in config.distances:
            slow = np.mean([q[j, j + d] for j in range(n - d)])
            assert abs(fast[d] - slow) < 1e-8


@pytest.mark.parametrize("kind", ["I", "I_delta", "I_0_delta"])
def test_windowed_commutator_matches_oracle(kind):
    # a weak field puts window states in adjacent sectors, so sigma^x lifts
    # between them, out of the vacuum in I_0_delta
    L, delta, beta = 2, 6.0, 0.5
    w = sample_field(DisorderSpec(coupling=0.1), 2 * L + 1, PLAN, 14)
    chain = xxz.ChainSpectrum(L, delta, beta, w)
    window = xxz.spectral_window(delta, 0.5, kind)
    energies, x_mat = chain.window_sigma_x(window, -1)
    assert np.abs(x_mat).max() > 0.1
    sectors = set(chain.window_blocks(window)[1])
    assert {1, 2} <= sectors and (0 in sectors) == (kind == "I_0_delta")
    _, y_mat = chain.window_sigma_x(window, 2)
    grid = (0.0, 0.7, 3.0)
    fast = xxz.windowed_commutator_norms(energies, x_mat, y_mat, grid)

    n = 2 * L + 1
    full = oracle.diagonalize_full(
        oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta))
    x_full = oracle.SiteObservable.of_kind("X", -1).embed(n, offset=L)
    y_full = oracle.SiteObservable.of_kind("X", 2).embed(n, offset=L)
    slow = oracle.commutator_norms(full, x_full, y_full, grid,
                                   window=(window.lower, window.upper))
    for (f_op, f_tr), (s_op, s_tr) in zip(fast, slow):
        assert abs(f_op - s_op) < 1e-8
        assert abs(f_tr - s_tr) < 1e-8


def test_quasi_locality_probe_matches_oracle():
    delta, grid = 6.0, (0.8, 4.0)
    weak = DisorderSpec(coupling=0.1)
    # (L, site, window kind, field, seeds, boundary weight, window sectors)
    cases = [
        (2, 0, "I_delta", UNIFORM, PLAN, 0.5, [1]),
        (3, 2, "I_0_delta", UNIFORM, PLAN, 0.5, [0, 1, 2]),  # with the vacuum
        # a field above the window edge leaves the vacuum alone in it
        (3, 1, "I_0_delta", DisorderSpec(support_min=1.0, support_max=2.0),
         PLAN, 0.5, [0]),
        (3, -1, "I_delta", UNIFORM, PLAN, 0.5, [1, 2]),
        # a weak field puts higher sectors in the window, so the partial
        # trace reads inner weights above 2
        (3, 1, "I", weak, SeedPlan(0), xxz.min_boundary_weight(delta),
         [1, 2, 3, 4, 5, 6, 7]),
        (3, -2, "I_0_delta", weak, SeedPlan(0), 0.5, [0, 1, 2, 3, 4, 5]),
    ]
    for L, site, kind, spec, plan, beta, sectors in cases:
        w = sample_field(spec, 2 * L + 1, plan, 15)
        chain = xxz.ChainSpectrum(L, delta, beta, w)
        window = xxz.spectral_window(delta, 0.5, kind)
        energies, blocks = chain.window_blocks(window)
        assert sorted(blocks) == sectors
        probe = xxz.QuasiLocalityProbe(chain, site, window)

        n = 2 * L + 1
        full = oracle.diagonalize_full(
            oracle.build_full("xxz", w, anisotropy=delta, boundary_weight=beta))
        x = oracle.SiteObservable.of_kind("N", site)
        ells = range(2 * L)
        for ell in ells:
            slow = oracle.quasi_locality_error(
                full, x, ell, grid, (window.lower, window.upper), n, offset=L)
            for t, s in zip(grid, slow):
                assert abs(probe.errors_profile([ell], [t])[ell] - s) < 1e-8
        profile = probe.errors_profile(ells, grid)
        for ell in ells:
            assert profile[ell] == max(probe.errors_profile([ell], [t])[ell]
                                       for t in grid)
        # whole-chain truncation is exact
        assert probe.errors_profile([2 * L], [1.3])[2 * L] == 0.0
