import numpy as np
import pytest

from mblchain import oracle
from mblchain.disorder import DisorderSpec, SeedPlan, constant_field, sample_field
from mblchain.errors import ConfigurationError

PLAN = SeedPlan(60221)
UNIFORM = DisorderSpec()


def test_site_observable_embedding_commutes_off_site():
    a = oracle.SiteObservable.of_kind("X", 1).embed(4)
    b = oracle.SiteObservable.of_kind("N", 3).embed(4)
    assert np.abs(a @ b - b @ a).max() < 1e-14
    with pytest.raises(ConfigurationError):
        oracle.SiteObservable.of_kind("X", 5).embed(4)
    with pytest.raises(ConfigurationError):
        oracle.SiteObservable.of_kind("nope", 0)


def test_bond_matches_embedding_product():
    for n in (2, 3, 5):
        for a, b in ((oracle.SIGMA_X, oracle.SIGMA_X),
                     (oracle.SIGMA_Y, oracle.SIGMA_Y),
                     (oracle.SIGMA_Z, oracle.SIGMA_Z),
                     (oracle.LOWER, oracle.RAISE)):
            for j in range(n - 1):
                ref = oracle.embed_site(a, j, n) @ oracle.embed_site(b, j + 1, n)
                assert np.array_equal(oracle._bond(a, b, j, n), ref)


def test_single_site_xy():
    w = constant_field(0.7, 1)
    h = oracle.build_full("xy", w)
    assert np.abs(h.matrix - (-0.7) * oracle.SIGMA_Z).max() < 1e-14
    es = oracle.diagonalize_full(h)
    assert np.allclose(es.energies, [-0.7, 0.7])


def test_hermiticity_and_number_conservation():
    w = sample_field(UNIFORM, 5, PLAN, 0)
    total_n = oracle.total_number_operator(5)
    for model, kwargs in (("xxz", {"anisotropy": 3.0, "boundary_weight": 0.5}),
                          ("ising", {})):
        h = oracle.build_full(model, w, **kwargs)
        assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-12
        assert np.abs(h.matrix @ total_n - total_n @ h.matrix).max() < 1e-12


def test_xxz_vacuum_is_ground_state():
    w = sample_field(UNIFORM, 5, PLAN, 1)
    h = oracle.build_full("xxz", w, anisotropy=3.0, boundary_weight=0.5)
    vac = np.zeros(2 ** 5)
    vac[0] = 1.0
    assert np.abs(h.matrix @ vac).max() < 1e-12
    es = oracle.diagonalize_full(h)
    assert es.energies[0] == pytest.approx(0.0, abs=1e-12)
    assert es.energies[1] > 0.1  # gapped above the vacuum


def test_cap_and_parameter_validation():
    big = constant_field(0.0, 15)
    with pytest.raises(ConfigurationError):
        oracle.build_full("xy", big)
    w = constant_field(0.1, 5)
    with pytest.raises(ConfigurationError):
        oracle.build_full("xxz", w, anisotropy=0.5)
    with pytest.raises(ConfigurationError):
        oracle.build_full("xxz", w, anisotropy=2.0, boundary_weight=0.0)
    with pytest.raises(ConfigurationError):
        oracle.build_full("nonsense", w)


def test_jordan_wigner_car():
    modes = oracle.jordan_wigner_modes(5)
    assert oracle.car_defect(modes) < 1e-12
    # c_1 is the bare lowering operator
    assert np.abs(modes[0] - oracle.SiteObservable.of_kind("a", 0).embed(5)).max() == 0


def test_heisenberg_basics():
    w = sample_field(UNIFORM, 4, PLAN, 2)
    h = oracle.build_full("xy", w)
    es = oracle.diagonalize_full(h)
    x = oracle.SiteObservable.of_kind("X", 1).embed(4)
    assert np.abs(oracle.heisenberg(es, x, 0.0) - x).max() < 1e-12
    assert np.abs(oracle.heisenberg(es, h.matrix, 1.3) - h.matrix).max() < 1e-9


def test_commutator_norms_locality_at_t0():
    w = sample_field(UNIFORM, 5, PLAN, 3)
    es = oracle.diagonalize_full(oracle.build_full("xy", w))
    x = oracle.SiteObservable.of_kind("X", 0).embed(5)
    y = oracle.SiteObservable.of_kind("X", 4).embed(5)
    norms = oracle.commutator_norms(es, x, y, [0.0, 0.4])
    assert norms[0][0] < 1e-12
    assert norms[0][1] < 1e-12
    assert norms[1][0] > 1e-6  # information has started to spread


def test_correlation_trivial_cases():
    w = sample_field(UNIFORM, 4, PLAN, 5)
    es = oracle.diagonalize_full(oracle.build_full("xy", w))
    psi = es.vectors[:, 3]
    x = oracle.SiteObservable.of_kind("N", 1).embed(4)
    assert oracle.correlation(psi, x, np.eye(16)) < 1e-12
    # product state, disjoint supports
    up = np.zeros(2 ** 4)
    up[0] = 1.0
    y = oracle.SiteObservable.of_kind("N", 3).embed(4)
    assert oracle.correlation(up, x, y) < 1e-14


def test_reduced_entropy_properties():
    # product state
    psi = np.zeros(8)
    psi[5] = 1.0
    assert oracle.reduced_entropy(psi, 1) < 1e-12
    # maximally entangled pair
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert oracle.reduced_entropy(bell, 1) == pytest.approx(np.log(2))
    # complement symmetry
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(2 ** 6) + 1j * rng.standard_normal(2 ** 6)
    psi /= np.linalg.norm(psi)
    for ell in (1, 2, 3):
        a = oracle.reduced_entropy(psi, ell)
        rho = oracle.reduced_density_matrix(psi, range(ell, 6), 6)
        b = oracle.entropy_of_density_matrix(rho)
        assert abs(a - b) < 1e-9


def test_window_idempotence_and_evolution_commutes():
    w = sample_field(UNIFORM, 5, PLAN, 6)
    es = oracle.diagonalize_full(
        oracle.build_full("xxz", w, anisotropy=4.0, boundary_weight=0.5))
    window = (0.7, 1.1)
    p = oracle.window_projector(es, *window)
    x = oracle.SiteObservable.of_kind("N", 2).embed(5)
    xw = oracle.restrict(x, p)
    assert np.abs(oracle.restrict(xw, p) - xw).max() < 1e-12
    t = 0.9
    a = oracle.heisenberg(es, xw, t)
    b = oracle.restrict(oracle.heisenberg(es, x, t), p)
    assert np.abs(a - b).max() < 1e-10


def test_ising_exact_formula():
    w = sample_field(UNIFORM, 10, PLAN, 7)
    energies, labels = oracle.ising_exact(w)
    assert energies[0] == 0.0  # empty subset
    # spot value: X = {0, 2} has two clusters
    x = (1 << 9) | (1 << 7)
    assert energies[x] == pytest.approx(2.0 + w.values[0] + w.values[2])
    # clean multiplicities: eigenvalue k counted with all k-cluster subsets
    clean, _ = oracle.ising_exact(constant_field(0.0, 10))
    values, counts = np.unique(clean, return_counts=True)
    assert values[0] == 0.0 and counts[0] == 1
    # number of subsets of a 10-chain with exactly 1 cluster: 10+9+...+1
    assert counts[list(values).index(1.0)] == 55


def test_droplet_superposition_paths_and_growth():
    for ell in (1, 2, 4, 6):
        closed = oracle.droplet_superposition_entropy(ell, max(2 * ell, 2), "closed")
        assert closed == pytest.approx(np.log(ell))
    matrix = oracle.droplet_superposition_entropy(3, 6, "matrix")
    assert abs(matrix - np.log(3)) < 1e-10
    with pytest.raises(ConfigurationError):
        oracle.droplet_superposition_entropy(5, 6)


def test_particle_numbers_and_selection_rules():
    w = sample_field(UNIFORM, 5, PLAN, 8)
    es = oracle.diagonalize_full(
        oracle.build_full("xxz", w, anisotropy=3.0, boundary_weight=0.5))
    numbers = oracle.eigenstate_particle_numbers(es, 5)
    assert numbers.min() == 0 and numbers.max() == 5
    window = (0.5, 1.0)
    j, k = 1, 3
    for col in (3, 11, 17):
        psi = es.vectors[:, col]
        for kx, ky in oracle.VANISHING_CORRELATION_CASES:
            x = oracle.corner_observable(kx, j).embed(5)
            y = oracle.corner_observable(ky, k).embed(5)
            assert oracle.correlation(psi, x, y, es, window=window) < 1e-12
