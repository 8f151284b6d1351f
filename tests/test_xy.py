import numpy as np
import pytest
import scipy.linalg

from mblchain import cli, xy
from mblchain.disorder import DisorderSpec, SeedPlan, constant_field, sample_field
from mblchain.errors import ConfigurationError, DegeneracyError, NumericalError

PLAN = SeedPlan(271828)


def _es(n, index=0, coupling=1.0):
    spec = DisorderSpec(coupling=coupling)
    w = sample_field(spec, n, PLAN, index)
    return w, xy.diagonalize(w)


def _occupied(code, n):
    return ((code >> np.arange(n)) & 1) == 1


def test_effective_hamiltonian_structure():
    # M is the upper left block of block_m; the vacuum sits at E0 = -sum(w)
    w = constant_field(0.5, 4)
    m = xy.block_m(w, 0.0)[:4, :4]
    assert np.array_equal(np.diag(m), np.full(4, 0.5))
    assert m[0, 1] == -1.0 and m[2, 1] == -1.0 and m[0, 2] == 0.0
    es = xy.diagonalize(w)
    assert xy.eigenstate_energy(es, np.zeros(4, dtype=bool), -w.sum()) == -2.0


def test_certificates_fail_on_nan(monkeypatch):
    # every certificate comparison is written so that NaN fails it
    with pytest.raises(NumericalError, match="resid=nan"):
        xy.check_eigenpairs(np.eye(3), np.nan, 1.0)
    with pytest.raises(NumericalError, match="ortho=nan"):
        xy.check_eigenpairs(np.full((3, 3), np.nan), 0.0, 1.0)
    n = xy.DENSE_LIMIT + 8
    vals, vecs = np.arange(n, dtype=float), np.eye(n)
    with pytest.raises(NumericalError, match="resid=nan"):
        xy.check_tridiagonal_pairs(np.zeros(n), np.where(vals == 3, np.nan, vals), vecs)
    with pytest.raises(NumericalError, match="resid=nan"):
        xy.check_tridiagonal_pairs(np.zeros(n), vals, np.where(vecs == 1, np.nan, vecs))
    with pytest.raises(DegeneracyError, match="gap nan"):
        xy.eigenstate_block_entropy(xy.EigenSystem(np.array([0.0, np.nan]), np.eye(2)),
                                    np.zeros(2, dtype=bool), 1)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([0.5, np.nan]))
    with pytest.raises(NumericalError, match="correlation spectrum -min=nan"):
        xy.occupation_spectra(np.eye(2) / 2)


def test_diagonalize_matches_dense():
    w, es = _es(50, 1)
    dense_vals = np.linalg.eigvalsh(xy.block_m(w, 0.0)[:50, :50])
    assert np.abs(es.eigenvalues - dense_vals).max() < 1e-10


_BOUND = pytest.mark.skipif(xy._DSTEVD is None, reason="no dstevd symbol in numpy's LAPACK")


@pytest.mark.parametrize("dense", [pytest.param(False, marks=_BOUND), True])
def test_diagonalize_rejects_swapped_eigenvectors(monkeypatch, capsys,
                                                  tmp_path, dense):
    # swapping two eigenvector columns keeps O orthogonal, so only the
    # residual (the tridiagonal stencil, or xy-aniso's dense check) can
    # catch it, from the bound dstevd or from numpy's eigh, its fallback
    module, name = (np.linalg, "eigh") if dense else (xy, "_dstevd")
    solver = getattr(module, name)

    def swapped(*args):
        vals, vecs = solver(*args)
        return vals, vecs[:, [1, 0, *range(2, vals.size)]]

    monkeypatch.setattr(module, name, swapped)
    if dense:
        code = cli.main(["xy-aniso", "--chain-length", "25", "--gamma", "0.3",
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NUMERICAL
        assert "resid" in capsys.readouterr().err
        monkeypatch.setattr(xy, "_DSTEVD", None)   # no symbol: the dense fallback
    for n in (xy.DENSE_LIMIT - 1, xy.DENSE_LIMIT + 1):   # both certificates
        with pytest.raises(NumericalError, match="resid"):
            _es(n, 1)


def _tridiagonal_pairs(w):
    return scipy.linalg.eigh_tridiagonal(w, np.full(w.size - 1, -1.0))


def test_tridiagonal_certificate_takes_gram_rows_for_close_pairs():
    # the Davis-Kahan bound proves every column but a few of close eigenvalues
    # (neighbours within 1e-4), and those get Gram rows: the clean chain's band
    # edges at L = 1000, a disordered chain's near-degenerate pairs at L = 400
    for w in (constant_field(0.5, 1000), sample_field(DisorderSpec(coupling=4.0), 400, PLAN, 0)):
        vals, vecs = _tridiagonal_pairs(w)
        gaps = np.diff(vals)
        nearest = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        rows = xy.check_tridiagonal_pairs(w, vals, vecs)
        assert 0 < rows.size <= 20 and (nearest[rows] < 1e-4).all()
        assert rows.size < (nearest < 1e-4).sum()
    # two mirror images behind a barrier have pairs of equal eigenvalues: the
    # residual intervals meet, the count fails, and every column gets its row
    half = sample_field(DisorderSpec(), 30, PLAN, 1)
    w = np.r_[half, np.full(8, 100.0), half[::-1]]
    vals, vecs = _tridiagonal_pairs(w)
    assert np.diff(vals).min() < 1e-14
    assert np.array_equal(xy.check_tridiagonal_pairs(w, vals, vecs), np.arange(w.size))
    # up to DENSE_LIMIT, check_eigenpairs' full Gram
    w = constant_field(0.5, xy.DENSE_LIMIT)
    assert np.array_equal(xy.check_tridiagonal_pairs(w, *_tridiagonal_pairs(w)),
                          np.arange(w.size))


@pytest.mark.parametrize("k", [0, 200, 398])
def test_tridiagonal_certificate_rejects_mixed_columns(k):
    # 1e-8 of the next column mixed into column k keeps its residual far below
    # 1e-9 of the scale: only the orthogonality proof can reject the pair
    w = sample_field(DisorderSpec(coupling=4.0), 400, PLAN, 12)
    vals, vecs = _tridiagonal_pairs(w)
    xy.check_tridiagonal_pairs(w, vals, vecs)
    vecs[:, k] += 1e-8 * vecs[:, k + 1]
    vecs[:, k] /= np.linalg.norm(vecs[:, k])
    resid = (w - vals[k]) * vecs[:, k] - np.r_[0.0, vecs[:-1, k]] - np.r_[vecs[1:, k], 0.0]
    assert np.linalg.norm(resid) < 1e-9 * np.abs(w).max()
    with pytest.raises(NumericalError, match=r"ortho=1\.00e-08"):
        xy.check_tridiagonal_pairs(w, vals, vecs)


_SIZES = (1, 2, xy.DENSE_LIMIT, xy.DENSE_LIMIT + 1, 400, 1000)


def _fields(coupling):
    return [sample_field(DisorderSpec(coupling=coupling), n, PLAN, n) if coupling
            else constant_field(0.0, n) for n in _SIZES]


@pytest.mark.parametrize("coupling", [0.0, 1.0, 4.0])
def test_diagonalize_bits_equal_dense_eigh(coupling):
    # the bound dstevd and numpy's eigh on the dense M run one LAPACK build's
    # dstedc, so their pairs agree bit for bit
    for w in _fields(coupling):
        es = xy.diagonalize(w)
        vals, vecs = np.linalg.eigh(np.diag(w) - np.eye(w.size, k=1) - np.eye(w.size, k=-1))
        assert np.array_equal(es.eigenvalues, vals), w.size
        assert np.array_equal(es.eigenvectors, vecs), w.size


def test_diagonalize_falls_back_to_dense_eigh_with_the_same_bits(monkeypatch):
    # with no dstevd symbol, diagonalize takes numpy's eigh on the dense M
    fields = _fields(4.0)
    bound = [xy.diagonalize(w) for w in fields]
    monkeypatch.setattr(xy, "_DSTEVD", None)
    monkeypatch.setattr(xy, "_dstevd", None)   # never called
    for w, es in zip(fields, bound):
        fallback = xy.diagonalize(w)
        assert np.array_equal(fallback.eigenvalues, es.eigenvalues), w.size
        assert np.array_equal(fallback.eigenvectors, es.eigenvectors), w.size


@_BOUND
def test_diagonalize_reports_a_lapack_failure(monkeypatch, capsys, tmp_path):
    # a nonzero dstevd info (dstedc failed to converge) is a NumericalError,
    # CLI exit 3, whatever the pairs hold
    bound = xy._DSTEVD

    def failing(*args):
        bound(*args)
        args[10].value = 5   # info

    monkeypatch.setattr(xy, "_DSTEVD", failing)
    with pytest.raises(NumericalError, match=r"\|info\|=5\.00e\+00"):
        _es(40, 1)
    code = cli.main(["xy-entropy", "--chain-length", "40", "--block-sizes", "5",
                     "--sup-samples", "4", "--realizations", "1", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    assert "|info|" in capsys.readouterr().err


@pytest.mark.parametrize("coupling", [0.0, 1.0, 4.0])
def test_diagonalize_paths_match_eigh_tridiagonal(coupling):
    # scipy's eigenpairs to rounding (bit equality would pin numpy and scipy
    # to one LAPACK build), each eigenvector up to its sign
    for w in _fields(coupling):
        es = xy.diagonalize(w)
        vals, vecs = scipy.linalg.eigh_tridiagonal(w, np.full(w.size - 1, -1.0))
        assert np.abs(es.eigenvalues - vals).max() <= 1e-12, w.size
        signs = np.sign(np.sum(es.eigenvectors * vecs, axis=0))
        assert np.abs(es.eigenvectors - vecs * signs).max() <= 1e-12, w.size


def test_eigencorrelator_bounds_functions():
    w, es = _es(30, 2, coupling=4.0)
    # |g(M)_jk| <= eigencorrelator for several |g| <= 1
    for t in (0.3, 2.0, 11.0):
        u = (es.eigenvectors * np.exp(-1j * t * es.eigenvalues)) @ es.eigenvectors.T
        for j, k in ((0, 7), (3, 20), (10, 29)):
            assert abs(u[j, k]) <= xy.eigencorrelator(es, j, k) + 1e-12
    sign = (es.eigenvectors * np.sign(es.eigenvalues)) @ es.eigenvectors.T
    assert abs(sign[2, 17]) <= xy.eigencorrelator(es, 2, 17) + 1e-12


def test_dynamical_kernel_trivial_cases():
    w, es = _es(12, 3)
    assert xy.dynamical_kernel(es, [0.0], 4, 4) == pytest.approx(1.0)
    assert xy.dynamical_kernel(es, [0.0], 4, 9) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        xy.dynamical_kernel(es, [], 0, 1)


def test_vacuum_and_full_patterns():
    w, es = _es(8, 4)
    vac = xy.eigenstate_correlation_matrix(es, np.zeros(8, dtype=bool))
    assert np.abs(vac - np.eye(8)).max() < 1e-12
    full = xy.eigenstate_correlation_matrix(es, np.ones(8, dtype=bool))
    assert np.abs(full).max() < 1e-12
    # energies: vacuum sits at the ground offset
    assert xy.eigenstate_energy(es, np.zeros(8, dtype=bool),
                                -w.sum()) == pytest.approx(-w.sum())


def test_degeneracy_detection():
    # a repeated one-particle eigenvalue
    es = xy.EigenSystem(np.array([1.0, 1.0]), np.eye(2))
    with pytest.raises(DegeneracyError):
        xy.eigenstate_correlation_matrix(es, _occupied(1, 2))


def test_thermal_limits():
    w, es = _es(10, 5)
    hot = xy.thermal_correlation_matrix(es, 0.0)
    assert np.abs(hot - 0.5 * np.eye(10)).max() < 1e-12
    cold = xy.thermal_correlation_matrix(es, 200.0)
    positive = es.eigenvectors[:, es.eigenvalues > 0]
    assert np.abs(cold - positive @ positive.T).max() < 1e-8
    with pytest.raises(ValueError):
        xy.thermal_correlation_matrix(es, -1.0)


def test_entropy_basics():
    w, es = _es(10, 6)
    gamma = xy.eigenstate_correlation_matrix(es, _occupied(301, 10))
    for ell in (1, 4, 9):
        s = xy.entanglement_entropy(gamma[:ell, :ell])
        assert 0.0 <= s <= ell * np.log(2) + 1e-12
    # complement symmetry of the pure state
    s_left = xy.entanglement_entropy(gamma[:4, :4])
    s_right = xy.entanglement_entropy(gamma[4:, 4:])
    assert abs(s_left - s_right) < 1e-9


def test_binary_entropy_matches_scipy():
    import warnings
    from scipy.special import entr, xlog1py
    tiny = np.logspace(-300, -1, 600)
    x = np.concatenate([np.linspace(0.0, 1.0, 1001), tiny, 1.0 - tiny,
                        [5e-324, 1e-310, 1.0 - 1e-17, np.nextafter(1.0, 0.0)]])
    with warnings.catch_warnings(), np.errstate(divide="raise",
                                                invalid="raise", over="raise"):
        warnings.simplefilter("error")
        h = xy.binary_entropy(x)
        ends = xy.binary_entropy(np.array([0.0, 1.0]))
    assert np.abs(h - (entr(x) - xlog1py(1.0 - x, -x))).max() <= 4e-16
    assert ends.tolist() == [0.0, 0.0] and not np.signbit(ends).any()


def test_block_entropy_fast_path_matches():
    w, es = _es(12, 7)
    occupied = _occupied(1234, 12)
    gamma = xy.eigenstate_correlation_matrix(es, occupied)
    for ell in (2, 6, 11):
        slow = xy.entanglement_entropy(gamma[:ell, :ell])
        fast = xy.eigenstate_block_entropy(es, occupied, ell)
        assert abs(slow - fast) < 1e-10


@pytest.mark.parametrize("n", [12, 40])   # both diagonalize branches
def test_quench_blocks_match_dense_evolution(n):
    # the naive reference: Gamma_0 = diag(Gamma_A, Gamma_B) on the whole
    # chain, U = exp(-2 i M t) in full, and the block of U Gamma_0 U*
    w, es = _es(n, 17)
    times = (0.0, 0.3, 50.0)
    for ell in (1, n // 2, n - 1):
        left, right = xy.diagonalize(w[:ell]), xy.diagonalize(w[ell:])
        occ_a, occ_b = _occupied(0x5A5A5A5A5A, ell), _occupied(0x36C9B36C9B, n - ell)
        gamma0 = np.zeros((n, n))
        gamma0[:ell, :ell] = xy.eigenstate_correlation_matrix(left, occ_a)
        gamma0[ell:, ell:] = xy.eigenstate_correlation_matrix(right, occ_b)
        blocks = list(xy.quench_blocks(es, left, occ_a, right, occ_b, times))
        assert len(blocks) == len(times)
        for t, block in zip(times, blocks):
            u = (es.eigenvectors * np.exp(-2j * t * es.eigenvalues)) @ es.eigenvectors.T
            assert block.shape == (ell, ell)
            assert np.abs(block - (u @ gamma0 @ u.conj().T)[:ell, :ell]).max() < 1e-12
        assert np.abs(blocks[0] - gamma0[:ell, :ell]).max() < 1e-12
        # the all-empty product state is the vacuum, Gamma = I at every time;
        # an eigenvalue 1 - 1e-15 adds -h = 1e-15 log 1e15 = 3.5e-14 nats
        vacuum = xy.quench_blocks(es, left, np.zeros(ell, dtype=bool),
                                  right, np.zeros(n - ell, dtype=bool), times)
        for block in vacuum:
            assert np.abs(block - np.eye(ell)).max() < 1e-12
            assert xy.entanglement_entropy(block) < ell * 1e-13


def test_anisotropic_block_antisymmetry():
    w = sample_field(DisorderSpec(), 6, PLAN, 10)
    block = xy.block_m(w, 0.3)
    L = 6
    k = block[:L, L:]
    assert np.abs(k + k.T).max() == 0.0
    assert np.abs(block + np.block([[block[L:, L:], block[L:, :L]],
                                    [block[:L, L:], block[:L, :L]]]).T).max() < 1e-14


def _block_m_reference(w, gamma):
    # the former dense builds of the anisotropic block and of M
    L = w.size
    k = np.zeros((L, L))
    idx = np.arange(L - 1)
    k[idx, idx + 1] = -float(gamma)
    k[idx + 1, idx] = float(gamma)
    m = np.diag(w)
    m[idx, idx + 1] = -1.0
    m[idx + 1, idx] = -1.0
    return np.block([[m, k], [-k, -m]])


@pytest.mark.parametrize("gamma", [0.0, 0.3, -0.7])
@pytest.mark.parametrize("L", [1, 2, 6])
def test_block_m_matches_reference(gamma, L):
    w = sample_field(DisorderSpec(), L, PLAN, 15)
    block, ref = xy.block_m(w, gamma), _block_m_reference(w, gamma)
    assert block.shape == (2 * L, 2 * L)
    assert np.array_equal(block, ref)
    assert np.array_equal(np.signbit(block), np.signbit(ref))


def test_sup_strategy_exhaustive_vs_sampled(monkeypatch):
    w, es = _es(10, 11, coupling=4.0)
    assert es.size <= xy._EXHAUSTIVE_LIMIT
    exhaustive = xy.sample_eigenstate_entropy_sup(es, [5])[5]
    monkeypatch.setattr(xy, "_EXHAUSTIVE_LIMIT", 2)
    sampled = xy.sample_eigenstate_entropy_sup(
        es, [5], 400, rng=np.random.default_rng(5))[5]
    assert sampled <= exhaustive + 1e-12
    assert sampled >= 0.5 * exhaustive


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        xy.entanglement_entropy(np.zeros((2, 3)))
    with pytest.raises(NumericalError):
        xy.entanglement_entropy(np.diag([1.5, 0.2]))


def _entropies_on(es, ell, modes, occupied):
    # one eigvalsh per pattern, on the given modes only, in the stacked
    # sup's arithmetic: the gram gather for c <= ell, o_a o_a^T for c > ell
    o_a = es.eigenvectors[:ell, modes]
    gram = o_a.T @ o_a
    out = np.zeros(len(occupied))
    for i, empty in enumerate(~np.asarray(occupied)[:, modes]):
        if empty.sum() > ell:
            out[i] = xy.entanglement_entropy(o_a[:, empty] @ o_a[:, empty].T)
        elif empty.any():
            out[i] = xy.entanglement_entropy(gram[np.ix_(empty, empty)])
    return out


def _smaller_halves(occupied, modes):
    # each pattern with its empty and occupied modes swapped on the given modes
    # where more than half are empty: a screen's particle-hole half
    occupied = np.array(occupied)
    flip = 2 * (~occupied[:, modes]).sum(axis=1) > modes.size
    occupied[np.ix_(flip, modes)] ^= True
    return occupied


def _sup_per_pattern(es, ell, samples=200, rng=None):
    # the former loop, one eigvalsh per pattern and no screen: the
    # bit-identity reference for the stacked, screened sup
    L = es.size
    kept, _ = xy.straddling_modes(es, ell)
    if L <= xy._EXHAUSTIVE_LIMIT or 2 ** L <= samples:
        occupied = ((np.arange(2 ** L)[:, None] >> np.arange(L)) & 1).astype(bool)
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        occupied = np.array([rng.integers(0, 2, size=L) == 1 for _ in range(samples)])
    return max(0.0, float(_entropies_on(es, ell, kept, occupied).max()))


def _sampled_patterns(es, samples, seed):
    # the patterns the sup visits at every cut: the random ones, drawn once
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=es.size) == 1 for _ in range(samples)]


@pytest.mark.parametrize("field, ells, kept_range", [
    ("strong", (25, 100, 200), (1, 200)),     # most modes dropped
    ("weak", (50, 200), (200, 400)),
    ("clean", (25, 200), (360, 400)),         # K holds nearly every mode
])
def test_sup_on_straddling_modes_matches_exact(field, ells, kept_range):
    n = 400
    if field == "clean":
        es = xy.diagonalize(constant_field(0.5, n))
    else:
        es = _es(n, 12, coupling=4.0 if field == "strong" else 1.0)[1]
    fast = xy.sample_eigenstate_entropy_sup(es, ells, 40, rng=np.random.default_rng(7))
    assert list(fast) == list(ells)
    tols = (*xy._SCREEN_TOL, xy._TRUNC_TOL)
    for ell in ells:
        kept, bound = xy.straddling_modes(es, ell)
        assert kept_range[0] <= kept.size <= kept_range[1]
        assert bound <= xy._TRUNC_TOL
        # the same kept modes and bounds as from a gathered copy
        ladder = xy.straddling_modes(es, ell, tols)
        reference = _straddling_reference(es, ell, tols)
        assert len(ladder) == len(reference) == len(tols)
        for got, want in zip(ladder, reference):
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and type(a) is type(b)
        exact = max(xy.eigenstate_block_entropy(es, p, ell)
                    for p in _sampled_patterns(es, 40, 7))
        assert abs(fast[ell] - exact) <= bound + 1e-11


def _straddling_reference(es, ell, tols):
    # straddling_modes with the right masses summed over the gathered
    # (L - ell) x L copy o[ell:, order[::-1]], the former arithmetic
    L, o = es.size, es.eigenvectors
    left = (o[:ell] ** 2).sum(axis=0)
    order = np.argsort(left)
    low = xy._drop_bound(left[order], ell)
    high = xy._drop_bound((o[ell:, order[::-1]] ** 2).sum(axis=0), L - ell)
    out = []
    for t in tols:
        top = np.searchsorted(high, t - low, side="right") - 1
        bottom = int(np.argmax(np.where(top >= 0, np.arange(L + 1) + top, -1)))
        out.append((order[bottom:L - top[bottom]], float(low[bottom] + high[top[bottom]])))
    return out


def test_sup_exhaustive_matches_exact(monkeypatch):
    n = 10
    w, es = _es(n, 13, coupling=4.0)
    patterns = [_occupied(c, n) for c in range(2 ** n)]
    sups = xy.sample_eigenstate_entropy_sup(es, range(1, n))
    assert list(sups) == list(range(1, n))
    for ell in range(1, n):
        _, bound = xy.straddling_modes(es, ell)
        assert bound <= xy._TRUNC_TOL
        assert sups[ell] == _sup_per_pattern(es, ell)
        exact = max(xy.eigenstate_block_entropy(es, p, ell) for p in patterns)
        assert abs(sups[ell] - exact) <= bound + 1e-11
    # three codes per chunk: the cuts, of 2^k codes each for different k,
    # run out of chunks at different rounds
    monkeypatch.setattr(xy, "_STACK_ENTRIES", 3 * n)
    assert xy.sample_eigenstate_entropy_sup(es, range(1, n)) == sups


def _empty_counts(es, ell, samples, seed):
    kept, _ = xy.straddling_modes(es, ell)
    return np.array([(~p[kept]).sum() for p in _sampled_patterns(es, samples, seed)])


class _RecordingRng:
    # a Generator that records the shape of each integers() draw
    def __init__(self, seed):
        self.generator, self.sizes = np.random.default_rng(seed), []

    def integers(self, *args, size, **kwargs):
        self.sizes.append(size)
        return self.generator.integers(*args, size=size, **kwargs)


@pytest.mark.parametrize("stack_entries", [None, 400])
def test_stacked_sup_is_bit_identical_on_random_patterns(monkeypatch,
                                                        stack_entries):
    if stack_entries:                # split every stack into several calls
        monkeypatch.setattr(xy, "_STACK_ENTRIES", stack_entries)
    es = _es(400, 12, coupling=4.0)[1]
    samples, ells, seed = 200, (25, 50, 100, 200), 9
    rng = _RecordingRng(seed)
    stacked = xy.sample_eigenstate_entropy_sup(es, ells, samples, rng)
    assert list(stacked) == list(ells)
    wide = narrow = False            # blocks from o_a o_a^T, from the gram
    for ell in ells:
        assert stacked[ell] == _sup_per_pattern(es, ell, samples,
                                                np.random.default_rng(seed))
        counts = _empty_counts(es, ell, samples, seed)
        wide |= (counts > ell).any()
        narrow |= ((counts > 0) & (counts <= ell)).any()
    assert wide and narrow
    # one set of patterns for all cuts, drawn in chunks of at most
    # _STACK_ENTRIES entries, leaves the generator where one call would
    assert all(np.prod(size) <= max(xy._STACK_ENTRIES, 400) for size in rng.sizes)
    assert sum(rows for rows, _ in rng.sizes) == samples
    assert len(rng.sizes) == (samples if stack_entries else 1)
    whole = np.random.default_rng(seed)
    whole.integers(0, 2, size=(samples, 400))
    assert rng.generator.bit_generator.state == whole.bit_generator.state


def test_sup_takes_unsorted_repeated_block_sizes():
    # one entry per distinct size, in first-seen order, each the float of a
    # call for that size alone, and still one draw of all the patterns
    es = _es(400, 12, coupling=4.0)[1]
    rng = _RecordingRng(3)
    sups = xy.sample_eigenstate_entropy_sup(es, (200, 25, 25), 200, rng)
    assert list(sups) == [200, 25]
    for ell in (200, 25):
        assert sups[ell] == _sup_per_pattern(es, ell, 200, np.random.default_rng(3))
        assert sups[ell] == xy.sample_eigenstate_entropy_sup(
            es, [ell], 200, np.random.default_rng(3))[ell]
    assert rng.sizes == [(200, 400)]


@pytest.mark.parametrize("seed", range(5))
def test_one_call_pattern_draw_matches_row_draws(seed):
    rows, whole = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = np.array([rows.integers(0, 2, size=400) for _ in range(200)])
    assert np.array_equal(whole.integers(0, 2, size=(200, 400)), drawn)
    assert rows.bit_generator.state == whole.bit_generator.state


def test_stacked_sup_calls_eigvalsh_once_per_empty_count(monkeypatch):
    # one pass per level: the screens at each _SCREEN_TOL over the patterns
    # the level before passed on (the first over all), then the full solve;
    # each pass makes one stacked eigvalsh per distinct block size over all
    # cuts, in ascending size: min(count, ell) for the full solve, and
    # min(count, |K| - count, ell) for a screen, which takes each pattern's
    # smaller particle-hole half on its modes K
    es = _es(400, 12, coupling=4.0)[1]
    ells, tols = (25, 50, 100, 200), (*xy._SCREEN_TOL, xy._TRUNC_TOL)
    cuts = [xy.straddling_modes(es, ell, tols) for ell in ells]
    rows = [np.array(_sampled_patterns(es, 200, 4)) for _ in ells]
    expected = []
    for k in range(len(tols)):
        sizes = []
        for i, (ell, c) in enumerate(zip(ells, cuts)):
            modes, bound = c[k]
            seen = rows[i] if k == len(xy._SCREEN_TOL) else _smaller_halves(rows[i], modes)
            counts = (~seen[:, modes]).sum(axis=1)
            if k < len(xy._SCREEN_TOL):
                assert np.array_equal(counts, np.minimum(counts, modes.size - counts))
            sizes += list(np.minimum(counts, ell)[counts > 0])
            s = _entropies_on(es, ell, modes, seen)
            rows[i] = rows[i][s >= s.max() - 2 * (bound + c[-1][1] + xy._TRUNC_TOL)]
        n, depth = np.unique(sizes, return_counts=True)
        expected += [(d, m, m) for m, d in zip(n, depth)]
    # the screens pass on fewer and fewer patterns, the full solve 1-5 per cut
    assert all(1 <= len(r) <= 5 for r in rows)
    assert all(c[0][0].size < c[1][0].size < c[2][0].size for c in cuts)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    xy.sample_eigenstate_entropy_sup(es, ells, rng=np.random.default_rng(4))
    monkeypatch.undo()
    assert shapes == expected


class _WatchedSquares(np.ndarray):
    # eigenvectors that log each squaring
    log = []

    def __pow__(self, power):
        self.log.append("squared")
        return np.asarray(self) ** power


def test_sup_checks_squared_eigenvectors_before_squaring(monkeypatch, memory_budget):
    # the 8 L^2 bytes of the squared eigenvectors, which every cut's masses
    # read, are checked before they are allocated, then counted with the
    # stacked grams
    es, ells = _es(400, 12, coupling=4.0)[1], (25, 200)
    kept = [xy.straddling_modes(es, ell)[0].size for ell in ells]
    grams = 8 * (400 * 400 + sum(kept) * max(kept))
    watched = xy.EigenSystem(es.eigenvalues, es.eigenvectors.view(_WatchedSquares))
    log = _WatchedSquares.log = []
    monkeypatch.setattr(xy, "require_memory", lambda nbytes, what: log.append(nbytes))
    sups = xy.sample_eigenstate_entropy_sup(watched, ells, rng=np.random.default_rng(1))
    assert log == [8 * 400 * 400, "squared", grams]
    assert sups == xy.sample_eigenstate_entropy_sup(es, ells, rng=np.random.default_rng(1))
    monkeypatch.undo()
    for budget, what in ((8 * 400 * 400 - 1, "the squared eigenvectors"),
                         (grams - 1, "the entropy sup over 2 cuts")):
        memory_budget(budget)
        with pytest.raises(ConfigurationError, match=f"{what} needs"):
            xy.sample_eigenstate_entropy_sup(es, ells, rng=np.random.default_rng(1))


@pytest.mark.parametrize("field", ["strong", "weak", "clean", "exhaustive"])
def test_screen_never_moves_the_sup(monkeypatch, field):
    # the screens only prune patterns that cannot hold the maximum, for any
    # ladder of screening tolerances, also when the running maxima cross chunks;
    # they take each pattern's smaller particle-hole half, the full solve (the
    # unscreened reference) the pattern itself
    if field == "exhaustive":        # rng and samples unused: all 2^10
        es, ells = _es(10, 13, coupling=4.0)[1], range(1, 10)
        patterns = {ell: [_occupied(c, 10) for c in range(2 ** 10)] for ell in ells}
    else:
        es = (xy.diagonalize(constant_field(0.5, 400)) if field == "clean"
              else _es(400, 12, coupling=4.0 if field == "strong" else 1.0)[1])
        ells = (25, 200)
        patterns = {ell: _sampled_patterns(es, 200, 6) for ell in ells}
    exact = {ell: _sup_per_pattern(es, ell, 200, np.random.default_rng(6)) for ell in ells}
    stacked = xy._stacked_entropies
    for ladder in ((0.3, 1e-2), (1e-2,), (1e-6,), (1e-1, 1e-2)):
        for stack in (None, 20 * es.size):  # chunks of 20 patterns
            monkeypatch.setattr(xy, "_SCREEN_TOL", ladder)
            if stack:
                monkeypatch.setattr(xy, "_STACK_ENTRIES", stack)
            calls = []
            monkeypatch.setattr(xy, "_stacked_entropies",
                                lambda jobs: calls.append(jobs) or stacked(jobs))
            assert xy.sample_eigenstate_entropy_sup(
                es, ells, 200, np.random.default_rng(6)) == exact
            monkeypatch.undo()
            levels = len(ladder) + 1     # one call per level and round, the full solve last
            assert all((2 * e.sum(axis=1) <= modes.size).all()
                       for i, jobs in enumerate(calls) if i % levels < len(ladder)
                       for _, modes, e in jobs)
        # the first screen sees every pattern, and some of them it takes flipped
        first = [xy.straddling_modes(es, ell, ladder[0])[0] for ell in ells]
        assert any((2 * (~np.array(patterns[ell])[:, modes]).sum(axis=1) > modes.size).any()
                   for ell, modes in zip(ells, first))


def test_screen_certificate_at_loose_tolerance():
    # every pattern's screened entropy lies within the two bounds of its
    # full-precision one, and within the screen's bound of the exact one
    es = _es(400, 12, coupling=4.0)[1]
    ell = 25
    patterns = np.array(_sampled_patterns(es, 200, ell))
    exact = np.array([xy.eigenstate_block_entropy(es, p, ell) for p in patterns])
    for tol in xy._SCREEN_TOL:
        (screen, err_s), (kept, err) = xy.straddling_modes(es, ell, (tol, xy._TRUNC_TOL))
        assert tol / 100 < err_s <= tol and screen.size < kept.size
        s_screen = _entropies_on(es, ell, screen, patterns)
        s_full = _entropies_on(es, ell, kept, patterns)
        assert np.abs(s_screen - s_full).max() <= err_s + err + 1e-12
        assert np.abs(s_screen - exact).max() <= err_s + 1e-12
        assert np.abs(s_screen - s_full).max() > 1e-6   # the screen does truncate


@pytest.mark.parametrize("outside", [-1e-9, 1 + 1e-9])
def test_stacked_spectra_outside_unit_interval_raise(outside):
    half = np.eye(2) / 2
    with pytest.raises(NumericalError):
        xy.occupation_spectra(np.stack([half, np.diag([0.5, outside]), half]))
    near = np.diag([-1e-11, 1 + 1e-11])  # within the clamp: clipped
    assert np.array_equal(xy.occupation_spectra(np.stack([half, near]))[1],
                          [0.0, 1.0])


@pytest.mark.parametrize("ell", [10, 20])
def test_drop_bound_covers_entropy_change(ell):
    # the certificate at masses far above rounding: drop the i modes of
    # smallest left mass from every pattern and compare with the bound
    n = 40
    w, es = _es(n, 14, coupling=4.0)
    left = (es.eigenvectors[:ell] ** 2).sum(axis=0)
    order = np.argsort(left)
    bounds = xy._drop_bound(left[order], ell)
    counts = np.flatnonzero((bounds > 1e-8) & (bounds < np.inf))
    assert counts.size >= 5
    rng = np.random.default_rng(14)
    for i in counts:
        for _ in range(20):
            occupied = rng.integers(0, 2, size=n) == 1
            dropped = occupied.copy()
            dropped[order[:i]] = True       # occupied: out of the empty set
            change = abs(xy.eigenstate_block_entropy(es, occupied, ell)
                         - xy.eigenstate_block_entropy(es, dropped, ell))
            assert change <= bounds[i]


@pytest.mark.parametrize("occupied", [np.array([1, 0, 1, 1, 0, 0]),
                                      np.zeros(5, dtype=bool)],
                         ids=["int01", "short"])
@pytest.mark.parametrize("consumer", ["energy", "correlation",
                                      "block_entropy", "quench"])
def test_occupation_must_be_boolean_of_chain_length(consumer, occupied):
    # checked, not cast: ~ on an int 0/1 vector would select wrong modes
    w, es = _es(6, 16)
    w9, chain = _es(9, 16)
    call = {
        "energy": lambda o: xy.eigenstate_energy(es, o, -w.sum()),
        "correlation": lambda o: xy.eigenstate_correlation_matrix(es, o),
        "block_entropy": lambda o: xy.eigenstate_block_entropy(es, o, 3),
        # the left factor of a 9-site chain cut at 6
        "quench": lambda o: next(xy.quench_blocks(
            chain, xy.diagonalize(w9[:6]), o, xy.diagonalize(w9[6:]),
            np.zeros(3, dtype=bool), (1.0,))),
    }[consumer]
    with pytest.raises(ValueError, match="boolean vector of length 6"):
        call(occupied)
    assert np.isfinite(call(np.array([True, False, True, True, False, False]))).all()
