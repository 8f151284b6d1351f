"""Free-fermion engine for the disordered XY chain.

The isotropic XY chain in transverse field maps, through the Jordan-Wigner
transform, onto free fermions governed by the tridiagonal one-particle
matrix M (random diagonal, -1 hopping), H = 2 c* M c + E0.  Everything in
this module lives on the L-dimensional one-particle side: eigencorrelators,
dynamical kernels, two-point correlation matrices of eigenstates / thermal
states / quench states, their unitary evolution, and entanglement entropies
of contiguous blocks via the h(x) = x log x + (1-x) log(1-x) formula.

Correlation matrix convention: Gamma_jk = <c_j c_k*>.  With this choice the
vacuum has Gamma = I, the thermal state gives Gamma = (I + exp(-2 beta M))^-1,
and evolution acts as Gamma(t) = U Gamma U* with U = exp(-2 i M t).  All
three are validated entry-by-entry against the 2^L brute-force engine in the
test suite.

Fields, occupations and correlation matrices are plain ndarrays.  The
field w is M's diagonal, so diagonalize(w) takes it as is, and
E0 = -sum(w).  An eigenstate is its boolean occupation vector of length L
(True: the mode is occupied).  Gamma is L x L, and the reduced state of a
block of sites is its principal slice (gamma[:ell, :ell] for the cut at
ell).  Entropies are in nats.  block_m(w, gamma) builds the 2L x 2L matrix
of the anisotropic chain.  A dense solve at L (or 2L) above the memory rule
(errors.require_dense) is a ConfigurationError.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import certify, require_dense, require_memory, require_simple
from .lapack import BUF, INT, bind

_EIG_CLAMP = 1e-10
# entropy error allowed for dropping the modes that do not straddle the cut
_TRUNC_TOL = 1e-10
_SCREEN_TOL = (1e-1, 1e-2)  # the sup's screens, loosest first
_STACK_ENTRIES = 2 ** 22  # matrix entries of one stacked eigvalsh (32 MB)
_EXHAUSTIVE_LIMIT = 14  # the sup visits all 2^L patterns up to this L
# check_tridiagonal_pairs takes the full Gram up to here, the stencil and
# Davis-Kahan certificate above
DENSE_LIMIT = 32

# LAPACK dstevd from numpy's own library (numpy >= 2, then 1.2x); None where
# none resolves.  jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info, len(jobz)
_DSTEVD = bind(("scipy_dstevd_64_", "dstevd_64_"),
               [ctypes.c_char_p, INT, BUF, BUF, BUF, INT, BUF, INT, BUF, INT, INT, ctypes.c_size_t])
TRIDIAGONAL_SOLVER = (f"dstevd via {_DSTEVD.__name__}" if _DSTEVD is not None
                      else "numpy eigh (dense fallback)")


def block_m(w: np.ndarray, gamma: float) -> np.ndarray:
    """2L x 2L block matrix [[M, K], [-K, -M]] of the anisotropic chain.

    M has diagonal w and -1 hopping; K is the antisymmetric tridiagonal
    anisotropy coupling (-gamma above the diagonal, +gamma below).  The
    spectrum is symmetric about zero.  A 2L above the dense memory rule is
    a ConfigurationError, raised before anything is allocated.
    """
    w = np.asarray(w, dtype=float)
    L = w.size
    require_dense(2 * L)
    m = np.diag(w) - np.eye(L, k=1) - np.eye(L, k=-1)
    k = np.diag(np.full(L - 1, float(gamma)), -1)
    k[np.arange(L - 1), np.arange(1, L)] = -float(gamma)
    return np.block([[m, k], [-k, -m]])


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthogonal eigenvector columns of M."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def check_eigenpairs(vecs: np.ndarray, resid: float, scale: float,
                     ortho: float | None = None) -> None:
    """Certify that the residual |A O - O Lambda| is below 1e-9 of the matrix
    scale and the orthonormality defect of O (|O^T O - I| unless given) below
    1e-10; NumericalError otherwise."""
    certify("diagonalization out of tolerance: resid", resid, 1e-9 * scale)
    if ortho is None:
        gram = vecs.T @ vecs
        gram.flat[::gram.shape[0] + 1] -= 1.0  # O^T O - I in place
        ortho = np.abs(gram, out=gram).max()
    certify("diagonalization out of tolerance: ortho", ortho, 1e-10)


def check_tridiagonal_pairs(d: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """check_eigenpairs for M (diagonal d, -1 hopping) on its stencil residual;
    returns the columns given Gram rows, all up to DENSE_LIMIT (the full Gram is
    cheaper).  Above, rho_k = |M q_k - lambda_k q_k| / |q_k| puts an eigenvalue
    within rho_k of lambda_k; if disjoint, these L intervals hold M's L eigenvalues one
    each, the rest delta_k (lambda_k to the nearest other interval) or more away.  By
    Davis-Kahan sin theta_k <= s_k = rho_k / delta_k to q_k's eigenvector, |q_i^T q_j| <=
    |q_i| |q_j| (s_i + s_j + s_i s_j); clusters over budget (all if two meet) get Gram rows."""
    resid = np.subtract.outer(d, vals, out=np.empty_like(vecs))  # M O - O Lambda, in place
    resid *= vecs
    resid[1:] -= vecs[:-1]  # -1 hopping both ways
    resid[:-1] -= vecs[1:]
    scale = max(np.abs(d).max(), 1.0)
    if vals.size <= DENSE_LIMIT:
        check_eigenpairs(vecs, np.abs(resid, out=resid).max(), scale)
        return np.arange(vals.size)
    rho, norm2 = (np.einsum("ij,ij->j", a, a) for a in (resid, vecs))
    resid, rho = np.sqrt(rho.max()), np.sqrt(rho / norm2)
    gap = np.r_[np.inf, np.diff(vals) - rho[1:] - rho[:-1], np.inf]  # between intervals
    s = rho / (rho + np.minimum(gap[:-1], gap[1:])) if gap.min() > 0 else rho + np.inf
    rows = np.flatnonzero(~(norm2.max() * (2.0 * s + s * s) <= 1e-10))  # vs every smaller s
    gram = vecs[:, rows].T @ vecs - (rows[:, None] == np.arange(vals.size))
    check_eigenpairs(vecs, resid, scale,
                     np.maximum(np.abs(norm2 - 1.0).max(), np.abs(gram).max(initial=0.0)))
    return rows


def _dstevd(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # M's eigenpairs by LAPACK: a copy of d becomes the eigenvalues, e scratch
    n, num = d.size, ctypes.c_int64
    vals, e, vecs = d.copy(), np.full(max(n - 1, 1), -1.0), np.empty((n, n), order="F")
    work, iwork, info = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, dtype=np.int64), num()
    _DSTEVD(b"V", num(n), vals.ctypes.data, e.ctypes.data, vecs.ctypes.data, num(max(n, 1)),
            work.ctypes.data, num(work.size), iwork.ctypes.data, num(iwork.size), info, 1)
    certify("tridiagonal eigensolver dstevd: |info|", abs(info.value), 1)
    return vals, vecs


def diagonalize(diagonal: np.ndarray) -> EigenSystem:
    """Diagonalize M = O Lambda O^T, the one-particle matrix with the given
    diagonal and -1 hopping, by LAPACK dstevd bound from numpy's own library
    (TRIDIAGONAL_SOLVER names it; no scipy import).  Where no such symbol
    resolves, numpy's eigh on the dense M: dsyevd's reflectors are trivial on
    a tridiagonal M and it runs dstevd's dstedc, so the pairs agree."""
    d = np.asarray(diagonal, dtype=float)
    L = d.size
    require_dense(L)
    vals, vecs = (_dstevd(d) if _DSTEVD is not None else
                  np.linalg.eigh(np.diag(d) - np.eye(L, k=1) - np.eye(L, k=-1)))
    check_tridiagonal_pairs(d, vals, vecs)
    return EigenSystem(vals, vecs)


def eigencorrelator(es: EigenSystem, j: int, k: int) -> float:
    """sum_l |phi_l(j)| |phi_l(k)|, the eigenvector correlator dominating
    |g(M)_jk| for every |g| <= 1.  Sites are 0-based."""
    L = es.size
    if not (0 <= j < L and 0 <= k < L):
        raise IndexError(f"site indices ({j}, {k}) out of range for L={L}")
    return float(np.abs(es.eigenvectors[j]) @ np.abs(es.eigenvectors[k]))


def dynamical_kernel(es: EigenSystem, time_grid, j: int, k: int) -> float:
    """max over the grid of |(exp(-i t M))_jk|, evaluated spectrally."""
    t = np.asarray(time_grid, dtype=float)
    if t.size == 0:
        raise ValueError("time grid must be nonempty")
    L = es.size
    if not (0 <= j < L and 0 <= k < L):
        raise IndexError(f"site indices ({j}, {k}) out of range for L={L}")
    weights = es.eigenvectors[j] * es.eigenvectors[k]
    phases = np.exp(-1j * np.outer(t, es.eigenvalues))
    return float(np.abs(phases @ weights).max())


def end_site_commutator_norms(es: EigenSystem, time_grid) -> np.ndarray:
    """T x L array of ||[tau_t(sX_0), sX_k]|| over grid times t and sites k.

    Closed form for the chain end only: sX_0 = c_0 + c_0* is a single
    Majorana, so tau_t(sX_0) = sum_m (Re U_0m A_m - Im U_0m B_m) with
    U = exp(-2 i M t), A_m = c_m + c_m*, B_m = -i (c_m - c_m*).  sX_k is a
    product of the 2k+1 Majoranas A_0..A_k, B_0..B_{k-1}; it commutes with
    its own factors and anticommutes with every other Majorana, and a real
    combination of Majoranas squares to its squared norm, so
        ||[tau_t(sX_0), sX_k]|| = 2 sqrt((Im U_0k)^2 + sum_{m>k} |U_0m|^2).
    Interior sites carry a Jordan-Wigner string and have no such form.
    """
    t = np.asarray(time_grid, dtype=float)
    o = es.eigenvectors
    row = (np.exp(-2j * np.outer(t, es.eigenvalues)) * o[0]) @ o.T  # U_0m(t)
    mass = np.abs(row) ** 2
    beyond = np.zeros_like(mass)          # beyond[t, k] = sum_{m>k} |U_0m|^2
    beyond[:, :-1] = np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1]
    return 2.0 * np.sqrt(row.imag ** 2 + beyond)


def _occupation(es: EigenSystem, occupied) -> np.ndarray:
    # checked, not cast: ~ on an int 0/1 vector gives -1/-2, which would
    # select the wrong modes
    occupied = np.asarray(occupied)
    if occupied.dtype != bool or occupied.shape != (es.size,):
        raise ValueError(f"occupation must be a boolean vector of length {es.size}")
    return occupied


def eigenstate_energy(es: EigenSystem, occupied: np.ndarray,
                      ground_offset: float) -> float:
    """E_alpha = 2 sum_{occupied} lambda_l + E0, with E0 = -sum(w)."""
    return 2.0 * float(es.eigenvalues @ _occupation(es, occupied)) + ground_offset


def occupation_spectra(gammas: np.ndarray) -> np.ndarray:
    """Spectra of a (..., n, n) stack of Gammas, checked and clipped to [0, 1]."""
    vals = np.linalg.eigvalsh(gammas)
    certify("correlation spectrum -min", -vals.min(), _EIG_CLAMP)
    certify("correlation spectrum max", vals.max(), 1 + _EIG_CLAMP)
    return np.clip(vals, 0.0, 1.0)


def eigenstate_correlation_matrix(es: EigenSystem,
                                  occupied: np.ndarray) -> np.ndarray:
    """Gamma of the many-body eigenstate with the given mode occupation.

    In the <c c*> convention this is the spectral projection onto the
    *unoccupied* modes (the occupied-mode projection is its complement
    I - Gamma; block entropies are identical either way).  Requires a
    simple one-particle spectrum so the projection is well defined.
    """
    empty = ~_occupation(es, occupied)
    require_simple(es.eigenvalues, "one-particle spectrum")
    o = es.eigenvectors[:, empty]
    return o @ o.T


def thermal_correlation_matrix(es: EigenSystem,
                               inverse_temperature: float) -> np.ndarray:
    """Gamma of the Gibbs state exp(-beta H)/Z, H = 2 c* M c + E0.

    Spectrally this is the Fermi factor (I + exp(-2 beta M))^-1: at beta=0
    every mode is half filled (Gamma = I/2), for beta -> inf Gamma tends to
    the projection onto positive one-particle energies.
    """
    if inverse_temperature < 0 or not np.isfinite(inverse_temperature):
        raise ValueError("inverse temperature must be finite and >= 0")
    fermi = 1.0 / (1.0 + np.exp(-2.0 * inverse_temperature * es.eigenvalues))
    return (es.eigenvectors * fermi) @ es.eigenvectors.T


def binary_entropy(x: np.ndarray) -> np.ndarray:
    """-h(x) = -(x log x + (1-x) log(1-x)), with h(0) = h(1) = +0.0."""
    x = np.clip(x, 0.0, 1.0)
    return 0.0 - (x * np.log(x, out=np.zeros_like(x), where=x > 0.0)
                  + (1.0 - x) * np.log1p(-x, out=np.zeros_like(x), where=x < 1.0))


def entanglement_entropy(block: np.ndarray) -> float:
    """Entropy -tr h(Gamma_A) in nats of the quasi-free reduced state whose
    correlation matrix is the principal block Gamma_A (a slice of Gamma);
    a non-square block or a LAPACK failure raises numpy's LinAlgError as is."""
    return float(binary_entropy(occupation_spectra(block)).sum())


def quench_blocks(es: EigenSystem, left: EigenSystem, occupied_a: np.ndarray,
                  right: EigenSystem, occupied_b: np.ndarray, time_grid) -> Iterator[np.ndarray]:
    """Gamma_A(t), A = [0, ell) with ell = left.size, at each grid time in turn for
    the product of eigenstates of the decoupled left and right chains (a
    quasi-free state) evolved under the whole chain es.  Gamma_0 = B B^T, B =
    diag(O_left[:, empty_a], O_right[:, empty_b]), so Gamma_A(t) = W W*, W =
    (O[:ell] exp(-2 i Lambda t)) C with C = O^T B formed once; no L x L
    product, U = exp(-2 i M t) included, is formed."""
    ell, o = left.size, es.eigenvectors
    cols = []
    for part, occupied, rows in ((left, occupied_a, o[:ell]), (right, occupied_b, o[ell:])):
        empty = ~_occupation(part, occupied)
        require_simple(part.eigenvalues, "one-particle spectrum")
        cols.append(rows.T @ part.eigenvectors[:, empty])
    c = np.hstack(cols)
    phased = ((o[:ell] * np.exp(-2j * t * es.eigenvalues)) @ c for t in time_grid)
    return (w @ w.conj().T for w in phased)   # lazily: one block held at a time


def eigenstate_block_entropy(es: EigenSystem, occupied: np.ndarray,
                             ell: int) -> float:
    """Entropy of the [0, ell) block of an eigenstate, without forming the
    full correlation matrix (the block of the mode projection suffices)."""
    empty = ~_occupation(es, occupied)
    if not 1 <= ell < es.size:
        raise ValueError(f"block size {ell} out of range (1..{es.size - 1})")
    require_simple(es.eigenvalues, "one-particle spectrum")
    o_a = es.eigenvectors[:ell, empty]
    return entanglement_entropy(o_a @ o_a.T)


def _drop_bound(masses: np.ndarray, sites: int) -> np.ndarray:
    # n h(delta / n), n = min(sites, count), for dropping the first count =
    # 0, 1, ... of these masses, delta their sum; infinite past 1/2, where
    # it no longer holds, and kept nondecreasing (rounding) for searchsorted
    delta = np.cumsum(np.r_[0.0, masses])
    n = np.clip(np.arange(delta.size), 1, sites)
    bound = np.where(delta <= 0.5, n * binary_entropy(delta / n), np.inf)
    return np.maximum.accumulate(bound)


def straddling_modes(es: EigenSystem, ell: int, tol=_TRUNC_TOL, squares=None) -> tuple | list:
    """(modes, bound): the modes kept for the [0, ell) block entropy of every
    eigenstate and a bound (<= tol) on the entropy error of dropping the
    others; for a tuple of tolerances, a list of these pairs, one per tol.

    Gamma_A = O_{A,S} O_{A,S}^T for the empty modes S, O_A the first ell rows
    of the eigenvectors.  Dropping modes Z from S is a PSD change of rank
    r <= min(ell, |Z|) and trace <= delta_0 = sum_Z m_k (m_k = |O_A e_k|^2,
    the left mass): the ascending eigenvalues rise by d_i, sum d_i <=
    delta_0 <= 1/2 (Weyl), with lambda_i <= lambda'_{i+r} (interlacing).
    Split each [lambda'_i, lambda_i] at 1/2: the entropy gains P on the parts
    below and loses N on those above, so it moves by at most max(P, N).  The
    parts below 1/2 in one residue class of i mod r are disjoint; slid
    towards 0 (h concave, h(0) = 0) they gain at most h(their length), so
    P <= r h(delta_0 / r) and, over at most ell parts, P <= ell h(delta_0 /
    ell); N likewise, sliding towards 1.  Hence n_0 h(delta_0 / n_0), n_0 =
    min(ell, |Z|).  Modes U of small right mass 1 - m_k drop the same way
    from the block [ell, L) of equal entropy: n_1 h(delta_1 / n_1), n_1 =
    min(L - ell, |U|).  K is the fewest modes, dropping the smallest left
    masses into Z and the smallest right masses into U, with the sum of both
    bounds within tol; an eigenstate then needs only the spectrum of G_K[S cap
    K, S cap K], G_K = O_{A,K}^T O_{A,K}.  The bound holds for every eigenstate
    at any tol, which the sup's screens rely on.  squares: O ** 2, if held.
    """
    L, squares = es.size, es.eigenvectors ** 2 if squares is None else squares
    if not 1 <= ell < L:
        raise ValueError(f"block size {ell} out of range (1..{L - 1})")
    require_simple(es.eigenvalues, "one-particle spectrum")
    left = squares[:ell].sum(axis=0)
    order = np.argsort(left)
    low = _drop_bound(left[order], ell)
    high = _drop_bound(squares[ell:].sum(axis=0)[order[::-1]], L - ell)
    cuts = []
    for t in np.atleast_1d(tol):
        # for each count dropped from the bottom, the most from the top
        # within t; never a mode twice, as each bottom one has left mass
        # <= 1/2 and each top one right mass <= 1/2
        top = np.searchsorted(high, t - low, side="right") - 1
        bottom = int(np.argmax(np.where(top >= 0, np.arange(L + 1) + top, -1)))
        cuts.append((order[bottom:L - top[bottom]], float(low[bottom] + high[top[bottom]])))
    return cuts if np.ndim(tol) else cuts[0]


def _stacked_entropies(jobs) -> list:
    # [0, ell) block entropy of each row's empty modes (0 for none) for every
    # job (o = eigenvectors[:ell], modes, empty over modes); the blocks of
    # one size n = min(count, ell), over all jobs, share one stacked eigvalsh
    counts = np.concatenate([empty.sum(axis=1) for *_, empty in jobs])
    start = np.cumsum([0] + [len(empty) for *_, empty in jobs])
    job = np.repeat(np.arange(len(jobs)), np.diff(start))
    size = np.minimum(counts, np.array([o.shape[0] for o, *_ in jobs])[job])
    # for count <= ell, from the grams o_a^T o_a (o_a = o[:, modes]), stacked:
    # gram[a, b] of a job is grams[lead + a, b]; else o_a o_a^T
    lead = np.cumsum([0] + [modes.size for _, modes, _ in jobs])
    grams = np.zeros((lead[-1], np.diff(lead).max(initial=0)))
    for (o, modes, _), a, b in zip(jobs, lead, lead[1:]):
        o_a = o[:, modes]
        grams[a:b, :b - a] = o_a.T @ o_a
    col = [np.nonzero(empty)[1] for *_, empty in jobs]   # each row's, in turn
    row, col = np.concatenate([a + c for a, c in zip(lead, col)]), np.concatenate(col)
    first = np.cumsum(counts) - counts   # each row's first entry
    out = np.zeros(size.size)
    for n in sorted(set(size[size > 0].tolist())):  # np.unique would import numpy.ma
        at = np.flatnonzero(size == n)
        step = max(1, _STACK_ENTRIES // n ** 2)
        for part in np.split(at, range(step, at.size, step)):
            blocks, wide = np.empty((part.size, n, n)), counts[part] > n
            entry = first[part[~wide], None] + np.arange(n)
            blocks[~wide] = grams[row[entry][:, :, None], col[entry][:, None, :]]
            for i, g in zip(np.flatnonzero(wide), part[wide]):
                (o, modes, empty), r = jobs[job[g]], g - start[job[g]]
                # not a batched matmul: that rounds differently from a @ a.T
                blocks[i] = o[:, modes[empty[r]]] @ o[:, modes[empty[r]]].T
            out[part] = binary_entropy(occupation_spectra(blocks)).sum(axis=1)
    return np.split(out, start[1:-1])


def sample_eigenstate_entropy_sup(es: EigenSystem, block_sizes, samples: int = 200,
                                  rng: np.random.Generator | None = None) -> dict:
    """{ell: lower estimate of the sup over eigenstates of the [0, ell) block
    entropy} for each block size ell.

    Exhaustive over all 2^L patterns when L <= _EXHAUSTIVE_LIMIT or 2^L <=
    samples; otherwise `samples` random patterns, drawn once for all cuts.  A
    pattern's entropy is taken on the modes that straddle the cut, within a
    certified _TRUNC_TOL of eigenstate_block_entropy (straddling_modes).
    Screens on the fewer modes kept at each _SCREEN_TOL in turn pass on only
    the patterns within twice that level's and the final bound (and 2
    _TRUNC_TOL of rounding) of the level's running maximum, as no other can
    hold the sup.  A screen takes each pattern's empty modes S among its kept
    K, or K - S if fewer (I - Gamma has Gamma's entropy).  Blocks of one size,
    over all cuts, share an eigvalsh per level.
    """
    L = es.size
    ells = list(dict.fromkeys(block_sizes))
    require_memory(8 * L * L, "the squared eigenvectors")
    squares = es.eigenvectors ** 2    # every cut's masses
    cuts = [straddling_modes(es, ell, (*_SCREEN_TOL, _TRUNC_TOL), squares) for ell in ells]
    kept = [c[-1][0].size for c in cuts]   # the full pass's stacked grams are the largest
    require_memory(8 * (L * L + sum(kept) * max(kept)), f"the entropy sup over {len(ells)} cuts")
    chunk = max(1, _STACK_ENTRIES // L)   # patterns held at once
    if L <= _EXHAUSTIVE_LIMIT or 2 ** L <= samples:
        # all 2^L patterns restrict to all 2^k on the kept modes; each other
        # mode is shifted to bit k, always set (occupied: any extension will do)
        def codes(kept):
            k, bit = kept.size, np.full(L, kept.size)
            bit[kept] = np.arange(k)
            return (((((np.arange(start, min(start + chunk, 2 ** k)) | 2 ** k)[:, None]
                       >> bit) & 1) == 0) for start in range(0, 2 ** k, chunk))
        rounds = zip_longest(*(codes(c[-1][0]) for c in cuts),
                             fillvalue=np.zeros((0, L), dtype=bool))
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        # consecutive draws: the same stream as one call; one array for every cut
        rounds = ([rng.integers(0, 2, size=(min(chunk, samples - start), L)) == 0] * len(cuts)
                  for start in range(0, samples, chunk))
    # per level, per cut: the level's modes and its margin
    levels = [[(c[k][0], 2.0 * (c[k][1] + c[-1][1] + _TRUNC_TOL)) for c in cuts]
              for k in range(len(_SCREEN_TOL) + 1)]
    top = np.zeros((len(levels), len(ells)))  # running maxima; the last row is the sup
    for empty in rounds:
        for k, level in enumerate(levels):
            jobs = [(es.eigenvectors[:ell], modes, e[:, modes])
                    for ell, (modes, _), e in zip(ells, level, empty)]
            for _, modes, e in jobs if k < len(levels) - 1 else ():   # a screen takes
                e ^= 2 * e.sum(axis=1, keepdims=True) > modes.size   # the smaller half
            s = _stacked_entropies(jobs)
            top[k] = np.maximum(top[k], [x.max(initial=0.0) for x in s])
            empty = [e[x >= t - margin] for e, x, t, (_, margin)
                     in zip(empty, s, top[k], level)]
    return {ell: float(sup) for ell, sup in zip(ells, top[-1])}
